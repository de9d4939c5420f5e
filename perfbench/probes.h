/**
 * @file
 * Probe cases: each times one public function of one simulator layer
 * on a fixed, pre-generated input, so a layer's host throughput can be
 * compared across commits independently of the sweeps. Every probe
 * records its input (sizes, seeds, LLC allocation) next to its number.
 */

#ifndef DBSENS_PERFBENCH_PROBES_H
#define DBSENS_PERFBENCH_PROBES_H

#include <string>
#include <vector>

#include "core/json.h"

namespace dbsens {
namespace perfbench {

/** One probe result: a per-layer metric and the input it ran on. */
struct Probe
{
    std::string metric; ///< per-layer metric name (BENCHMARK.json)
    std::string unit;
    double value = 0;   ///< median over the probe's repetitions
    Json input;         ///< fixed input and exact work counts
};

/** Run every probe case (a few seconds in total). */
std::vector<Probe> runProbes();

} // namespace perfbench
} // namespace dbsens

#endif // DBSENS_PERFBENCH_PROBES_H
