/**
 * @file
 * Host-time helpers shared by the sweep driver and the probe cases.
 */

#ifndef DBSENS_PERFBENCH_TIMING_H
#define DBSENS_PERFBENCH_TIMING_H

#include <algorithm>
#include <chrono>
#include <vector>

namespace dbsens {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Median of a non-empty sample (mean of the middle two if even). */
inline double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
} // namespace dbsens

#endif // DBSENS_PERFBENCH_TIMING_H
