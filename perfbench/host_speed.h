/**
 * @file
 * Host-speed kernel. The benchmark's host shares its memory system
 * with other tenants, and their load moves the simulator's wall time
 * by up to ~70% over minutes (README.md, "Why sweep_s is scaled").
 * A short fixed kernel, sampled just before each timed call, measures
 * the host's speed at that moment; times are reported at a fixed
 * reference speed: wall time x kReferenceS / sample().
 *
 * The kernel is a frozen copy of the LLC model's lookup (the seed's
 * LlcSim::access, array-of-structs ways, LRU with aged insertion) over
 * a warm 10.5 MB set table. It tracked the sweeps' swings better than
 * pure ALU, L2, DRAM-chase or event-loop kernels. It is frozen so an
 * optimisation of src/hw/llc_sim.cc cannot speed it up and hide its
 * own gain; change it only when redefining the benchmark.
 */

#ifndef DBSENS_PERFBENCH_HOST_SPEED_H
#define DBSENS_PERFBENCH_HOST_SPEED_H

#include <cstdint>
#include <vector>

#include "timing.h"

namespace dbsens {
namespace perfbench {

class HostSpeed
{
  public:
    /** Kernel time at the reference speed (the 4-core dev host). */
    static constexpr double kReferenceS = 3.0e-3;
    static constexpr double kResampleS = 0.25;

    HostSpeed();

    /** Seconds one pass of the kernel takes now. */
    double sample();

    /**
     * Factor that turns a wall time measured now into reference time:
     * kReferenceS / sample(), re-sampled at most every kResampleS.
     */
    double scale();

  private:
    struct Way
    {
        uint64_t tag = ~uint64_t{0};
        int64_t lastUse = INT64_MIN;
    };

    void access(uint64_t addr);

    std::vector<Way> ways_; ///< 2 sockets x 16384 sets x 20 ways
    std::vector<uint64_t> addrs_;
    uint64_t clock_ = 0;
    double scale_ = 1;
    Clock::time_point sampledAt_{};
};

} // namespace perfbench
} // namespace dbsens

#endif // DBSENS_PERFBENCH_HOST_SPEED_H
