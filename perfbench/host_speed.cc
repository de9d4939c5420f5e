#include "host_speed.h"

#include <algorithm>

#include "core/random.h"

namespace dbsens {
namespace perfbench {
namespace {

constexpr int kSockets = 2;
constexpr uint64_t kSets = 16384;
constexpr int kWays = 20;
constexpr uint64_t kLine = 64;
constexpr uint64_t kInsertAge = 1u << 20;
/** Addresses per lap: ~3 ms on the reference host. */
constexpr size_t kAccesses = 100'000;
constexpr int kTimedLaps = 3;

} // namespace

HostSpeed::HostSpeed()
    : ways_(size_t(kSockets) * kSets * kWays), addrs_(kAccesses)
{
    // ZipfSampler's draws are pinned by a regression test, so this
    // stream stays fixed.
    Rng rng(1);
    ZipfSampler zipf(1u << 20, 0.8);
    for (uint64_t &a : addrs_)
        a = zipf(rng) * kLine;
}

double
HostSpeed::scale()
{
    const auto now = Clock::now();
    if (sampledAt_ == Clock::time_point{} ||
        std::chrono::duration<double>(now - sampledAt_).count() >
            kResampleS) {
        scale_ = kReferenceS / sample();
        sampledAt_ = Clock::now();
    }
    return scale_;
}

void
HostSpeed::access(uint64_t addr)
{
    ++clock_;
    const uint64_t line = addr / kLine;
    const int socket = int((addr >> 12) & 1);
    Way *base = &ways_[(size_t(socket) * kSets + line % kSets) * kWays];
    const uint64_t tag = line / kSets;
    for (int w = 0; w < kWays; ++w) {
        if (base[w].tag == tag) {
            base[w].lastUse = int64_t(clock_);
            return;
        }
    }
    int victim = 0;
    for (int w = 1; w < kWays; ++w)
        if (base[w].lastUse < base[victim].lastUse)
            victim = w;
    base[victim].tag = tag;
    base[victim].lastUse = int64_t(clock_) - int64_t(kInsertAge);
}

double
HostSpeed::sample()
{
    // An untimed lap first re-warms the table after whatever the sweep
    // evicted, so the timed laps measure the host, not our own
    // workload's cache footprint. The median of three timed laps drops
    // a lap hit by an interrupt.
    double laps[kTimedLaps];
    for (int lap = -1; lap < kTimedLaps; ++lap) {
        const auto t0 = Clock::now();
        for (uint64_t a : addrs_)
            access(a);
        if (lap >= 0)
            laps[lap] = secondsSince(t0);
    }
    std::sort(laps, laps + kTimedLaps);
    return laps[kTimedLaps / 2];
}

} // namespace perfbench
} // namespace dbsens
