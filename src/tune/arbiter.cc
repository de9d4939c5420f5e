#include "tune/arbiter.h"

#include <algorithm>

#include "core/calibration.h"
#include "core/logging.h"

namespace dbsens {

namespace {

/**
 * Island growth orders. Tenant 0 anchors at socket 0, tenant 1 at
 * socket 1; each fills its socket's physical cores, then that
 * socket's SMT threads, then crosses over. Logical ids follow the
 * paper's allocation order (see core_scheduler.h): 0..7 = socket 0
 * physical, 8..15 = socket 1 physical, 16..23 / 24..31 = the SMT
 * siblings.
 */
constexpr int kOrder0[32] = {0,  1,  2,  3,  4,  5,  6,  7,  //
                             16, 17, 18, 19, 20, 21, 22, 23, //
                             8,  9,  10, 11, 12, 13, 14, 15, //
                             24, 25, 26, 27, 28, 29, 30, 31};
constexpr int kOrder1[32] = {8,  9,  10, 11, 12, 13, 14, 15, //
                             24, 25, 26, 27, 28, 29, 30, 31, //
                             0,  1,  2,  3,  4,  5,  6,  7,  //
                             16, 17, 18, 19, 20, 21, 22, 23};

int
evenDown(int v)
{
    return v - (v & 1);
}

} // namespace

ResourceArbiter::ResourceArbiter(const ResourceTotals &totals)
    : totals_(totals)
{
    if (totals_.cores < 2 * kMinCores)
        fatal("autopilot needs at least " +
              std::to_string(2 * kMinCores) + " cores, got " +
              std::to_string(totals_.cores));
    if (totals_.llcMb < 2 * kMinLlcMb)
        fatal("autopilot needs at least " +
              std::to_string(2 * kMinLlcMb) + " MB of LLC, got " +
              std::to_string(totals_.llcMb));
    if (totals_.grantBytes < 2 * minGrantBytes())
        fatal("autopilot grant budget too small to split");
}

KnobState
ResourceArbiter::evenSplit() const
{
    KnobState s;
    for (int t = 0; t < kNumTenants; ++t) {
        s.tenant[t].cores = evenDown(totals_.cores / 2);
        s.tenant[t].llcMb = evenDown(totals_.llcMb / 2);
        s.tenant[t].grantBytes = totals_.grantBytes / 2;
        s.tenant[t].maxdop = totals_.maxdop;
    }
    return clamp(s);
}

KnobState
ResourceArbiter::clamp(KnobState s) const
{
    for (int t = 0; t < kNumTenants; ++t) {
        TenantShare &sh = s.tenant[t];
        sh.cores = std::clamp(sh.cores, kMinCores,
                              totals_.cores - kMinCores);
        sh.llcMb = std::clamp(evenDown(sh.llcMb), kMinLlcMb,
                              totals_.llcMb - kMinLlcMb);
        const uint64_t min_g = minGrantBytes();
        sh.grantBytes = std::clamp(sh.grantBytes, min_g,
                                   totals_.grantBytes - min_g);
    }
    // Over-subscription resolves against tenant 1 (deterministic).
    if (s.tenant[0].cores + s.tenant[1].cores > totals_.cores)
        s.tenant[1].cores = totals_.cores - s.tenant[0].cores;
    if (s.tenant[0].llcMb + s.tenant[1].llcMb > totals_.llcMb)
        s.tenant[1].llcMb = totals_.llcMb - s.tenant[0].llcMb;
    if (s.tenant[0].grantBytes + s.tenant[1].grantBytes >
        totals_.grantBytes)
        s.tenant[1].grantBytes =
            totals_.grantBytes - s.tenant[0].grantBytes;
    for (int t = 0; t < kNumTenants; ++t) {
        TenantShare &sh = s.tenant[t];
        sh.maxdop = std::clamp(
            sh.maxdop, 1, std::max(1, std::min(totals_.maxdop, sh.cores)));
    }
    return s;
}

bool
ResourceArbiter::valid(const KnobState &s) const
{
    int cores = 0, llc = 0;
    uint64_t grant = 0;
    for (int t = 0; t < kNumTenants; ++t) {
        const TenantShare &sh = s.tenant[t];
        if (sh.cores < kMinCores || sh.llcMb < kMinLlcMb ||
            (sh.llcMb & 1) || sh.grantBytes < minGrantBytes() ||
            sh.maxdop < 1)
            return false;
        cores += sh.cores;
        llc += sh.llcMb;
        grant += sh.grantBytes;
    }
    return cores <= totals_.cores && llc <= totals_.llcMb &&
           grant <= totals_.grantBytes;
}

uint64_t
ResourceArbiter::coreMask(const KnobState &s, int tenant) const
{
    // Build both islands; tenant 1 skips whatever tenant 0 took, so
    // the masks are disjoint by construction.
    uint64_t mask0 = 0;
    int want = std::min(s.tenant[0].cores, totals_.cores);
    for (int c : kOrder0) {
        if (want == 0)
            break;
        if (c >= totals_.cores)
            continue; // outside the run's allocation prefix
        mask0 |= 1ull << c;
        --want;
    }
    if (tenant == 0)
        return mask0;

    uint64_t mask1 = 0;
    want = std::min(s.tenant[1].cores, totals_.cores);
    for (int c : kOrder1) {
        if (want == 0)
            break;
        if (c >= totals_.cores || (mask0 >> c & 1))
            continue;
        mask1 |= 1ull << c;
        --want;
    }
    return mask1;
}

uint32_t
ResourceArbiter::llcWayMask(const KnobState &s, int tenant) const
{
    const int total_ways = totals_.llcMb / 2; // 1 MB per way per socket
    const int w = std::min(s.tenant[tenant].llcMb / 2, total_ways);
    if (tenant == 0)
        return (1u << w) - 1; // low ways
    // High ways, disjoint from tenant 0's low block whenever the
    // shares respect the total (valid()/clamp() guarantee it).
    return ((1u << w) - 1) << (total_ways - w);
}

std::vector<TuneMove>
ResourceArbiter::moves(const KnobState &s) const
{
    using K = TuneMove::Kind;
    const int grant_step_mb =
        int(std::max<uint64_t>(1, (totals_.grantBytes / 8) >> 20));
    // An eighth of the machine per move: big enough that one epoch's
    // throughput delta clears the sampling noise, small enough that a
    // bad trial costs one epoch at ~12% displacement.
    const int core_step = std::max(2, totals_.cores / 8);
    const TuneMove all[] = {
        {K::ShiftCores, 0, 1, core_step},
        {K::ShiftCores, 1, 0, core_step},
        {K::ShiftLlc, 0, 1, 4},    {K::ShiftLlc, 1, 0, 4},
        {K::ShiftGrant, 0, 1, grant_step_mb},
        {K::ShiftGrant, 1, 0, grant_step_mb},
        {K::MaxdopUp, 1, 1, 4},    {K::MaxdopDown, 1, 1, 4},
    };
    std::vector<TuneMove> out;
    for (const TuneMove &m : all) {
        KnobState probe = s;
        if (apply(probe, m))
            out.push_back(m);
    }
    return out;
}

bool
ResourceArbiter::apply(KnobState &s, const TuneMove &m) const
{
    KnobState n = s;
    switch (m.kind) {
      case TuneMove::Kind::ShiftCores:
        n.tenant[m.from].cores -= m.step;
        n.tenant[m.to].cores += m.step;
        break;
      case TuneMove::Kind::ShiftLlc:
        n.tenant[m.from].llcMb -= m.step;
        n.tenant[m.to].llcMb += m.step;
        break;
      case TuneMove::Kind::ShiftGrant: {
        const uint64_t bytes = uint64_t(m.step) << 20;
        if (n.tenant[m.from].grantBytes < bytes)
            return false;
        n.tenant[m.from].grantBytes -= bytes;
        n.tenant[m.to].grantBytes += bytes;
        break;
      }
      case TuneMove::Kind::MaxdopUp:
        n.tenant[m.to].maxdop += m.step;
        break;
      case TuneMove::Kind::MaxdopDown:
        n.tenant[m.to].maxdop -= m.step;
        break;
    }
    // Re-couple MAXDOP to the (possibly changed) core share before
    // validating, so a cores shift drags an over-wide cap along
    // instead of failing.
    for (int t = 0; t < kNumTenants; ++t) {
        TenantShare &sh = n.tenant[t];
        // A shift can drive `cores` to <= 0; keep the upper bound at
        // least 1 so std::clamp stays defined (valid() rejects the
        // state below anyway).
        sh.maxdop = std::clamp(
            sh.maxdop, 1, std::max(1, std::min(totals_.maxdop, sh.cores)));
    }
    if (!valid(n) || n == s)
        return false;
    s = n;
    return true;
}

} // namespace dbsens
