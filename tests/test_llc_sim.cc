/**
 * @file
 * Unit and property tests for the CAT-capable LLC simulator and the
 * virtual address space / trace plumbing, plus a differential test of
 * the packed set layout against the former array-of-structs model.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/random.h"
#include "hw/cache_feed.h"
#include "hw/llc_sim.h"
#include "hw/virtual_space.h"

namespace dbsens {
namespace {

/**
 * The former LlcSim lookup, verbatim: per set, 20 interleaved
 * {uint64 tag, int64 lastUse} ways scanned one by one. Kept as the
 * oracle the packed layout must match access for access.
 */
class ReferenceLlc
{
  public:
    static constexpr int kWays = LlcSim::kWays;
    static constexpr int kSets = LlcSim::kSets;
    static constexpr int kMaxCos = LlcSim::kMaxCos;

    ReferenceLlc() { reset(); }

    void
    setCosWayMask(int cos, uint32_t mask)
    {
        cosMask_[cos] = mask & ((1u << kWays) - 1);
    }

    bool
    access(int socket, uint64_t addr, int cos = 0)
    {
        ++accesses_;
        ++clock_;
        auto &cache = sockets_[socket & 1];
        const uint64_t line = addr / kCacheLineSize;
        const auto set = size_t(line % kSets);
        const uint64_t tag = line / kSets;
        Way *base = &cache[set * kWays];
        for (int w = 0; w < kWays; ++w) {
            if (base[w].tag == tag) {
                base[w].lastUse = int64_t(clock_);
                return true;
            }
        }
        ++misses_;
        const uint32_t mask = cosMask_[cos & (kMaxCos - 1)];
        int victim = -1;
        int64_t oldest = INT64_MAX;
        for (int w = 0; w < kWays; ++w) {
            if (!(mask & (1u << w)))
                continue;
            if (base[w].lastUse < oldest) {
                oldest = base[w].lastUse;
                victim = w;
            }
        }
        base[victim].tag = tag;
        base[victim].lastUse =
            int64_t(clock_) - int64_t(LlcSim::kInsertAge);
        return false;
    }

    void
    reset()
    {
        for (auto &s : sockets_)
            s.assign(size_t(kSets) * kWays, Way{});
        clock_ = 0;
        accesses_ = 0;
        misses_ = 0;
    }

    void resetCounters() { accesses_ = 0; misses_ = 0; }
    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        uint64_t tag = ~uint64_t{0};
        int64_t lastUse = INT64_MIN;
    };

    std::vector<Way> sockets_[2];
    uint32_t cosMask_[kMaxCos] = {(1u << kWays) - 1, (1u << kWays) - 1};
    uint64_t clock_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

/** An LlcSim and the reference model, driven in lockstep. */
struct LlcPair
{
    LlcSim llc;
    ReferenceLlc ref;

    void
    setCosWayMask(int cos, uint32_t mask)
    {
        llc.setCosWayMask(cos, mask);
        ref.setCosWayMask(cos, mask);
    }

    void
    setWayMask(uint32_t mask)
    {
        for (int cos = 0; cos < LlcSim::kMaxCos; ++cos)
            setCosWayMask(cos, mask);
    }

    /** Access both; every result and counter must agree. */
    void
    access(uint64_t addr, int cos = 0)
    {
        const int socket = socketOfAddr(addr);
        ASSERT_EQ(llc.access(socket, addr, cos),
                  ref.access(socket, addr, cos))
            << "access #" << ref.accesses() << " addr " << addr
            << " cos " << cos;
        ASSERT_EQ(llc.accesses(), ref.accesses());
        ASSERT_EQ(llc.misses(), ref.misses());
    }
};

/**
 * Zipf stream over `lines` distinct lines above `base` (a multiple of
 * 1 MB). With `sets` = 0 the lines spread over every set; otherwise
 * they pack into `sets` sets (at most 256, alternating sockets),
 * lines / sets per set, so every access works the ways, the masks and
 * the victim choice of a crowded set.
 */
std::function<uint64_t()>
zipfStream(uint64_t seed, uint64_t lines, double theta, uint64_t base = 0,
           uint64_t sets = 0)
{
    auto rng = std::make_shared<Rng>(seed);
    auto zipf = std::make_shared<ZipfSampler>(lines, theta);
    return [=] {
        uint64_t line = (*zipf)(*rng);
        // Set index (line % sets) * 64 flips address bit 12: socket.
        if (sets)
            line = line / sets * LlcSim::kSets + line % sets * 64;
        // A random byte offset inside the line must not matter.
        return base + line * kCacheLineSize + rng->uniform(kCacheLineSize);
    };
}

TEST(LlcSim, GeometryMatchesPaperTestbed)
{
    EXPECT_EQ(LlcSim::kWays, 20);
    // 20 MB / (64 B * 20 ways) = 16384 sets.
    EXPECT_EQ(LlcSim::kSets, 16384);
}

TEST(LlcSim, RepeatAccessHits)
{
    LlcSim llc;
    EXPECT_FALSE(llc.access(0, 0x1000));
    EXPECT_TRUE(llc.access(0, 0x1000));
    EXPECT_TRUE(llc.access(0, 0x1038)); // same 64B line
    EXPECT_FALSE(llc.access(0, 0x1040)); // next line
    EXPECT_EQ(llc.accesses(), 4u);
    EXPECT_EQ(llc.misses(), 2u);
}

TEST(LlcSim, SocketsAreIndependent)
{
    LlcSim llc;
    EXPECT_FALSE(llc.access(0, 0x2000));
    EXPECT_FALSE(llc.access(1, 0x2000));
    EXPECT_TRUE(llc.access(0, 0x2000));
    EXPECT_TRUE(llc.access(1, 0x2000));
}

TEST(LlcSim, AgedInsertionEvictsNeverRehitLinesFirst)
{
    // Scan-resistant policy: a line that has been re-referenced (hit)
    // is promoted; never-rehit lines are the preferred victims.
    LlcSim llc;
    llc.setWayMask(0x3); // 2 ways allowed
    const uint64_t set_stride = uint64_t(LlcSim::kSets) * 64;
    EXPECT_FALSE(llc.access(0, 0));              // A (aged)
    EXPECT_FALSE(llc.access(0, set_stride));     // B (aged)
    EXPECT_TRUE(llc.access(0, set_stride));      // hit B -> promoted
    EXPECT_FALSE(llc.access(0, 2 * set_stride)); // C evicts A (oldest)
    EXPECT_TRUE(llc.access(0, set_stride));      // B survives the scan
    EXPECT_FALSE(llc.access(0, 0));              // A was evicted
}

TEST(LlcSim, FullMaskUsesAllWays)
{
    LlcSim llc;
    const uint64_t set_stride = uint64_t(LlcSim::kSets) * 64;
    for (int i = 0; i < LlcSim::kWays; ++i)
        EXPECT_FALSE(llc.access(0, uint64_t(i) * set_stride));
    // All 20 distinct lines fit in the 20 ways.
    for (int i = 0; i < LlcSim::kWays; ++i)
        EXPECT_TRUE(llc.access(0, uint64_t(i) * set_stride));
    // A 21st line evicts exactly one of them.
    EXPECT_FALSE(llc.access(0, 20ull * set_stride));
    int hits = 0;
    for (int i = 0; i < LlcSim::kWays; ++i)
        hits += llc.access(0, uint64_t(i) * set_stride) ? 1 : 0;
    EXPECT_EQ(hits, LlcSim::kWays - 1);
}

TEST(LlcSim, HitsOutsideMaskStillHit)
{
    // CAT semantics: restricting the mask does not invalidate lines
    // already resident in other ways.
    LlcSim llc;
    llc.setWayMask((1u << LlcSim::kWays) - 1);
    llc.access(0, 0x5000); // fills some way under the full mask
    llc.setWayMask(0x1);   // restrict to one way
    EXPECT_TRUE(llc.access(0, 0x5000));
}

TEST(LlcSim, AllocationMbMapsToWays)
{
    LlcSim llc;
    llc.setTotalAllocationMb(2);
    EXPECT_EQ(llc.allowedWays(), 1);
    llc.setTotalAllocationMb(40);
    EXPECT_EQ(llc.allowedWays(), 20);
    llc.setTotalAllocationMb(12);
    EXPECT_EQ(llc.allowedWays(), 6);
}

class LlcMissCurve : public ::testing::TestWithParam<int>
{
};

TEST_P(LlcMissCurve, MissRateDecreasesMonotonicallyWithAllocation)
{
    // Property: for a Zipf-skewed working set larger than the cache,
    // a bigger CAT allocation never increases the miss rate
    // (stack/inclusion property of LRU with growing way sets).
    const int working_set_mb = GetParam();
    const uint64_t lines =
        uint64_t(working_set_mb) << 20 >> 6; // lines in working set
    Rng rng(1234);
    ZipfSampler zipf(lines, 0.7);
    std::vector<uint64_t> trace;
    trace.reserve(200000);
    for (int i = 0; i < 200000; ++i)
        trace.push_back(zipf(rng) * 64);

    double last_rate = 1.1;
    for (int mb = 2; mb <= 40; mb += 6) {
        LlcSim llc;
        llc.setTotalAllocationMb(mb);
        uint64_t miss = 0;
        for (uint64_t a : trace)
            if (!llc.access(socketOfAddr(a), a))
                ++miss;
        const double rate = double(miss) / double(trace.size());
        EXPECT_LE(rate, last_rate + 0.01)
            << "alloc " << mb << " MB regressed";
        last_rate = rate;
    }
    // And the full allocation must beat the smallest one clearly for
    // working sets that fit.
    if (working_set_mb <= 36) {
        EXPECT_LT(last_rate, 0.9);
    }
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, LlcMissCurve,
                         ::testing::Values(8, 24, 64, 256));

TEST(LlcSim, ResetClearsContents)
{
    LlcSim llc;
    llc.access(0, 0x9000);
    llc.reset();
    EXPECT_FALSE(llc.access(0, 0x9000));
    EXPECT_EQ(llc.accesses(), 1u);
}

TEST(VirtualSpace, RegionsAreDisjointAndScaled)
{
    VirtualSpace vs;
    const auto r1 = vs.allocateScaled(1000);
    const auto r2 = vs.allocateScaled(2000);
    EXPECT_GE(r2.base, r1.base + r1.size);
    EXPECT_GE(r1.size, 1000 * calib::kScaleK);
    EXPECT_GE(r2.size, 2000 * calib::kScaleK);
}

TEST(VirtualSpace, ElementAddressesSpreadAcrossRegion)
{
    VirtualSpace vs;
    const auto r = vs.allocateFullScale(1 << 20);
    const uint64_t a0 = r.elementAddr(0, 1024);
    const uint64_t a1 = r.elementAddr(1, 1024);
    const uint64_t alast = r.elementAddr(1023, 1024);
    EXPECT_EQ(a0, r.base);
    EXPECT_EQ(a1 - a0, r.size / 1024);
    EXPECT_LT(alast, r.base + r.size);
}

TEST(AccessTrace, RecordsAndThins)
{
    AccessTrace trace(1024);
    for (uint64_t i = 0; i < 100000; ++i)
        trace.add(i * 64);
    EXPECT_EQ(trace.total(), 100000u);
    EXPECT_LE(trace.addrs().size(), 1024u);
    EXPECT_GT(trace.addrs().size(), 200u);
    EXPECT_NEAR(trace.keepRatio(),
                double(trace.addrs().size()) / 100000.0, 1e-9);
}

TEST(AccessTrace, ReplayMissRateSeesLocality)
{
    // A trace that loops over a tiny working set must have a near-zero
    // miss rate after warmup; a streaming trace must miss ~always.
    AccessTrace hot;
    for (int rep = 0; rep < 100; ++rep)
        for (uint64_t i = 0; i < 100; ++i)
            hot.add(i * 64);
    LlcSim llc;
    EXPECT_LT(hot.replayMissRate(llc), 0.05);

    AccessTrace streaming;
    for (uint64_t i = 0; i < 100000; ++i)
        streaming.add(i * 64 * 131); // distinct lines
    LlcSim llc2;
    EXPECT_GT(streaming.replayMissRate(llc2), 0.9);
}

TEST(CacheFeeds, LiveFeedCountsMisses)
{
    LlcSim llc;
    LiveCacheFeed feed(llc);
    feed.touch(0x100);
    feed.touch(0x100);
    EXPECT_EQ(feed.accesses(), 2u);
    EXPECT_EQ(feed.misses(), 1u);
}

TEST(CacheFeeds, NullFeedOnlyCounts)
{
    NullCacheFeed feed;
    feed.touch(1);
    feed.touch(2);
    EXPECT_EQ(feed.accesses(), 2u);
    EXPECT_EQ(feed.misses(), 0u);
}

TEST(LlcSimDifferential, ZipfStreamsEveryContiguousMask)
{
    // A 64 MB Zipf footprint over all sets, plus two streams packed
    // into 16 sets: ~20 lines a set (fits the full mask) and ~125
    // lines a set (thrashes every mask).
    for (int ways = 1; ways <= LlcSim::kWays; ++ways) {
        LlcPair p;
        p.setWayMask((1u << ways) - 1);
        auto spread = zipfStream(100 + ways, 1u << 20, 0.8);
        auto fits = zipfStream(200 + ways, 320, 0.6, 0, 16);
        auto thrash = zipfStream(300 + ways, 2000, 0.9, 1ull << 30, 16);
        Rng pick(400 + ways);
        for (int i = 0; i < 40000; ++i) {
            switch (pick.uniform(3)) {
            case 0:
                p.access(spread());
                break;
            case 1:
                p.access(fits());
                break;
            default:
                p.access(thrash());
                break;
            }
            if (HasFatalFailure())
                return;
        }
        EXPECT_GT(p.ref.misses(), 0u);
        EXPECT_LT(p.ref.misses(), p.ref.accesses());
    }
}

TEST(LlcSimDifferential, WideFullScaleAddresses)
{
    // Full-scale virtual addresses sit far above 2^32; the packed
    // layout keeps only addr >> 20 as a 32-bit tag.
    LlcPair p;
    p.setWayMask(0xFF);
    auto hot = zipfStream(7, 1u << 12, 0.9, 1ull << 40, 64);
    auto far = zipfStream(8, 1u << 22, 0.7, (1ull << 51) + (1ull << 45));
    Rng rng(9);
    for (int i = 0; i < 60000; ++i) {
        switch (rng.uniform(3)) {
        case 0:
            p.access(hot());
            break;
        case 1:
            p.access(far());
            break;
        default:
            // Uniform over the whole valid tag range.
            p.access(rng.uniform(0xFFFFFFFFull << 20));
            break;
        }
        if (HasFatalFailure())
            return;
    }
    // Same set and low tag bits, different high tag bits: distinct.
    const uint64_t a = 0x12345ull << 20;
    p.access(a);
    p.access(a + (1ull << 44));
    p.access(a);
    p.access(a + (1ull << 44));
}

TEST(LlcSimDifferential, RandomNonContiguousMasks)
{
    Rng rng(42);
    for (int round = 0; round < 30; ++round) {
        LlcPair p;
        uint32_t mask = 0;
        while (mask == 0)
            mask = uint32_t(rng.uniform(1u << LlcSim::kWays));
        p.setWayMask(mask);
        auto s = zipfStream(500 + round, 1200, 0.75, 0, 32);
        for (int i = 0; i < 20000; ++i) {
            p.access(s());
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(LlcSimDifferential, TwoCosWithMasksChangedMidStream)
{
    // Disjoint, then overlapping, then swapped COS masks, with the
    // accesses' COS interleaved at random: lines stay readable in
    // ways a COS lost (CAT restricts allocation, not lookup).
    LlcPair p;
    Rng rng(77);
    auto s = zipfStream(78, 1000, 0.8, 0, 16);
    const uint32_t masks[][2] = {{0x0003F, 0xFFFC0},
                                 {0x000FF, 0x00FF0},
                                 {0xFFFC0, 0x0003F},
                                 {0x55555, 0xAAAAA},
                                 {0x00001, 0x80000}};
    for (const auto &m : masks) {
        p.setCosWayMask(0, m[0]);
        p.setCosWayMask(1, m[1]);
        for (int i = 0; i < 25000; ++i) {
            p.access(s(), int(rng.uniform(2)));
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(LlcSimDifferential, ResetAndResetCountersMidStream)
{
    LlcPair p;
    p.setWayMask(0x3FF);
    auto s = zipfStream(11, 1000, 0.8, 0, 16);
    for (int phase = 0; phase < 6; ++phase) {
        for (int i = 0; i < 15000; ++i) {
            p.access(s());
            if (HasFatalFailure())
                return;
        }
        if (phase % 2 == 0) {
            p.llc.resetCounters();
            p.ref.resetCounters();
        } else {
            p.llc.reset();
            p.ref.reset();
        }
        EXPECT_EQ(p.llc.accesses(), 0u);
        EXPECT_EQ(p.llc.misses(), 0u);
    }
}

TEST(LlcSim, TagRangeGuard)
{
    // The highest line below the empty-way tag is a normal access.
    LlcSim llc;
    const uint64_t top = (0xFFFFFFFFull << 20) - kCacheLineSize;
    EXPECT_FALSE(llc.access(0, top));
    EXPECT_TRUE(llc.access(0, top));
    EXPECT_DEATH(llc.access(0, 0xFFFFFFFFull << 20), "32-bit tag range");
    EXPECT_DEATH(llc.access(1, ~uint64_t{0}), "32-bit tag range");
}

TEST(CacheFeeds, LiveBatchMatchesOneAtATimeTouches)
{
    // Twin caches: one fed in batches (prefetch, then access), one
    // touch by touch. Counters and every later probe must agree.
    LlcSim batched;
    LlcSim single;
    batched.setWayMask(0x1F);
    single.setWayMask(0x1F);
    LiveCacheFeed fb(batched);
    LiveCacheFeed fs(single);
    auto s = zipfStream(5, 1000, 0.8, 1ull << 38, 16);
    Rng rng(6);
    for (int b = 0; b < 20000; ++b) {
        uint64_t addrs[7];
        const int n = int(rng.range(1, 7));
        for (int i = 0; i < n; ++i)
            addrs[i] = s();
        fb.touchBatch(addrs, n);
        for (int i = 0; i < n; ++i)
            fs.touch(addrs[i]);
    }
    EXPECT_EQ(fb.accesses(), fs.accesses());
    EXPECT_EQ(fb.misses(), fs.misses());
    EXPECT_EQ(batched.accesses(), single.accesses());
    EXPECT_EQ(batched.misses(), single.misses());
    EXPECT_GT(fb.misses(), 0u);
    for (int i = 0; i < 50000; ++i) {
        const uint64_t a = s();
        ASSERT_EQ(batched.access(socketOfAddr(a), a),
                  single.access(socketOfAddr(a), a))
            << "probe " << i;
    }
}

TEST(CacheFeeds, DefaultBatchRecordsInOrder)
{
    AccessTrace trace;
    RecordingFeed feed(trace);
    const uint64_t addrs[] = {64, 128, 64, 4096};
    feed.touchBatch(addrs, 4);
    EXPECT_EQ(trace.addrs(), std::vector<uint64_t>(addrs, addrs + 4));
}

} // namespace
} // namespace dbsens
