#include "hw/llc_sim.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "core/logging.h"

namespace dbsens {

namespace {

/** Four tags, compared lane-wise in one 16-byte vector op. */
typedef uint32_t TagVec __attribute__((vector_size(16)));

constexpr int kLanes = int(sizeof(TagVec) / sizeof(uint32_t));

/**
 * Bit w set iff tags[w] == tag, over all LlcSim::kWays ways.
 * Each compare yields all-ones lanes on a match; AND-ing with the
 * lanes' way bits and OR-ing everything together leaves the mask.
 */
inline uint32_t
matchMask(const uint32_t *tags, uint32_t tag)
{
    static_assert(LlcSim::kWays % kLanes == 0,
                  "ways must fill whole tag vectors");
    const TagVec want = {tag, tag, tag, tag};
    const TagVec wayBits = {1, 2, 4, 8};
    TagVec acc = {0, 0, 0, 0};
#pragma GCC unroll 8
    for (int w = 0; w < LlcSim::kWays; w += kLanes) {
        TagVec v;
        std::memcpy(&v, tags + w, sizeof v);
        acc |= TagVec(v == want) & (wayBits << w);
    }
    return acc[0] | acc[1] | acc[2] | acc[3];
}

/** Out of line so the access fast path needs no stack frame. */
[[noreturn, gnu::cold, gnu::noinline]] void
tagOutOfRange(uint64_t addr)
{
    fatal("LLC address " + std::to_string(addr) +
          " is beyond the 32-bit tag range");
}

} // namespace

LlcSim::LlcSim()
{
    reset();
}

void
LlcSim::setWayMask(uint32_t mask)
{
    for (int cos = 0; cos < kMaxCos; ++cos)
        setCosWayMask(cos, mask);
}

void
LlcSim::setCosWayMask(int cos, uint32_t mask)
{
    if (cos < 0 || cos >= kMaxCos)
        fatal("COS id must be in [0, " + std::to_string(kMaxCos) +
              "), got " + std::to_string(cos));
    mask &= (1u << kWays) - 1;
    if (mask == 0)
        fatal("CAT way mask must allow at least one way");
    cosMask_[cos] = mask;
    allowedWays_[cos] = __builtin_popcount(mask);
}

void
LlcSim::setTotalAllocationMb(int mb)
{
    const int ways_per_socket = mb / 2; // 1 MB per way per socket
    if (ways_per_socket < 1 || ways_per_socket > kWays)
        fatal("LLC allocation must be 2..40 MB in steps of 2, got " +
              std::to_string(mb));
    setWayMask((1u << ways_per_socket) - 1);
}

bool
LlcSim::access(int socket, uint64_t addr, int cos)
{
    ++accesses_;
    ++clock_;
    const uint64_t tag64 = addr >> 20; // line / kSets
    static_assert(uint64_t(kSets) * kCacheLineSize == 1u << 20,
                  "tag is the address above the set index");
    if (__builtin_expect(tag64 >= kEmptyTag, 0))
        tagOutOfRange(addr);
    const auto tag = uint32_t(tag64);
    Set &set = sockets_[socket & 1].sets[setIndex(addr)];

    // Hit check across *all* ways: CAT restricts allocation, not
    // lookup. A tag is never resident twice in one set (fills happen
    // only on a miss), so the lowest matching way is the only one.
    if (const uint32_t hit = matchMask(set.tag, tag)) {
        set.lastUse[__builtin_ctz(hit)] = int64_t(clock_);
        return true;
    }

    // Miss: fill into the oldest way allowed for this COS, the lowest
    // index on ties. New lines enter with an aged timestamp (scan
    // resistance; see kInsertAge).
    ++misses_;
    int victim = -1;
    int64_t oldest = INT64_MAX;
    for (uint32_t m = cosMask_[cos & (kMaxCos - 1)]; m; m &= m - 1) {
        const int w = __builtin_ctz(m);
        if (set.lastUse[w] < oldest) {
            oldest = set.lastUse[w];
            victim = w;
        }
    }
    set.tag[victim] = tag;
    set.lastUse[victim] = int64_t(clock_) - int64_t(kInsertAge);
    return false;
}

void
LlcSim::reset()
{
    Set empty{};
    std::fill(std::begin(empty.tag), std::end(empty.tag), kEmptyTag);
    std::fill(std::begin(empty.lastUse), std::end(empty.lastUse),
              INT64_MIN);
    for (auto &s : sockets_)
        s.sets.assign(size_t(kSets), empty);
    clock_ = 0;
    accesses_ = 0;
    misses_ = 0;
}

} // namespace dbsens
