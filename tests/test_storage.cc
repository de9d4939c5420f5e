/**
 * @file
 * Tests for column data, table data, buffer pool, and the storage
 * layouts (row store, column store, columnstore index).
 */

#include <gtest/gtest.h>

#include <list>
#include <map>

#include "core/random.h"
#include "sim/event_loop.h"
#include "sim/ssd_model.h"
#include "storage/buffer_pool.h"
#include "storage/column_store.h"
#include "storage/columnstore_index.h"
#include "storage/row_store.h"
#include "storage/table_data.h"

namespace dbsens {
namespace {

Schema
testSchema()
{
    return Schema({
        {"id", TypeId::Int64},
        {"price", TypeId::Double},
        {"flag", TypeId::String, 4},
    });
}

TEST(ColumnData, IntRoundTrip)
{
    ColumnData c(TypeId::Int64);
    for (int64_t i = 0; i < 100; ++i)
        c.appendInt(i * 7);
    EXPECT_EQ(c.size(), 100u);
    EXPECT_EQ(c.getInt(13), 91);
    c.setInt(13, -5);
    EXPECT_EQ(c.getInt(13), -5);
}

TEST(ColumnData, StringDictionaryDeduplicates)
{
    ColumnData c(TypeId::String);
    c.appendString("AAA");
    c.appendString("BBB");
    c.appendString("AAA");
    EXPECT_EQ(c.dict().size(), 2u);
    EXPECT_EQ(c.getString(0), "AAA");
    EXPECT_EQ(c.getString(2), "AAA");
    EXPECT_EQ(c.stringCode(0), c.stringCode(2));
    EXPECT_NE(c.stringCode(0), c.stringCode(1));
}

TEST(ColumnData, DistinctEstimates)
{
    ColumnData c(TypeId::Int64);
    for (int i = 0; i < 1000; ++i)
        c.appendInt(i % 10);
    const auto d = c.distinctEstimate();
    EXPECT_GE(d, 5u);
    EXPECT_LE(d, 40u);
}

TEST(ColumnData, CompressedBytesBelowRaw)
{
    ColumnData c(TypeId::Int64);
    for (int i = 0; i < 10000; ++i)
        c.appendInt(i % 100); // 7 bits of range
    EXPECT_LT(c.compressedBytes(), 10000u * 8);
    EXPECT_GT(c.compressedBytes(), 10000u / 2);
}

TEST(TableData, AppendAndFetch)
{
    TableData t(testSchema());
    const RowId r = t.append({int64_t(1), 9.5, "OK"});
    EXPECT_EQ(t.rowCount(), 1u);
    const auto row = t.getRow(r);
    EXPECT_EQ(row[0].asInt(), 1);
    EXPECT_DOUBLE_EQ(row[1].asDouble(), 9.5);
    EXPECT_EQ(row[2].asString(), "OK");
}

TEST(TableData, DeletionTracksLiveRows)
{
    TableData t(testSchema());
    for (int i = 0; i < 10; ++i)
        t.append({int64_t(i), 1.0, "X"});
    t.markDeleted(3);
    t.markDeleted(3); // idempotent
    EXPECT_TRUE(t.isDeleted(3));
    EXPECT_EQ(t.liveRows(), 9u);
}

class BufferPoolTest : public ::testing::Test
{
  protected:
    BufferPoolTest() : ssd(loop), pool(loop, ssd, 10 * kPageSize) {}

    EventLoop loop;
    SsdModel ssd;
    BufferPool pool;
};

TEST_F(BufferPoolTest, TouchMissesThenHits)
{
    pool.registerObject(1, kPageSize);
    auto r1 = pool.touch(1);
    EXPECT_FALSE(r1.hit);
    EXPECT_EQ(r1.readBytes, kPageSize);
    auto r2 = pool.touch(1);
    EXPECT_TRUE(r2.hit);
    EXPECT_EQ(r2.readBytes, 0u);
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_EQ(pool.missCount(), 1u);
}

TEST_F(BufferPoolTest, LruEvictionUnderPressure)
{
    for (PageId p = 0; p < 20; ++p)
        pool.registerObject(p, kPageSize);
    for (PageId p = 0; p < 12; ++p)
        pool.touch(p);
    // Pool holds 10 pages; pages 0 and 1 were evicted.
    EXPECT_FALSE(pool.isResident(0));
    EXPECT_FALSE(pool.isResident(1));
    EXPECT_TRUE(pool.isResident(11));
    EXPECT_LE(pool.usedBytes(), pool.capacityBytes());
}

TEST_F(BufferPoolTest, DirtyEvictionReportsWriteback)
{
    for (PageId p = 0; p < 11; ++p)
        pool.registerObject(p, kPageSize);
    pool.touch(0);
    pool.markDirty(0);
    for (PageId p = 1; p < 11; ++p)
        pool.touch(p); // evicts page 0
    EXPECT_FALSE(pool.isResident(0));
    EXPECT_EQ(pool.writebackBytes(), kPageSize);
}

TEST_F(BufferPoolTest, PrewarmFillsInRegistrationOrder)
{
    for (PageId p = 0; p < 20; ++p)
        pool.registerObject(p, kPageSize);
    pool.prewarm();
    for (PageId p = 0; p < 10; ++p)
        EXPECT_TRUE(pool.isResident(p)) << p;
    EXPECT_FALSE(pool.isResident(10));
}

TEST_F(BufferPoolTest, FixChargesPageIoLatchOnMiss)
{
    pool.registerObject(1, kPageSize);
    WaitStats stats;
    auto session = [&]() -> Task<void> {
        co_await pool.fix(1, &stats);
    };
    loop.spawn(session());
    loop.run();
    EXPECT_GT(stats.totalNs(WaitClass::PageIoLatch), 0);
    EXPECT_EQ(stats.count(WaitClass::PageIoLatch), 1u);
    EXPECT_TRUE(pool.isResident(1));
    EXPECT_GT(ssd.bytesRead(), 0u);
}

TEST_F(BufferPoolTest, ConcurrentFixesShareOneRead)
{
    pool.registerObject(1, kPageSize);
    WaitStats s1, s2;
    int done = 0;
    auto session = [&](WaitStats *s) -> Task<void> {
        co_await pool.fix(1, s);
        ++done;
    };
    loop.spawn(session(&s1));
    loop.spawn(session(&s2));
    loop.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(ssd.readOps(), 1u); // second session joined the load
    EXPECT_GT(s2.totalNs(WaitClass::PageIoLatch), 0);
}

TEST_F(BufferPoolTest, ResidentFixIsFree)
{
    pool.registerObject(1, kPageSize);
    pool.touch(1);
    WaitStats stats;
    auto session = [&]() -> Task<void> {
        co_await pool.fix(1, &stats);
    };
    loop.spawn(session());
    loop.run();
    EXPECT_EQ(stats.count(WaitClass::PageIoLatch), 0u);
    EXPECT_EQ(loop.now(), 0);
}

TEST_F(BufferPoolTest, FlushDirtyCleansWithoutEvicting)
{
    pool.registerObject(1, kPageSize);
    pool.touch(1);
    pool.markDirty(1);
    EXPECT_EQ(pool.dirtyBytes(), kPageSize);
    const auto flushed = pool.flushDirty(1 << 20);
    EXPECT_EQ(flushed, kPageSize);
    EXPECT_EQ(pool.dirtyBytes(), 0u);
    EXPECT_TRUE(pool.isResident(1));
}

/**
 * Reference model of the pool's residency and dirty state, with the
 * lazy writer as a full walk of the LRU list: each page in LRU order,
 * stopping once `max_bytes` are written, skipping in-flight loads.
 * BufferPool::flushDirty visits only the dirty pages and must clean
 * exactly the pages this walk cleans.
 */
class LruWalkModel
{
  public:
    explicit LruWalkModel(uint64_t capacity) : capacity_(capacity) {}

    struct Page
    {
        uint64_t bytes = 0;
        bool resident = false;
        bool dirty = false;
        bool loading = false;
        std::list<PageId>::iterator lruPos;
    };

    /** How a fix() call found its page. */
    enum class Fix { Hit, Join, Load };

    void registerObject(PageId id, uint64_t bytes) { pages_[id].bytes = bytes; }

    const Page &page(PageId id) const { return pages_.at(id); }

    void
    touch(PageId id)
    {
        Page &p = pages_.at(id);
        if (p.resident) {
            touchLru(id, p);
            return;
        }
        makeRoom(p.bytes);
        admit(id, p);
    }

    /** fix() up to its SSD read; the loader later calls fixLoaded. */
    Fix
    fixBegin(PageId id)
    {
        Page &p = pages_.at(id);
        if (p.resident && !p.loading) {
            touchLru(id, p);
            return Fix::Hit;
        }
        if (p.loading)
            return Fix::Join;
        makeRoom(p.bytes);
        p.loading = true;
        admit(id, p);
        return Fix::Load;
    }

    void
    fixLoaded(PageId id)
    {
        Page &p = pages_.at(id);
        p.loading = false;
        touchLru(id, p);
    }

    void
    markDirty(PageId id)
    {
        Page &p = pages_.at(id);
        if (!p.dirty) {
            p.dirty = true;
            dirtyBytes_ += p.bytes;
        }
    }

    void
    resizeObject(PageId id, uint64_t bytes)
    {
        Page &p = pages_.at(id);
        if (p.resident)
            used_ = used_ + bytes - p.bytes;
        if (p.resident && p.dirty)
            dirtyBytes_ = dirtyBytes_ + bytes - p.bytes;
        p.bytes = bytes;
    }

    uint64_t
    flushDirty(uint64_t max_bytes)
    {
        uint64_t flushed = 0;
        for (PageId id : lru_) {
            if (flushed >= max_bytes)
                break;
            Page &p = pages_.at(id);
            if (p.dirty && !p.loading) {
                p.dirty = false;
                dirtyBytes_ -= p.bytes;
                flushed += p.bytes;
            }
        }
        writebackBytes_ += flushed;
        return flushed;
    }

    uint64_t dirtyBytes() const { return dirtyBytes_; }
    uint64_t writebackBytes() const { return writebackBytes_; }

  private:
    void
    touchLru(PageId id, Page &p)
    {
        lru_.erase(p.lruPos);
        p.lruPos = lru_.insert(lru_.end(), id);
    }

    void
    admit(PageId id, Page &p)
    {
        p.resident = true;
        used_ += p.bytes;
        p.lruPos = lru_.insert(lru_.end(), id);
    }

    void
    makeRoom(uint64_t needed)
    {
        while (used_ + needed > capacity_ && !lru_.empty()) {
            const PageId victim = lru_.front();
            Page &v = pages_.at(victim);
            lru_.pop_front();
            if (v.loading) {
                v.lruPos = lru_.insert(lru_.end(), victim);
                continue;
            }
            v.resident = false;
            used_ -= v.bytes;
            if (v.dirty) {
                v.dirty = false;
                dirtyBytes_ -= v.bytes;
                writebackBytes_ += v.bytes;
            }
        }
    }

    uint64_t capacity_;
    uint64_t used_ = 0;
    uint64_t dirtyBytes_ = 0;
    uint64_t writebackBytes_ = 0;
    std::map<PageId, Page> pages_;
    std::list<PageId> lru_; // front = LRU, back = MRU
};

TEST(BufferPoolFlush, DirtyOnlyWalkMatchesFullLruWalk)
{
    // Page i is kBase + 2^(2i), or kBase + 2^(2i+1) while resized:
    // every size is distinct and any sum of sizes names its pages
    // (count above kBase, one bit per page below), so equal flush
    // returns mean the same pages were flushed.
    constexpr int kPages = 12;
    constexpr uint64_t kBase = uint64_t(1) << 24;
    auto size_of = [](int i, bool resized) {
        return kBase + (uint64_t(1) << (2 * i + (resized ? 1 : 0)));
    };
    // Room for five pages: at most two in-flight loads always leave
    // an evictable page, so makeRoom cannot spin on loading pages.
    constexpr int kMaxLoads = 2;
    const uint64_t capacity = 6 * kBase;

    EventLoop loop;
    SsdModel ssd(loop);
    BufferPool pool(loop, ssd, capacity);
    LruWalkModel ref(capacity);
    bool resized[kPages] = {};
    for (int i = 0; i < kPages; ++i) {
        pool.registerObject(PageId(i), size_of(i, false));
        ref.registerObject(PageId(i), size_of(i, false));
    }

    int loads = 0;
    auto fixer = [&](PageId id) -> Task<void> {
        const auto how = ref.fixBegin(id);
        if (how == LruWalkModel::Fix::Load)
            ++loads;
        co_await pool.fix(id, nullptr);
        // The loader resumes first, right after the pool marks the
        // page loaded and moves it to the MRU end.
        if (how == LruWalkModel::Fix::Load) {
            ref.fixLoaded(id);
            --loads;
        }
    };
    auto pick_where = [&](Rng &rng, auto &&pred) -> int {
        std::vector<int> ids;
        for (int i = 0; i < kPages; ++i)
            if (pred(ref.page(PageId(i))))
                ids.push_back(i);
        return ids.empty() ? -1 : ids[rng.uniform(ids.size())];
    };

    Rng rng(20261019);
    int flushes = 0, partial_flushes = 0, loading_dirty_flushes = 0;
    for (int step = 0; step < 20000; ++step) {
        const uint64_t op = rng.uniform(100);
        uint64_t got = 0, want = 0;
        if (op < 30) {
            const auto id = PageId(rng.uniform(kPages));
            pool.touch(id);
            ref.touch(id);
        } else if (op < 50) {
            // Any resident page, dirty or not, loading or not.
            const int i = pick_where(
                rng, [](const auto &p) { return p.resident; });
            if (i >= 0) {
                pool.markDirty(PageId(i));
                ref.markDirty(PageId(i));
            }
        } else if (op < 58) {
            const int i = pick_where(rng, [](const auto &p) {
                return p.resident && p.dirty;
            });
            if (i >= 0) {
                resized[i] = !resized[i];
                pool.resizeObject(PageId(i), size_of(i, resized[i]));
                ref.resizeObject(PageId(i), size_of(i, resized[i]));
            }
        } else if (op < 73) {
            const auto id = PageId(rng.uniform(kPages));
            const auto &p = ref.page(id);
            if (p.resident || loads < kMaxLoads) {
                loop.spawn(fixer(id));
                loop.runUntil(loop.now()); // start it now
            }
        } else if (op < 85) {
            loop.runUntil(loop.now() +
                          SimDuration(rng.uniform(milliseconds(10))));
        } else {
            const uint64_t dirty = ref.dirtyBytes();
            uint64_t budget = dirty + 1 + rng.uniform(kBase);
            const uint64_t kind = rng.uniform(4);
            if (kind == 0)
                budget = dirty;
            else if (kind == 1)
                budget = dirty ? rng.uniform(dirty) : 0;
            else if (kind == 2)
                budget = kBase * rng.uniform(3);
            bool loading_dirty = false;
            for (int i = 0; i < kPages; ++i)
                loading_dirty |= ref.page(PageId(i)).dirty &&
                                 ref.page(PageId(i)).loading;
            got = pool.flushDirty(budget);
            want = ref.flushDirty(budget);
            ++flushes;
            partial_flushes += budget < dirty && want > 0;
            loading_dirty_flushes += loading_dirty;
        }
        for (int i = 0; i < kPages; ++i)
            ASSERT_EQ(pool.isResident(PageId(i)),
                      ref.page(PageId(i)).resident)
                << "step " << step << " page " << i;
        ASSERT_EQ(got, want) << "step " << step;
        ASSERT_EQ(pool.dirtyBytes(), ref.dirtyBytes()) << "step " << step;
        ASSERT_EQ(pool.writebackBytes(), ref.writebackBytes())
            << "step " << step;
    }
    loop.run();
    // The stream reached the cases the rewrite could get wrong.
    EXPECT_GT(flushes, 1000);
    EXPECT_GT(partial_flushes, 200);
    EXPECT_GT(loading_dirty_flushes, 50);
}

TEST(BufferPoolMakeRoom, MissesOnAPoolFullOfLoadsOverCommit)
{
    // Room for two pages, four concurrent misses: the third and fourth
    // find only in-flight loads to evict. They over-commit instead of
    // waiting for room, and the next miss after the loads finish
    // evicts back down to capacity.
    EventLoop loop;
    SsdModel ssd(loop);
    BufferPool pool(loop, ssd, 2 * kPageSize);
    for (PageId id = 0; id < 5; ++id)
        pool.registerObject(id, kPageSize);
    for (PageId id = 0; id < 4; ++id)
        loop.spawn(pool.fix(id, nullptr));
    loop.run();
    for (PageId id = 0; id < 4; ++id)
        EXPECT_TRUE(pool.isResident(id)) << "page " << id;
    EXPECT_EQ(pool.usedBytes(), 4 * kPageSize);
    EXPECT_EQ(pool.missCount(), 4u);
    loop.spawn(pool.fix(4, nullptr));
    loop.run();
    EXPECT_EQ(pool.usedBytes(), 2 * kPageSize);
    EXPECT_TRUE(pool.isResident(3));
    EXPECT_TRUE(pool.isResident(4));
}

TEST(RowStoreTest, PagesMapRowsAtFixedDensity)
{
    TableData data(testSchema()); // width 8+8+4 = 20 (+slot)
    VirtualSpace vs;
    PageId next = 100;
    RowStore rs(data, [&](uint64_t) { return next++; }, vs, 10000);
    EXPECT_GT(rs.rowsPerPage(), 100u);
    bool new_page = false;
    for (int i = 0; i < 1000; ++i)
        rs.appendRow({int64_t(i), 0.5, "AB"}, &new_page);
    EXPECT_EQ(rs.pageCount(),
              (1000 + rs.rowsPerPage() - 1) / rs.rowsPerPage());
    EXPECT_EQ(rs.pageOfRow(0), 100u);
    EXPECT_EQ(rs.pageOfRow(rs.rowsPerPage()), 101u);
    EXPECT_EQ(rs.dataBytes(), rs.pageCount() * kPageSize);
}

TEST(RowStoreTest, CacheAddressesWithinRegionAndOrdered)
{
    TableData data(testSchema());
    VirtualSpace vs;
    PageId next = 0;
    RowStore rs(data, [&](uint64_t) { return next++; }, vs, 1000);
    for (int i = 0; i < 500; ++i)
        rs.appendRow({int64_t(i), 0.0, "A"});
    const auto a0 = rs.cacheAddrOfRow(0);
    const auto a499 = rs.cacheAddrOfRow(499);
    EXPECT_GE(a0, rs.region().base);
    EXPECT_LT(a499, rs.region().base + rs.region().size);
    EXPECT_GT(a499, a0);
}

TEST(ColumnStoreTest, BuildRegistersSegmentsWithCompressedSizes)
{
    TableData data(testSchema());
    for (int i = 0; i < 100000; ++i)
        data.append({int64_t(i % 50), double(i % 7), "F"});
    VirtualSpace vs;
    std::vector<uint64_t> sizes;
    PageId next = 0;
    ColumnStore cs(data,
                   [&](uint64_t b) {
                       sizes.push_back(b);
                       return next++;
                   },
                   vs);
    cs.build();
    EXPECT_EQ(cs.rowGroups(), 2u); // 100k rows / 65536
    EXPECT_EQ(sizes.size(), 3u * 2u);
    // Compressed total far below raw width (20 B/row).
    EXPECT_LT(cs.totalBytes(), 100000u * 20);
    EXPECT_GT(cs.totalBytes(), 0u);
    EXPECT_NE(cs.segmentPage(0, 0), cs.segmentPage(0, 1));
}

TEST(ColumnstoreIndexTest, DeltaAccumulatesAndTupleMoverCompresses)
{
    TableData data(testSchema());
    for (int i = 0; i < 1000; ++i)
        data.append({int64_t(i), 1.0, "X"});
    VirtualSpace vs;
    PageId next = 0;
    ColumnstoreIndex idx(data, [&](uint64_t) { return next++; }, vs);
    idx.build();
    EXPECT_EQ(idx.compressedUpTo(), 1000u);
    EXPECT_EQ(idx.deltaRows(), 0u);

    // Inserts land in the delta store.
    for (int i = 0; i < 100; ++i) {
        const RowId r = data.append({int64_t(1000 + i), 1.0, "X"});
        idx.onInsert(r);
    }
    EXPECT_EQ(idx.deltaRows(), 100u);
    EXPECT_EQ(idx.tupleMove(), 0u); // below threshold

    for (uint64_t i = idx.deltaRows();
         i < ColumnstoreIndex::kDeltaCompressThreshold; ++i) {
        const RowId r = data.append({int64_t(i), 1.0, "X"});
        idx.onInsert(r);
    }
    const auto moved = idx.tupleMove();
    EXPECT_GT(moved, 0u);
    EXPECT_EQ(idx.deltaRows(), 0u);
    EXPECT_EQ(idx.compressedUpTo(), data.rowCount());
}

} // namespace
} // namespace dbsens
