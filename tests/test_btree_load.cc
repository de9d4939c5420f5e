/**
 * @file
 * BTree::load against the insert path it replaces: a loaded tree must
 * have the same pages, entries and leaf chain as inserting the same
 * live rows one by one in increasing RowId order, for adversarial key
 * orders and for every index the workload generators build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/random.h"
#include "engine/database.h"
#include "storage/btree.h"
#include "storage/column_data.h"
#include "workloads/asdb/asdb.h"
#include "workloads/htap/htap.h"
#include "workloads/tpce/tpce.h"
#include "workloads/tpch/tpch_gen.h"

namespace dbsens {
namespace {

using LivePred = std::function<bool(RowId)>;

/** One node as visitNodes() reports it, copied for comparison. */
struct NodeCopy
{
    PageId page;
    bool leaf;
    std::vector<int64_t> keys;
    std::vector<RowId> rows;
    PageId next;

    bool operator==(const NodeCopy &) const = default;
};

std::vector<NodeCopy>
layoutOf(const BTree &t)
{
    std::vector<NodeCopy> out;
    t.visitNodes([&](const BTree::NodeView &v) {
        out.push_back({v.page, v.leaf, v.keys, v.rows, v.next});
    });
    return out;
}

/** Node-by-node comparison, naming the first node that differs. */
::testing::AssertionResult
sameLayout(const BTree &got, const BTree &want)
{
    if (got.entryCount() != want.entryCount() ||
        got.nodeCount() != want.nodeCount() ||
        got.height() != want.height())
        return ::testing::AssertionFailure()
               << "entries/nodes/height " << got.entryCount() << "/"
               << got.nodeCount() << "/" << got.height() << ", want "
               << want.entryCount() << "/" << want.nodeCount() << "/"
               << want.height();
    const auto a = layoutOf(got);
    const auto b = layoutOf(want);
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "visited " << a.size() << " nodes, want " << b.size();
    for (size_t i = 0; i < a.size(); ++i)
        if (!(a[i] == b[i]))
            return ::testing::AssertionFailure()
                   << "node " << i << " differs: page " << a[i].page
                   << " leaf " << a[i].leaf << " entries "
                   << a[i].keys.size() << " next " << a[i].next
                   << ", want page " << b[i].page << " leaf "
                   << b[i].leaf << " entries " << b[i].keys.size()
                   << " next " << b[i].next;
    return ::testing::AssertionSuccess();
}

/** The per-row loop load() replaces: live rows in RowId order. */
void
insertLive(BTree &t, const ColumnData &keys, const LivePred &live)
{
    for (RowId r = 0; r < RowId(keys.size()); ++r)
        if (live(r))
            t.insert(keys.getInt(r), r);
}

enum class Order { Ascending, Descending, AllEqual, ZipfDuplicates, Random };

ColumnData
keyColumn(Order order, size_t n, uint64_t seed)
{
    ColumnData c(TypeId::Int64);
    Rng rng(seed);
    const ZipfSampler zipf(n / 50 + 1, 0.99);
    for (size_t i = 0; i < n; ++i) {
        switch (order) {
          case Order::Ascending: c.appendInt(int64_t(i)); break;
          case Order::Descending: c.appendInt(int64_t(n - i)); break;
          case Order::AllEqual: c.appendInt(42); break;
          case Order::ZipfDuplicates:
            c.appendInt(int64_t(zipf(rng)) * 3 - 7);
            break;
          case Order::Random:
            c.appendInt(rng.range(-int64_t(n), int64_t(4 * n)));
            break;
        }
    }
    return c;
}

TEST(BTreeLoad, AdversarialOrdersMatchInsertBuiltTree)
{
    const Order orders[] = {Order::Ascending, Order::Descending,
                            Order::AllEqual, Order::ZipfDuplicates,
                            Order::Random};
    const size_t sizes[] = {0, 1, 256, 257, 513, 70001};
    int multi_level = 0;
    for (const Order order : orders) {
        for (const size_t n : sizes) {
            // Every row live; every third row deleted; ~20% deleted
            // at random.
            Rng gap_rng(n * 31 + uint64_t(order));
            std::vector<bool> random_dead(n);
            for (size_t i = 0; i < n; ++i)
                random_dead[i] = gap_rng.chance(0.2);
            const LivePred lives[] = {
                [](RowId) { return true; },
                [](RowId r) { return r % 3 != 1; },
                [&](RowId r) { return !random_dead[r]; },
            };
            const ColumnData keys = keyColumn(order, n, 1000 + n);
            for (int g = 0; g < 3; ++g) {
                SCOPED_TRACE("order " + std::to_string(int(order)) +
                             " n " + std::to_string(n) + " gaps " +
                             std::to_string(g));
                PageId next_a = 7, next_b = 7;
                BTree loaded([&](uint64_t) { return next_a++; },
                             VirtualRegion{});
                BTree built([&](uint64_t) { return next_b++; },
                            VirtualRegion{});
                loaded.load(keys, lives[g]);
                insertLive(built, keys, lives[g]);
                ASSERT_TRUE(sameLayout(loaded, built));
                std::string err;
                ASSERT_TRUE(loaded.validate(&err)) << err;
                multi_level += loaded.height() >= 3;
            }
        }
    }
    // The 70K sizes split inner nodes too, not only leaves.
    EXPECT_GT(multi_level, 0);
}

TEST(BTreeLoad, SplitPointIsPinned)
{
    // Independent of insert(), which shares the split helper: 513
    // ascending keys split each full leaf of 257 into 128 + 129, three
    // times, and each separator is the right half's smallest key.
    const ColumnData keys = keyColumn(Order::Ascending, 513, 1);
    PageId next = 0;
    BTree t([&](uint64_t) { return next++; }, VirtualRegion{});
    t.load(keys, [](RowId) { return true; });
    std::vector<size_t> leaf_sizes;
    std::vector<int64_t> root_keys;
    t.visitNodes([&](const BTree::NodeView &v) {
        if (v.leaf)
            leaf_sizes.push_back(v.keys.size());
        else
            root_keys = v.keys;
    });
    EXPECT_EQ(leaf_sizes, (std::vector<size_t>{128, 128, 128, 129}));
    EXPECT_EQ(root_keys, (std::vector<int64_t>{128, 256, 384}));
    EXPECT_EQ(t.height(), 2);
}

TEST(BTreeLoad, LoadedTreeAnswersSeeksAndTakesLaterWrites)
{
    const ColumnData keys = keyColumn(Order::ZipfDuplicates, 20000, 5);
    PageId next_a = 0, next_b = 0;
    BTree loaded([&](uint64_t) { return next_a++; }, VirtualRegion{});
    BTree built([&](uint64_t) { return next_b++; }, VirtualRegion{});
    const LivePred live = [](RowId r) { return r % 5 != 0; };
    loaded.load(keys, live);
    insertLive(built, keys, live);
    // The same run-time inserts and erases leave the same trees.
    Rng rng(11);
    for (int i = 0; i < 3000; ++i) {
        const int64_t k = rng.range(-10, 1300);
        const auto r = RowId(20000 + i);
        loaded.insert(k, r);
        built.insert(k, r);
        const RowId victim = rng.uniform(20000);
        const int64_t vk = keys.getInt(victim);
        EXPECT_EQ(loaded.erase(vk, victim), built.erase(vk, victim));
    }
    ASSERT_TRUE(sameLayout(loaded, built));
    std::string err;
    ASSERT_TRUE(loaded.validate(&err)) << err;
    for (int64_t k = -10; k < 1300; k += 7)
        EXPECT_EQ(loaded.seekAll(k), built.seekAll(k)) << "key " << k;
}

/**
 * Compare every index of `db` (built by finishLoad) with an
 * insert-built tree over the same live rows. The database allocates
 * page ids from one counter shared by all its objects: a tree's
 * first page is its root leaf, allocated with the table, and the rest
 * are allocated back to back while finishLoad builds it. The
 * reference allocator hands out the same two runs.
 */
int
expectIndexesMatchInsertBuilt(Database &db)
{
    int max_height = 0;
    int checked = 0;
    for (const std::string &name : db.tableNames()) {
        Database::Table &t = db.table(name);
        for (const auto &[col, tree] : t.indexes()) {
            SCOPED_TRACE(name + "." + col);
            PageId first = kInvalidPage, rest = kInvalidPage;
            tree->visitNodes([&](const BTree::NodeView &v) {
                if (first == kInvalidPage && v.leaf)
                    first = v.page; // leftmost leaf: the original root
            });
            tree->visitNodes([&](const BTree::NodeView &v) {
                if (v.page != first)
                    rest = std::min(rest, v.page);
            });
            bool first_call = true;
            BTree ref(
                [&](uint64_t) {
                    if (first_call) {
                        first_call = false;
                        return first;
                    }
                    return rest++;
                },
                VirtualRegion{});
            insertLive(ref, t.data->column(col),
                       [&](RowId r) { return !t.data->isDeleted(r); });
            EXPECT_GT(tree->entryCount(), 0u);
            EXPECT_TRUE(sameLayout(*tree, ref));
            max_height = std::max(max_height, tree->height());
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
    return max_height;
}

TEST(BTreeLoad, TpceIndexesMatchInsertBuiltTrees)
{
    auto db = tpce::generateDb(5000, 1);
    // SF 5000 is large enough for three-level trees.
    EXPECT_GE(expectIndexesMatchInsertBuilt(*db), 3);
}

TEST(BTreeLoad, HtapIndexesMatchInsertBuiltTrees)
{
    auto db = htap::HtapWorkload(5000).generate(2);
    EXPECT_GE(expectIndexesMatchInsertBuilt(*db), 3);
}

TEST(BTreeLoad, AsdbIndexesMatchInsertBuiltTrees)
{
    auto db = asdb::AsdbWorkload(2000, 8).generate(3);
    expectIndexesMatchInsertBuilt(*db);
}

TEST(BTreeLoad, TpchIndexesMatchInsertBuiltTrees)
{
    auto db = tpch::generate(2);
    expectIndexesMatchInsertBuilt(*db);
}

TEST(BTreeLoad, FinishLoadSkipsDeletedRows)
{
    Database db("gaps");
    TableDef def;
    def.name = "t";
    def.schema = Schema({{"k", TypeId::Int64}, {"v", TypeId::Int64}});
    def.expectedRows = 30000;
    def.indexColumns = {"k", "v"};
    Database::Table &t = db.createTable(def);
    Rng rng(9);
    for (int64_t i = 0; i < 30000; ++i)
        t.data->append({rng.range(0, 5000), i});
    for (RowId r = 0; r < 30000; r += 1 + rng.uniform(4))
        t.data->markDeleted(r);
    db.finishLoad();
    EXPECT_EQ(t.indexOn("k")->entryCount(), t.data->liveRows());
    expectIndexesMatchInsertBuilt(db);
}

} // namespace
} // namespace dbsens
