/**
 * @file
 * google-benchmark microbenchmarks of the core primitives: LLC
 * simulator accesses under different CAT masks, B-tree operations,
 * Zipf sampling, and executor operators. The event loop and core
 * scheduler are measured by perfbench's probe cases instead.
 * These measure the *host* cost of the simulator itself (useful when
 * sizing sweeps), not simulated performance.
 */

#include <benchmark/benchmark.h>

#include "core/random.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "hw/llc_sim.h"
#include "storage/btree.h"

namespace dbsens {
namespace {

void
BM_LlcAccess(benchmark::State &state)
{
    LlcSim llc;
    llc.setTotalAllocationMb(int(state.range(0)));
    Rng rng(1);
    ZipfSampler zipf(1u << 20, 0.8);
    uint64_t hits = 0;
    for (auto _ : state)
        hits += llc.access(0, zipf(rng) * 64) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_LlcAccess)->Arg(2)->Arg(20)->Arg(40);

void
BM_BTreeInsert(benchmark::State &state)
{
    PageId next = 0;
    BTree tree([&](uint64_t) { return next++; }, VirtualRegion{});
    Rng rng(2);
    int64_t k = 0;
    for (auto _ : state)
        tree.insert(int64_t(rng.uniform(1u << 30)), RowId(k++));
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_BTreeInsert);

void
BM_BTreeSeek(benchmark::State &state)
{
    PageId next = 0;
    BTree tree([&](uint64_t) { return next++; }, VirtualRegion{});
    const int64_t n = state.range(0);
    for (int64_t i = 0; i < n; ++i)
        tree.insert(i, RowId(i));
    Rng rng(3);
    uint64_t found = 0;
    for (auto _ : state)
        found += tree.seek(rng.range(0, n - 1)) != kInvalidRow;
    benchmark::DoNotOptimize(found);
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_BTreeSeek)->Arg(10000)->Arg(1000000);

void
BM_ZipfSample(benchmark::State &state)
{
    Rng rng(4);
    ZipfSampler zipf(1u << 24, 0.9);
    uint64_t acc = 0;
    for (auto _ : state)
        acc += zipf(rng);
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_ZipfSample);

void
BM_HashJoinExec(benchmark::State &state)
{
    Database db("micro");
    TableDef d1;
    d1.name = "fact";
    d1.schema = Schema({{"f_k", TypeId::Int64},
                        {"f_v", TypeId::Double}});
    d1.layout = StorageLayout::ColumnStore;
    d1.expectedRows = 100000;
    auto &fact = db.createTable(d1);
    Rng rng(5);
    for (int i = 0; i < 100000; ++i)
        fact.data->append({int64_t(rng.uniform(1000)),
                           rng.uniformReal()});
    TableDef d2;
    d2.name = "dim";
    d2.schema = Schema({{"d_k", TypeId::Int64},
                        {"d_g", TypeId::Int64}});
    d2.layout = StorageLayout::ColumnStore;
    d2.expectedRows = 1000;
    auto &dim = db.createTable(d2);
    for (int i = 0; i < 1000; ++i)
        dim.data->append({int64_t(i), int64_t(i % 7)});
    db.finishLoad();

    auto plan = PlanBuilder::scan("fact", {"f_k", "f_v"})
                    .join(PlanBuilder::scan("dim", {"d_k", "d_g"}),
                          JoinType::Inner, {"f_k"}, {"d_k"})
                    .aggregate({"d_g"}, {aggSum(col("f_v"), "s")})
                    .build();
    for (auto _ : state) {
        ExecContext ctx;
        ctx.resolver = &db;
        Executor ex(ctx);
        Chunk out = ex.run(*plan);
        benchmark::DoNotOptimize(out.rows());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 100000);
}
BENCHMARK(BM_HashJoinExec);

} // namespace
} // namespace dbsens

BENCHMARK_MAIN();
