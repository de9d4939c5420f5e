#include "probes.h"

#include <cstdint>
#include <memory>

#include "bench_common.h"
#include "core/random.h"
#include "engine/query_runner.h"
#include "engine/sim_run.h"
#include "hw/cache_feed.h"
#include "hw/llc_sim.h"
#include "sim/core_scheduler.h"
#include "sim/event_loop.h"
#include "storage/btree.h"
#include "timing.h"
#include "workloads/asdb/asdb.h"
#include "workloads/tpch/tpch_gen.h"
#include "workloads/tpch/tpch_queries.h"

namespace dbsens {
namespace perfbench {
namespace {

/** Timed repetitions per probe; the median is reported. */
constexpr int kReps = 5;

/** LlcSim::access over a pre-drawn Zipf address stream. */
Probe
llcProbe()
{
    constexpr size_t kAccesses = 2'000'000;
    constexpr uint64_t kLines = 1u << 20; // 64 MB footprint
    constexpr double kTheta = 0.8;
    constexpr int kLlcMb = 40;
    constexpr uint64_t kSeed = 1;
    Rng rng(kSeed);
    ZipfSampler zipf(kLines, kTheta);
    std::vector<uint64_t> addrs(kAccesses);
    for (uint64_t &a : addrs)
        a = zipf(rng) * kCacheLineSize;

    std::vector<double> rates;
    uint64_t hits = 0;
    for (int r = 0; r < kReps; ++r) {
        LlcSim llc;
        llc.setTotalAllocationMb(kLlcMb);
        hits = 0;
        const auto t0 = Clock::now();
        for (uint64_t a : addrs)
            hits += llc.access(socketOfAddr(a), a) ? 1 : 0;
        rates.push_back(double(kAccesses) / secondsSince(t0));
    }
    Probe p{"hw.llc_accesses_per_s", "1/s", median(rates), Json::object()};
    p.input["accesses"] = Json(uint64_t(kAccesses));
    p.input["zipf_lines"] = Json(kLines);
    p.input["zipf_theta"] = Json(kTheta);
    p.input["seed"] = Json(kSeed);
    p.input["llc_mb"] = Json(kLlcMb);
    p.input["hits"] = Json(hits);
    return p;
}

/**
 * Self-rescheduling callbacks: `depth` chains keep that many events
 * queued while `left` more are dispatched (EventLoop::at + run).
 */
struct ChainLoad
{
    EventLoop loop;
    Rng rng{3};
    uint64_t left = 0;

    void
    arm()
    {
        loop.at(loop.now() + SimTime(1 + rng.uniform(1000)), [this] {
            if (left > 0) {
                --left;
                arm();
            }
        });
    }
};

Probe
eventProbe()
{
    constexpr int kDepth = 128;
    constexpr uint64_t kEvents = 2'000'000;
    std::vector<double> rates;
    uint64_t dispatched = 0;
    for (int r = 0; r < kReps; ++r) {
        ChainLoad load;
        load.left = kEvents;
        const auto t0 = Clock::now();
        for (int c = 0; c < kDepth; ++c)
            load.arm();
        load.loop.run();
        dispatched = load.loop.eventsDispatched();
        rates.push_back(double(dispatched) / secondsSince(t0));
    }
    Probe p{"sim.event_dispatches_per_s", "1/s", median(rates),
            Json::object()};
    p.input["queue_depth"] = Json(kDepth);
    p.input["events"] = Json(dispatched);
    p.input["seed"] = Json(3);
    return p;
}

/** CoreScheduler::consume from more sessions than logical cores. */
Probe
corePickProbe()
{
    constexpr int kSessions = 48;
    constexpr int kCores = 32;
    constexpr int kBursts = 2000;
    std::vector<double> rates;
    for (int r = 0; r < kReps; ++r) {
        EventLoop loop;
        CoreScheduler cpu(loop);
        cpu.setAllowedCores(kCores);
        auto session = [&cpu](int s) -> Task<void> {
            // Uneven burst lengths so cores free up out of order.
            const CpuWork work{500.0 + 37.0 * s, 100.0, 0.0};
            for (int i = 0; i < kBursts; ++i)
                co_await cpu.consume(work);
        };
        const auto t0 = Clock::now();
        for (int s = 0; s < kSessions; ++s)
            loop.spawn(session(s));
        loop.run();
        rates.push_back(double(kSessions) * kBursts / secondsSince(t0));
    }
    Probe p{"sim.core_picks_per_s", "1/s", median(rates), Json::object()};
    p.input["sessions"] = Json(kSessions);
    p.input["cores"] = Json(kCores);
    p.input["bursts_per_session"] = Json(kBursts);
    return p;
}

/** Logical bytes a plan's base-table scans read (8 B per value). */
uint64_t
scanBytes(const PlanNode &n, Database &db)
{
    uint64_t bytes = 0;
    if (n.kind == PlanKind::Scan)
        bytes += uint64_t(db.table(n.table).data->rowCount()) *
                 n.columns.size() * 8;
    for (const auto &c : n.children)
        bytes += scanBytes(*c, db);
    for (const auto &sub : n.paramSubplans)
        bytes += scanBytes(*sub.plan, db);
    return bytes;
}

/** profileQuery over all 22 TPC-H queries on the tpch_sweep database. */
Probe
execProbe()
{
    constexpr int kSf = 10;
    constexpr uint64_t kSeed = 19920101;
    constexpr int kMaxdop = 32;
    std::unique_ptr<Database> db = tpch::generate(kSf, kSeed);
    ProfilingEnv env(*db);
    std::vector<PlanPtr> plans;
    uint64_t bytes = 0;
    for (int q = 1; q <= tpch::kQueryCount; ++q) {
        plans.push_back(tpch::query(q));
        bytes += scanBytes(*plans.back(), *db);
    }
    auto pass = [&] {
        for (const PlanPtr &plan : plans)
            profileQuery(*db, *plan, tpchOptimizerConfig(kMaxdop),
                         &env.pool());
    };
    pass(); // evolve the buffer pool to steady state, as TpchDriver does
    std::vector<double> rates;
    for (int r = 0; r < kReps; ++r) {
        const auto t0 = Clock::now();
        pass();
        rates.push_back(double(bytes) / (secondsSince(t0) * 1e3));
    }
    Probe p{"exec.bytes_per_ms", "B/ms", median(rates), Json::object()};
    p.input["tpch_sf"] = Json(kSf);
    p.input["seed"] = Json(kSeed);
    p.input["queries"] = Json(tpch::kQueryCount);
    p.input["maxdop"] = Json(kMaxdop);
    p.input["scan_bytes_per_pass"] = Json(bytes);
    return p;
}

/** BTree::insert and BTree::seek with pre-drawn keys. */
std::vector<Probe>
btreeProbes()
{
    constexpr size_t kKeys = 500'000;
    constexpr uint64_t kSeed = 2;
    Rng rng(kSeed);
    std::vector<int64_t> keys(kKeys);
    for (int64_t &k : keys)
        k = int64_t(rng.uniform(1u << 30));
    std::vector<size_t> order(kKeys);
    for (size_t &i : order)
        i = size_t(rng.uniform(kKeys));

    std::vector<double> inserts, seeks;
    uint64_t found = 0;
    for (int r = 0; r < kReps; ++r) {
        PageId next = 0;
        BTree tree([&next](uint64_t) { return next++; }, VirtualRegion{});
        auto t0 = Clock::now();
        for (size_t i = 0; i < kKeys; ++i)
            tree.insert(keys[i], RowId(i));
        inserts.push_back(double(kKeys) / secondsSince(t0));
        found = 0;
        t0 = Clock::now();
        for (size_t i : order)
            found += tree.seek(keys[i]) != kInvalidRow;
        seeks.push_back(double(kKeys) / secondsSince(t0));
    }
    Json input = Json::object();
    input["keys"] = Json(uint64_t(kKeys));
    input["key_range"] = Json(uint64_t(1) << 30);
    input["seed"] = Json(kSeed);
    input["seeks_found"] = Json(found);
    return {{"storage.btree_inserts_per_s", "1/s", median(inserts), input},
            {"storage.btree_seeks_per_s", "1/s", median(seeks), input}};
}

/** SimRun construction + teardown, as every sweep point pays it. */
Probe
simRunProbe()
{
    constexpr int kSf = 2000;
    constexpr uint64_t kSeed = 1;
    constexpr int kRuns = 20;
    asdb::AsdbWorkload wl(kSf);
    std::unique_ptr<Database> db = wl.generate(kSeed);
    const RunConfig cfg = bench::oltpConfig();
    std::vector<double> ms;
    for (int r = 0; r < kRuns; ++r) {
        const auto t0 = Clock::now();
        {
            SimRun run(*db, cfg);
        }
        ms.push_back(secondsSince(t0) * 1e3);
    }
    Probe p{"engine.simrun_setup_ms", "ms", median(ms), Json::object()};
    p.input["database"] = Json("ASDB");
    p.input["sf"] = Json(kSf);
    p.input["seed"] = Json(kSeed);
    p.input["llc_mb"] = Json(cfg.llcMb);
    p.input["runs"] = Json(kRuns);
    return p;
}

} // namespace

std::vector<Probe>
runProbes()
{
    std::vector<Probe> out;
    out.push_back(llcProbe());
    out.push_back(eventProbe());
    out.push_back(corePickProbe());
    out.push_back(execProbe());
    for (Probe &p : btreeProbes())
        out.push_back(std::move(p));
    out.push_back(simRunProbe());
    return out;
}

} // namespace perfbench
} // namespace dbsens
