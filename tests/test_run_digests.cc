/**
 * @file
 * Run-digest golden: small end-to-end runs, each folded into one
 * FNV-1a digest and compared exactly against a committed constant.
 *
 * The run-vs-run checks elsewhere (`SameSeed...BitIdentical`) compare
 * two runs of the current build, so a constant that moves in both
 * runs goes unnoticed. These digests were recorded once and are never
 * re-recorded by a refactor: a refactor that claims identical
 * simulated output must leave every value below unchanged. Each digest
 * folds the harness result, each subsystem's own digest, the final
 * database contents, and the full stats registry (`run.stats`) as JSON
 * at the end of every run phase.
 *
 * Between them the configurations drive every optional path that
 * takes a fixed tuning constant: SSD error retries and stalls,
 * brownouts, mid-run degradation, the autopilot's probe/rollback
 * cycle, the observer's series, the resilience ladder up to
 * OLTP-priority with admission sheds, the sketch hub's grant-pressure
 * resize ladder and optimizer column statistics, victim retries under
 * lock contention, and a fleet episode with crashes and message loss.
 * The precondition checks beside each digest keep those paths reached
 * if a configuration is edited.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "cluster/fleet.h"
#include "engine/sim_run.h"
#include "exec/expr.h"
#include "exec/plan.h"
#include "harness/oltp_runner.h"
#include "opt/optimizer.h"
#include "resil/resil.h"
#include "verify/verify.h"
#include "workloads/asdb/asdb.h"
#include "workloads/htap/htap.h"

namespace dbsens {
namespace {

/** FNV-1a, 64 bit, over the bytes of simulated results. */
class Fnv
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i)
            h_ = (h_ ^ c[i]) * 1099511628211ull;
    }

    void f64(double v) { bytes(&v, sizeof v); }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void str(const std::string &s) { bytes(s.data(), s.size()); }

    void
    series(const Distribution &d)
    {
        u64(d.samples().size());
        for (double v : d.samples())
            f64(v);
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 14695981039346656037ull;
};

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llxull", (unsigned long long)v);
    return buf;
}

void
foldFaults(Fnv &h, const FaultCounters &f)
{
    for (uint64_t v :
         {f.injected, f.ssdErrors, f.ssdStalls, f.ssdRetries,
          f.ssdRecovered, f.ssdExhausted, f.tornPages, f.pageRereads,
          f.pageRecovered, f.brownouts, f.coresOfflined, f.llcRevokedMb,
          f.grantSheds, f.crashes, f.checkpoints, f.redoRecords,
          f.undoRecords, f.corruptions})
        h.u64(v);
}

void
foldResult(Fnv &h, const OltpRunResult &r)
{
    for (double v : {r.tps, r.qps, r.aborts, r.retries, r.giveups, r.mpki,
                     r.avgSsdReadBps, r.avgSsdWriteBps, r.avgDramBps,
                     r.recoveryMs, r.olapUsefulPerSec})
        h.f64(v);
    for (uint64_t v :
         {r.lockTimeouts, r.deadlockAborts, r.txnsRetried, r.txnsGivenUp,
          r.queriesShed, r.queriesShedTimeout, r.queriesShedAdmission,
          r.crashes})
        h.u64(v);
    for (int c = 0; c < int(WaitClass::kCount); ++c) {
        h.u64(uint64_t(r.waits.totalNs(WaitClass(c))));
        h.u64(r.waits.count(WaitClass(c)));
    }
    h.series(r.ssdRead);
    h.series(r.ssdWrite);
    h.series(r.dram);
    foldFaults(h, r.fault);

    const TuneResult &t = r.tune;
    h.str(t.policy);
    for (uint64_t v : {uint64_t(t.epochs), uint64_t(t.probes),
                       uint64_t(t.shifts), uint64_t(t.rollbacks),
                       uint64_t(t.freezes), t.trajectoryDigest})
        h.u64(v);
    h.f64(t.score);

    h.u64(r.attribution.digest);
    h.u64(r.attribution.violations.size());
    h.u64(r.attribution.series.size());

    const resil::ResilResult &rs = r.resil;
    for (uint64_t v :
         {uint64_t(rs.ticks), uint64_t(rs.incidents),
          uint64_t(rs.escalations), uint64_t(rs.deescalations),
          uint64_t(rs.maxRung), uint64_t(rs.freezes), rs.admitSheds[0],
          rs.admitSheds[1], rs.admitted[0], rs.admitted[1],
          rs.incidentDigest})
        h.u64(v);
    h.f64(rs.incidentNs);

    const sketch::SketchResult &s = r.sketch;
    for (uint64_t v :
         {uint64_t(s.cmsWidth), uint64_t(s.cmsDepth), uint64_t(s.kllK),
          uint64_t(s.resizes), uint64_t(s.columns), s.rowAccesses,
          s.pageAccesses, s.hotHits, s.bytes, s.digest})
        h.u64(v);
    h.f64(s.cmsEps);
    h.f64(s.occupancy);
}

/** One run on a freshly generated database, and its digest. */
struct DigestRun
{
    OltpRunResult res;
    uint64_t digest = 0;
};

DigestRun
runDigest(OltpWorkload &wl, RunConfig cfg)
{
    Fnv h;
    cfg.phaseAudit = [&h](SimRun &run, int phase) {
        h.u64(uint64_t(phase));
        h.str(run.stats.toJson().dump());
    };
    std::unique_ptr<Database> db = wl.generate(1);
    DigestRun out;
    out.res = runOltpOn(wl, *db, cfg);
    foldResult(h, out.res);
    for (const auto &[table, d] : verify::databaseDigest(*db)) {
        h.str(table);
        h.u64(d);
    }
    out.digest = h.value();
    return out;
}

/** The small HTAP run every OLTP-side configuration starts from. */
RunConfig
tinyHtap()
{
    RunConfig cfg;
    cfg.duration = milliseconds(60);
    cfg.warmup = milliseconds(10);
    cfg.sampleInterval = milliseconds(2);
    return cfg;
}

#define EXPECT_DIGEST(actual, golden)                                   \
    EXPECT_EQ((actual), (golden)) << "actual digest " << hex(actual)

TEST(RunDigests, AllSubsystemsOff)
{
    htap::HtapWorkload wl(600);
    const DigestRun r = runDigest(wl, tinyHtap());
    EXPECT_GT(r.res.tps, 0);
    EXPECT_GT(r.res.qps, 0);
    EXPECT_DIGEST(r.digest, 0x7ee0bf34590fa87aull);
}

TEST(RunDigests, FaultsRetriesStallsBrownoutDegrade)
{
    htap::HtapWorkload wl(600);
    RunConfig cfg = tinyHtap();
    cfg.fault.enabled = true;
    cfg.fault.ssdErrorRate = 0.05;
    cfg.fault.ssdStallRate = 0.05;
    cfg.fault.tornPageRate = 0.01;
    cfg.fault.brownoutPeriod = milliseconds(20);
    cfg.fault.brownoutDuration = milliseconds(8);
    cfg.fault.degradeAt = milliseconds(35);
    cfg.fault.offlineCores = 8;
    cfg.fault.revokeLlcMb = 16;
    const DigestRun r = runDigest(wl, cfg);
    EXPECT_GT(r.res.fault.ssdRetries, 0u);
    EXPECT_GT(r.res.fault.ssdStalls, 0u);
    EXPECT_GT(r.res.fault.brownouts, 0u);
    EXPECT_GT(r.res.fault.coresOfflined, 0u);
    EXPECT_GT(r.res.fault.llcRevokedMb, 0u);
    EXPECT_DIGEST(r.digest, 0xac2fd57e5f7ea144ull);
}

TEST(RunDigests, AutopilotProbeAndShift)
{
    htap::HtapWorkload wl(600);
    RunConfig cfg = tinyHtap();
    cfg.duration = milliseconds(120);
    cfg.tune.enabled = true;
    cfg.tune.policy = TunePolicyKind::ProbeAndShift;
    cfg.tune.epoch = milliseconds(4);
    const DigestRun r = runDigest(wl, cfg);
    EXPECT_GT(r.res.tune.probes, 0);
    EXPECT_GT(r.res.tune.rollbacks, 0);
    EXPECT_DIGEST(r.digest, 0x0205e52926533c38ull);
}

TEST(RunDigests, ObserverOn)
{
    htap::HtapWorkload wl(600);
    RunConfig cfg = tinyHtap();
    cfg.obs.enabled = true;
    cfg.obs.sampleEvery = milliseconds(2);
    const DigestRun r = runDigest(wl, cfg);
    EXPECT_TRUE(r.res.attribution.enabled);
    EXPECT_FALSE(r.res.attribution.series.empty());
    EXPECT_DIGEST(r.digest, 0x2617d920036675b6ull);
}

/**
 * Resilience under every pressure signal at once: a tight OLTP SLO
 * (every tick violates), brownouts, an SSD retry storm (cold buffer
 * pool) and grant-queue timeout sheds (surge sessions). The ladder
 * climbs to OLTP-priority and admission sheds OLAP work.
 */
RunConfig
pressuredResil(htap::HtapWorkload &wl)
{
    wl.setSurge(6, milliseconds(15), milliseconds(40));
    RunConfig cfg = tinyHtap();
    cfg.obs.enabled = true;
    cfg.obs.sampleEvery = milliseconds(2);
    cfg.obs.slo[kTenantOltp].p99LatencyMs = 1e-6;
    cfg.resil.enabled = true;
    cfg.fault.enabled = true;
    cfg.fault.ssdErrorRate = 0.2;
    cfg.fault.brownoutPeriod = milliseconds(10);
    cfg.fault.brownoutDuration = milliseconds(5);
    cfg.fault.brownoutFactor = 0.2;
    cfg.fault.grantTimeout = microseconds(200);
    cfg.prewarmBufferPool = false;
    return cfg;
}

void
expectLadderTopped(const resil::ResilResult &rs)
{
    EXPECT_EQ(rs.maxRung, resil::kRungOltpPriority);
    EXPECT_GT(rs.admitSheds[kTenantOlap], 0u);
    uint32_t causes = 0;
    for (const resil::IncidentEvent &e : rs.episodes)
        causes |= e.causes;
    EXPECT_EQ(causes, resil::kCauseSlo | resil::kCauseBrownout |
                          resil::kCauseRetryStorm | resil::kCauseShed);
}

TEST(RunDigests, ResilLadderWithObsTightSlo)
{
    htap::HtapWorkload wl(600);
    const DigestRun r = runDigest(wl, pressuredResil(wl));
    expectLadderTopped(r.res.resil);
    EXPECT_DIGEST(r.digest, 0x7a9bc6b99f20efe2ull);
}

TEST(RunDigests, SketchWithResilGrantPressure)
{
    htap::HtapWorkload wl(600);
    RunConfig cfg = pressuredResil(wl);
    cfg.sketch.enabled = true;
    // The autopilot's even split hands OLAP half the grant pool (the
    // first resize rung); the ladder's grant shrink halves it again.
    cfg.tune.enabled = true;
    cfg.tune.epoch = milliseconds(4);
    const DigestRun r = runDigest(wl, cfg);
    expectLadderTopped(r.res.resil);
    EXPECT_GE(r.res.sketch.resizes, 2);
    EXPECT_GT(r.res.tune.freezes, 0);
    EXPECT_GT(r.res.sketch.rowAccesses, 0u);
    EXPECT_DIGEST(r.digest, 0x085f61b1b30427c9ull);
}

/** The optimizer's literal selectivities from lazily built column
 * sketches (the HTAP queries carry no literal predicates). */
TEST(RunDigests, OptimizerColumnSketches)
{
    htap::HtapWorkload wl(600);
    std::unique_ptr<Database> db = wl.generate(1);
    sketch::SketchConfig sc;
    sc.enabled = true;
    sketch::SketchHub hub(sc);
    OptimizerConfig oc;
    oc.sketch = &hub;
    Optimizer opt(*db, oc);

    Fnv h;
    auto estimate = [&](ExprPtr pred) {
        auto plan = PlanBuilder::scan("trade", {"t_qty", "t_price"})
                        .filter(std::move(pred))
                        .build();
        opt.optimize(*plan);
        h.f64(plan->estRows);
        h.u64(opt.lastPlanParallel());
    };
    estimate(eq(col("t_qty"), lit(int64_t(100))));
    estimate(lt(col("t_qty"), lit(int64_t(300))));
    estimate(ge(col("t_price"), lit(25.0)));
    const sketch::SketchResult s = hub.result();
    EXPECT_EQ(s.columns, 2);
    h.u64(uint64_t(s.columns));
    h.u64(s.digest);
    EXPECT_DIGEST(h.value(), 0xfe059d9b65540882ull);
}

TEST(RunDigests, TxnRetriesUnderLockContention)
{
    asdb::AsdbWorkload wl(150, 32);
    RunConfig cfg;
    cfg.cores = 16;
    cfg.duration = milliseconds(30);
    cfg.sampleInterval = milliseconds(1);
    cfg.lockTimeout = microseconds(100);
    cfg.txnRetryLimit = 2;
    const DigestRun r = runDigest(wl, cfg);
    EXPECT_GT(r.res.txnsRetried, 0u);
    EXPECT_DIGEST(r.digest, 0x826df218d57a1998ull);
}

TEST(RunDigests, FleetEpisodeWithCrashesAndLoss)
{
    cluster::ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.seed = 7;
    cfg.rowsPerShard = 300;
    cfg.tenants = 2;
    cfg.arrivalsPerMs = 1.0;
    cfg.crashesPerNode = 1;
    cfg.net.lossRate = 0.05;
    cfg.net.dupRate = 0.05;
    cfg.sketch = true;
    cfg.window = milliseconds(40);
    cfg.drain = milliseconds(30);

    cluster::Fleet fleet(cfg);
    const cluster::FleetResult r = fleet.run();
    EXPECT_TRUE(r.passed()) << r.audit.summary();
    EXPECT_GT(r.crashesInjected, 0u);
    EXPECT_GT(r.netDropped, 0u);
    uint64_t inquiries = 0, decisions = 0;
    for (const cluster::NodeStats &n : r.nodes) {
        inquiries += n.inquiriesSent;
        decisions += n.decisionsLogged;
    }
    EXPECT_GT(inquiries, 0u);
    EXPECT_GT(decisions, 0u);

    Fnv h;
    for (const cluster::TenantStats &t : r.tenants) {
        for (uint64_t v : {t.submitted, t.attempts, t.committed,
                           t.aborted, t.rejected, t.unknown,
                           t.crossShard})
            h.u64(v);
        h.series(t.latencyMs);
    }
    for (const cluster::NodeStats &n : r.nodes)
        for (uint64_t v :
             {n.crashes, n.recoveries, n.branchesExecuted, n.prepares,
              n.voteAborts, n.decisionsLogged, n.dupDecisions,
              n.dupExecPrepares, n.inquiriesSent, n.inquiriesAnswered,
              n.inDoubtRecovered, n.inDoubtCommitted, n.inDoubtAborted,
              n.localCommitted, n.localAborted, n.coordCommitted,
              n.coordAborted, uint64_t(n.recoveryNs)})
            h.u64(v);
    for (const cluster::FleetEvent &e : r.events) {
        h.u64(uint64_t(e.node));
        h.u64(uint64_t(e.at));
        h.str(e.kind);
    }
    for (uint64_t v : {r.netSent, r.netDropped, r.netDuplicated,
                       r.crashesInjected, r.inDoubtUnresolved,
                       r.inDoubtResolved, r.sketch.keysTracked,
                       r.sketch.mergedDigest, r.sketch.latRankErrBound})
        h.u64(v);
    h.f64(r.sketch.latP50Ms);
    h.f64(r.sketch.latP99Ms);
    for (uint64_t d : fleet.nodeDigests())
        h.u64(d);
    EXPECT_DIGEST(h.value(), 0xa44780e6db09e5e4ull);
}

} // namespace
} // namespace dbsens
