/**
 * @file
 * Reproduces Table 3: TPC-E lock/latch wait times at SF=15000 relative
 * to SF=5000 (full core + LLC allocation). The paper's headline: once
 * data is memory-resident the shared-data contention (LOCK +
 * PAGELATCH) drops at the larger scale factor, while PAGEIOLATCH
 * explodes because SF=15000 no longer fits in memory.
 */

#include "bench_common.h"

int
main(int argc, char **argv)
{
    using namespace dbsens;
    using namespace dbsens::bench;

    BenchContext ctx(argc, argv, "bench_table3_waits");

    banner("Table 3: TPC-E wait times, SF=15000 relative to SF=5000");

    auto run_sf = [&](int sf) {
        tpce::TpceWorkload wl(sf);
        RunConfig cfg = oltpConfig();
        cfg.cores = 32;
        cfg.llcMb = 40;
        // Blame attribution + telemetry ride along in the report
        // (this bench is the CI report-schema smoke, so the obs
        // section is schema-checked and regression-diffed here).
        cfg.obs.enabled = true;
        cfg.obs.sampleEvery = milliseconds(10);
        // Sketch hub (observe-only on the OLTP path): the sketch.*
        // report section is schema-checked here while the
        // simulated numbers stay identical to a sketch-off run.
        cfg.sketch.enabled = true;
        return runOltp(wl, cfg);
    };
    note("running TPC-E SF=5000...");
    const OltpRunResult small = run_sf(5000);
    note("running TPC-E SF=15000...");
    const OltpRunResult large = run_sf(15000);

    auto ratio = [&](WaitClass c) {
        const double a = double(small.waits.totalNs(c));
        const double b = double(large.waits.totalNs(c));
        return a > 0 ? b / a : 0.0;
    };

    TablePrinter t({"wait type", "SF5000 ms", "SF15000 ms",
                    "ratio (measured)", "ratio (paper)"});
    const struct
    {
        WaitClass c;
        const char *paper;
    } rows[] = {
        {WaitClass::Lock, "0.15"},
        {WaitClass::Deadlock, "n/a"},
        {WaitClass::Latch, "(increases)"},
        {WaitClass::PageLatch, "0.56"},
        {WaitClass::PageIoLatch, "74.61"},
    };
    for (const auto &r : rows) {
        t.row()
            .cell(waitClassName(r.c))
            .cell(double(small.waits.totalNs(r.c)) / 1e6, 3)
            .cell(double(large.waits.totalNs(r.c)) / 1e6, 3)
            .cell(ratio(r.c), 2)
            .cell(r.paper);
    }
    const double sl = double(small.waits.contentionNs());
    const double ll = double(large.waits.contentionNs());
    t.row()
        .cell("SUM L/L/PL")
        .cell(sl / 1e6, 3)
        .cell(ll / 1e6, 3)
        .cell(sl > 0 ? ll / sl : 0.0, 2)
        .cell("0.49");
    t.print(std::cout);

    std::printf("\nTPS: SF5000 %.0f, SF15000 %.0f\n", small.tps,
                large.tps);

    if (ctx.jsonRequested()) {
        RunConfig cfg = oltpConfig();
        cfg.cores = 32;
        cfg.llcMb = 40;
        ctx.config()["workload"] = Json("TPC-E");
        ctx.config()["run"] = toJson(cfg);
        ctx.results()["sf5000"] = toJson(small);
        ctx.results()["sf15000"] = toJson(large);
        Json ratios = Json::object();
        for (const auto &r : rows)
            ratios[waitClassName(r.c)] = Json(ratio(r.c));
        ratios["contention"] = Json(sl > 0 ? ll / sl : 0.0);
        ctx.results()["wait_ratios"] = std::move(ratios);
    }
    note("Shape check: LOCK ratio << 1 (contention thins out at the "
         "larger scale factor) while PAGEIOLATCH ratio >> 1 (data no "
         "longer fits in memory) — the paper's Table 3 structure.\n"
         "Known deviation: the paper additionally observed higher "
         "absolute TPS at SF=15000; in this reproduction the reduced "
         "lock waiting does not fully offset the added read I/O (see "
         "EXPERIMENTS.md).");
    return 0;
}
