/**
 * @file
 * Host-time benchmark of the paper's Figure 2 sweeps (see README.md).
 *
 *   perfbench_sweep --workload <tpch_sweep|htap_sweep|oltp_sweep>
 *       [--seed N] [--seconds S] [--trace 0|1] [--reference FILE]
 *       [--out-dir DIR] [--git-sha SHA] [--source-sha SHA]
 *
 * A pass is one set-up plus every sweep point of the workload, run one
 * after another in this process. With --trace 0 the driver repeats
 * passes while another fits in --seconds (at least one), sets up at
 * least kMinSetups times, and reports sweep_s (each point's median
 * over the passes, at the host-speed kernel's reference speed,
 * summed), setup_s (median wall time) and peak_rss_mb. With --trace 1
 * it runs one untraced pass, one traced pass (spans around each public
 * call, counters read through RunConfig::phaseAudit) and the probe
 * cases, and reports the per-layer metrics.
 *
 * Every point's simulated result is hashed. Digests must match the
 * reference for the default seed, repeat across passes, and be equal
 * in the traced and untraced passes. The last stdout line is the
 * result: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_common.h"
#include "host_speed.h"
#include "probes.h"
#include "timing.h"

namespace dbsens {
namespace perfbench {
namespace {

/** Seed whose digests are recorded in reference.json (paper seeds). */
constexpr uint64_t kDefaultSeed = 1;
constexpr int kTpchSf = 10;
constexpr int kTpchStreams = 3;
constexpr int kMinSetups = 5;

/**
 * TPC-H's LLC ladder: 2 of Figure 2's 20 allocations. The full ladder
 * takes ~27 s a pass, too long to repeat within one run; TPC-H points
 * are read-only, so each still matches Figure 2 exactly. 40 MB at 32
 * cores is the core ladder's last point, so it is not run twice.
 */
const std::vector<int> kTpchLlcLadder = {2, 20};

/** One OLTP-style database of a workload: class name and SF. */
struct OltpDb
{
    const char *name;
    int sf;
};

/** Workloads: tpch_sweep, or the OLTP-style databases swept in order. */
const std::map<std::string, std::vector<OltpDb>> kWorkloads = {
    {"tpch_sweep", {}},
    {"htap_sweep", {{"HTAP", 5000}}},
    {"oltp_sweep",
     {{"TPC-E", 5000}, {"TPC-E", 15000}, {"ASDB", 2000}, {"ASDB", 6000}}},
};

/** TPC-H data seed; seed 1 gives TpchDriver's default 19920101. */
uint64_t
tpchDataSeed(uint64_t seed)
{
    return 19920100 + seed;
}

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
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** A timed public call, kept in memory until the run ends. */
struct Span
{
    std::string name;
    int parent; ///< index of the enclosing span, -1 at the root
    double startUs;
    double durUs = 0;
};

/** Span recorder for the traced pass; spans nest by call order. */
class Tracer
{
  public:
    void
    open(const char *name)
    {
        spans_.push_back(
            {name, stack_.empty() ? -1 : stack_.back(), nowUs()});
        stack_.push_back(int(spans_.size()) - 1);
    }

    void
    close()
    {
        Span &s = spans_[size_t(stack_.back())];
        s.durUs = nowUs() - s.startUs;
        stack_.pop_back();
    }

    /** Summed duration of every span with this name, seconds. */
    double
    totalS(const std::string &name) const
    {
        double us = 0;
        for (const Span &s : spans_)
            if (s.name == name)
                us += s.durUs;
        return us / 1e6;
    }

    double
    maxS(const std::string &name) const
    {
        double us = 0;
        for (const Span &s : spans_)
            if (s.name == name)
                us = std::max(us, s.durUs);
        return us / 1e6;
    }

    /** Chrome trace-event JSON; args carry span id and parent. */
    Json
    chromeTrace() const
    {
        Json events = Json::array();
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            Json e = Json::object();
            e["name"] = Json(s.name);
            e["ph"] = Json("X");
            e["ts"] = Json(s.startUs);
            e["dur"] = Json(s.durUs);
            e["pid"] = Json(1);
            e["tid"] = Json(1);
            e["args"]["id"] = Json(int(i));
            e["args"]["parent"] = Json(s.parent);
            events.push(std::move(e));
        }
        Json j = Json::object();
        j["traceEvents"] = std::move(events);
        return j;
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         t0_)
            .count();
    }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Run fn; with a tracer, record it as a span. Returns seconds. */
template <class F>
double
timeCall(Tracer *tr, const char *name, F &&fn)
{
    if (tr)
        tr->open(name);
    const auto t0 = Clock::now();
    fn();
    const double s = secondsSince(t0);
    if (tr)
        tr->close();
    return s;
}

/** Exact counts read through RunConfig::phaseAudit (OLTP points). */
struct AuditCounts
{
    uint64_t events = 0;
    uint64_t llcAccesses = 0;
    uint64_t llcMisses = 0;
    uint64_t txnsCommitted = 0;
    uint64_t queriesCompleted = 0;
    uint64_t bufferpoolMisses = 0;
    uint64_t walFlushes = 0;
    uint64_t lockWaits = 0;

    void
    add(SimRun &run)
    {
        events += run.loop.eventsDispatched();
        // Every feed (OLTP and HTAP analytics) over the run's LlcSim,
        // measured window only: completeWarmup() resets these.
        llcAccesses += run.llc.accesses();
        llcMisses += run.llc.misses();
        txnsCommitted += run.txnsCommitted;
        queriesCompleted += run.queriesCompleted;
        bufferpoolMisses += uint64_t(run.stats.value("bufferpool.misses"));
        walFlushes += uint64_t(run.stats.value("wal.flushes"));
        lockWaits += uint64_t(run.stats.value("waits.LOCK.count"));
    }
};

/**
 * Where a pass records to: the host-speed kernel always; spans and
 * phaseAudit counters only in the traced pass.
 */
struct Recorder
{
    HostSpeed &speed;
    Tracer *tracer = nullptr;
    AuditCounts *audit = nullptr;
};

/** A timed interval: wall seconds, and the same at reference speed. */
struct Timed
{
    double wallS = 0;
    double refS = 0;
};

/** Time fn as a span, at the host speed sampled around it. */
template <class F>
Timed
measure(Recorder &rec, const char *name, F &&fn)
{
    const double before = rec.speed.scale();
    const double s = timeCall(rec.tracer, name, std::forward<F>(fn));
    return {s, s * 0.5 * (before + rec.speed.scale())};
}

struct PointResult
{
    std::string label;
    double perf = 0; ///< QPS (TPC-H) or TPS
    double mpki = 0;
    Timed host;
    uint64_t digest = 0;
    std::string error; ///< empty when the point passed every check
};

struct Pass
{
    double setupS = 0;
    std::vector<PointResult> points;
};

/** The Figure 2 ladders: cores at 40 MB, then LLC MB at 32 cores. */
template <class F>
void
forEachLadderPoint(const std::vector<int> &llc_ladder, F &&fn)
{
    for (int cores : bench::kCoreLadder)
        fn("cores=" + std::to_string(cores), cores, 40);
    for (int mb : llc_ladder)
        fn("llc=" + std::to_string(mb), 32, mb);
}

/** Time one point; a throw or a non-positive throughput fails it. */
template <class F>
PointResult
runPoint(Recorder &rec, std::string label, F &&body)
{
    PointResult pt;
    pt.label = std::move(label);
    pt.host = measure(rec, "point", [&] {
        try {
            body(pt);
        } catch (const std::exception &e) {
            pt.error = std::string("threw: ") + e.what();
        }
    });
    if (pt.error.empty() && !(std::isfinite(pt.perf) && pt.perf > 0))
        pt.error = "throughput not finite and positive";
    return pt;
}

Pass
tpchPass(uint64_t seed, Recorder &rec)
{
    Pass pass;
    std::unique_ptr<TpchDriver> driver;
    pass.setupS = timeCall(rec.tracer, "harness.tpch_driver", [&] {
        driver = std::make_unique<TpchDriver>(kTpchSf, tpchDataSeed(seed));
    });
    Tracer *tr = rec.tracer;
    const std::string sf = "TPC-H sf" + std::to_string(kTpchSf) + " ";
    forEachLadderPoint(kTpchLlcLadder, [&](const std::string &x, int cores,
                                           int mb) {
        pass.points.push_back(runPoint(rec, sf + x, [&](PointResult &pt) {
            RunConfig cfg = bench::tpchConfig();
            cfg.seed = seed;
            cfg.cores = cores;
            cfg.llcMb = mb;
            cfg.maxdop = cores; // Figure 2a; 32, the default, on the LLC ladder
            timeCall(tr, "hw.miss_rate", [&] { driver->missRate(mb); });
            TpchRunResult r;
            timeCall(tr, "harness.run_streams",
                     [&] { r = driver->runStreams(cfg, kTpchStreams); });
            Fnv h;
            for (double v : {r.qps, r.mpki, r.avgSsdReadBps,
                             r.avgSsdWriteBps, r.avgDramBps})
                h.f64(v);
            h.u64(r.queriesShed);
            h.series(r.ssdRead);
            h.series(r.ssdWrite);
            h.series(r.dram);
            pt.perf = r.qps;
            pt.mpki = r.mpki;
            pt.digest = h.value();
        }));
    });
    return pass;
}

Pass
oltpPass(const std::vector<OltpDb> &dbs, uint64_t seed, Recorder &rec)
{
    Pass pass;
    for (const OltpDb &spec : dbs) {
        std::unique_ptr<OltpWorkload> wl;
        std::unique_ptr<Database> db;
        pass.setupS += timeCall(rec.tracer, "workloads.generate", [&] {
            wl = bench::makeOltpWorkload(spec.name, spec.sf);
            db = wl->generate(seed);
        });
        const std::string prefix =
            std::string(spec.name) + " sf" + std::to_string(spec.sf) + " ";
        forEachLadderPoint(bench::llcLadder(), [&](const std::string &x,
                                                   int cores, int mb) {
            pass.points.push_back(runPoint(
                rec, prefix + x, [&](PointResult &pt) {
                    RunConfig cfg = bench::oltpConfig();
                    cfg.seed = seed;
                    cfg.cores = cores;
                    cfg.llcMb = mb;
                    Fnv h;
                    cfg.phaseAudit = [&](SimRun &run, int) {
                        h.str(run.stats.toJson().dump());
                        if (rec.audit)
                            rec.audit->add(run);
                    };
                    OltpRunResult r;
                    timeCall(rec.tracer, "harness.run_oltp",
                             [&] { r = runOltpOn(*wl, *db, cfg); });
                    for (double v :
                         {r.tps, r.qps, r.aborts, r.retries, r.giveups,
                          r.mpki, r.avgSsdReadBps, r.avgSsdWriteBps,
                          r.avgDramBps, r.recoveryMs, r.olapUsefulPerSec})
                        h.f64(v);
                    for (uint64_t v :
                         {r.lockTimeouts, r.deadlockAborts, r.txnsRetried,
                          r.txnsGivenUp, r.queriesShed, r.crashes})
                        h.u64(v);
                    h.series(r.ssdRead);
                    h.series(r.ssdWrite);
                    h.series(r.dram);
                    pt.perf = r.tps;
                    pt.mpki = r.mpki;
                    pt.digest = h.value();
                }));
        });
    }
    return pass;
}

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string reference;
    std::string outDir;
    std::string gitSha = "unknown";
    std::string sourceSha = "unknown";
};

Pass
runPass(const Options &o, Recorder &rec)
{
    const auto &dbs = kWorkloads.at(o.workload);
    return dbs.empty() ? tpchPass(o.seed, rec)
                       : oltpPass(dbs, o.seed, rec);
}

/** One set-up whose result is discarded (extra setup_s samples). */
double
setupOnly(const Options &o)
{
    const auto &dbs = kWorkloads.at(o.workload);
    const auto t0 = Clock::now();
    if (dbs.empty()) {
        TpchDriver driver(kTpchSf, tpchDataSeed(o.seed));
        return secondsSince(t0); // before the teardown, as in a pass
    }
    double s = 0;
    for (const OltpDb &spec : dbs) {
        const auto t1 = Clock::now();
        auto wl = bench::makeOltpWorkload(spec.name, spec.sf);
        auto db = wl->generate(o.seed);
        s += secondsSince(t1);
    }
    return s;
}

/** Sum over points of each point's median time across the passes. */
template <class F>
double
sumOfPointMedians(const std::vector<Pass> &passes, F &&time_of)
{
    double s = 0;
    for (size_t i = 0; i < passes[0].points.size(); ++i) {
        std::vector<double> t;
        for (const Pass &p : passes)
            t.push_back(time_of(p.points[i]));
        s += median(t);
    }
    return s;
}

/** Fail points whose digest differs from `expected` (label, digest). */
void
checkDigests(Pass &p,
             const std::vector<std::pair<std::string, uint64_t>> &expected,
             const char *what)
{
    for (size_t i = 0; i < p.points.size(); ++i) {
        PointResult &pt = p.points[i];
        if (!pt.error.empty())
            continue;
        if (i >= expected.size() || expected[i].first != pt.label)
            pt.error = std::string("no ") + what + " digest";
        else if (expected[i].second != pt.digest)
            pt.error = std::string("digest differs from ") + what;
    }
}

std::vector<std::pair<std::string, uint64_t>>
digestsOf(const Pass &p)
{
    std::vector<std::pair<std::string, uint64_t>> d;
    for (const PointResult &pt : p.points)
        d.emplace_back(pt.label, pt.digest);
    return d;
}

/**
 * reference.json holds the default seed's digests:
 * {"workloads": {name: [[label, hex], ...]}}.
 */
std::vector<std::pair<std::string, uint64_t>>
loadReference(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    if (!in)
        fatal("perfbench: cannot read reference " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    const Json ref = Json::parse(ss.str(), &err);
    if (!ref.isObject() || !ref.contains("workloads"))
        fatal("perfbench: bad reference " + path + " " + err);
    std::vector<std::pair<std::string, uint64_t>> out;
    if (!ref.at("workloads").contains(workload))
        return out; // every point then fails with "no reference digest"
    for (const Json &e : ref.at("workloads").at(workload).items())
        out.emplace_back(e.at(size_t(0)).asString(),
                         std::stoull(e.at(size_t(1)).asString(), nullptr,
                                     16));
    return out;
}

Json
provenance(const Options &o)
{
    Json j = Json::object();
    j["git_sha"] = Json(o.gitSha);
    j["source_sha256"] = Json(o.sourceSha);
    j["compiler"] = Json(__VERSION__);
    j["build_type"] = Json(PERFBENCH_BUILD_TYPE);
    j["cxx_flags"] = Json(PERFBENCH_CXX_FLAGS);
#ifdef __OPTIMIZE__
    j["optimized"] = Json(true);
#else
    j["optimized"] = Json(false);
#endif
#ifdef NDEBUG
    j["ndebug"] = Json(true);
#else
    j["ndebug"] = Json(false);
#endif
    j["host_cores"] = Json(int(std::thread::hardware_concurrency()));
    return j;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
residentMb()
{
    long pages = 0, resident = 0;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

void
metric(Json &metrics, const std::string &name, double value,
       const char *unit)
{
    metrics[name]["value"] = Json(value);
    metrics[name]["unit"] = Json(unit);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            fatal("perfbench: missing value for " + a);
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--reference")
            o.reference = v;
        else if (a == "--out-dir")
            o.outDir = v;
        else if (a == "--git-sha")
            o.gitSha = v;
        else if (a == "--source-sha")
            o.sourceSha = v;
        else
            fatal("perfbench: unknown argument " + a);
    }
    if (!kWorkloads.count(o.workload))
        fatal("perfbench: unknown workload '" + o.workload + "'");
    return o;
}

int
run(const Options &o)
{
    const auto start = Clock::now();
    // The kernel's own memory is not the workload's: leave it out of
    // peak_rss_mb.
    const double rss_before_kernel = residentMb();
    HostSpeed speed;
    const double kernel_mb = residentMb() - rss_before_kernel;
    Recorder untraced{speed};

    std::vector<Pass> passes;
    passes.push_back(runPass(o, untraced));
    // Peak of one set-up + sweep: later passes and extra set-ups would
    // add allocator growth that depends on how many fit in --seconds.
    const double peak_rss_mb = peakRssMb() - kernel_mb;
    const auto first = digestsOf(passes[0]);
    if (o.seed == kDefaultSeed && !o.reference.empty())
        checkDigests(passes[0], loadReference(o.reference, o.workload),
                     "reference");

    Json metrics = Json::object();
    Json report = Json::object();
    report["workload"] = Json(o.workload);
    report["seed"] = Json(o.seed);
    report["trace"] = Json(o.trace);
    report["provenance"] = provenance(o);
    Tracer tracer;
    if (!o.trace) {
        std::vector<double> setups = {passes[0].setupS};
        const double pass_s = secondsSince(start);
        while (secondsSince(start) + pass_s <= o.seconds) {
            passes.push_back(runPass(o, untraced));
            checkDigests(passes.back(), first, "first pass");
            setups.push_back(passes.back().setupS);
        }
        while (int(setups.size()) < kMinSetups)
            setups.push_back(setupOnly(o));
        metric(metrics, "sweep_s",
               sumOfPointMedians(
                   passes, [](const PointResult &p) { return p.host.refS; }),
               "s");
        metric(metrics, "setup_s", median(setups), "s");
        metric(metrics, "peak_rss_mb", peak_rss_mb, "MB");
        report["sweep_wall_s"] = Json(sumOfPointMedians(
            passes, [](const PointResult &p) { return p.host.wallS; }));
    } else {
        AuditCounts audit;
        Recorder traced{speed, &tracer, &audit};
        passes.push_back(runPass(o, traced));
        checkDigests(passes.back(), first, "untraced pass");
        const bool tpch = kWorkloads.at(o.workload).empty();
        metric(metrics, "workloads.generate_s",
               tracer.totalS("workloads.generate"), "s");
        metric(metrics, "harness.tpch_driver_s",
               tracer.totalS("harness.tpch_driver"), "s");
        metric(metrics, "hw.miss_rate_s", tracer.totalS("hw.miss_rate"),
               "s");
        metric(metrics, "harness.run_streams_s",
               tracer.totalS("harness.run_streams"), "s");
        const double run_oltp_s = tracer.totalS("harness.run_oltp");
        metric(metrics, "harness.run_oltp_s", run_oltp_s, "s");
        metric(metrics, "harness.slowest_point_s", tracer.maxS("point"),
               "s");
        metric(metrics, "sim.events", double(audit.events), "count");
        metric(metrics, "hw.llc_accesses", double(audit.llcAccesses),
               "count");
        metric(metrics, "hw.llc_miss_ratio",
               audit.llcAccesses ? double(audit.llcMisses) /
                                       double(audit.llcAccesses)
                                 : 0.0,
               "ratio");
        metric(metrics, "engine.txns_committed",
               double(audit.txnsCommitted), "count");
        metric(metrics, "engine.queries_completed",
               double(audit.queriesCompleted), "count");
        metric(metrics, "storage.bufferpool_misses",
               double(audit.bufferpoolMisses), "count");
        metric(metrics, "txn.wal_flushes", double(audit.walFlushes),
               "count");
        metric(metrics, "txn.lock_waits", double(audit.lockWaits),
               "count");
        // runStreams has no hook: TPC-H event counts are not readable.
        metric(metrics, "harness.host_us_per_event",
               !tpch && audit.events
                   ? run_oltp_s * 1e6 / double(audit.events)
                   : 0.0,
               "us");
        Json probes = Json::object();
        for (const Probe &p : runProbes()) {
            metric(metrics, p.metric, p.value, p.unit.c_str());
            probes[p.metric] = p.input;
        }
        report["probe_inputs"] = std::move(probes);
        // Both passes at reference speed, so a host slow spell during
        // one of them does not read as tracing cost.
        auto ref = [](const Pass &p) {
            double s = 0;
            for (const PointResult &pt : p.points)
                s += pt.host.refS;
            return s;
        };
        metric(metrics, "trace_overhead", ref(passes[1]) / ref(passes[0]),
               "ratio");
    }

    uint64_t attempted = 0, failed = 0;
    Json pass_wall = Json::array();
    for (const Pass &p : passes) {
        double wall = 0;
        for (const PointResult &pt : p.points) {
            wall += pt.host.wallS;
            ++attempted;
            if (!pt.error.empty()) {
                ++failed;
                std::printf("FAILED %s: %s\n", pt.label.c_str(),
                            pt.error.c_str());
            }
        }
        pass_wall.push(Json(wall));
    }
    // Per-point table of the first pass (QPS/TPS and MPKI as Fig 2).
    Json digests = Json::array();
    for (const PointResult &pt : passes[0].points) {
        std::printf("%-24s perf=%-14.6f mpki=%-10.6f wall_s=%-9.4f "
                    "ref_s=%-9.4f %s\n",
                    pt.label.c_str(), pt.perf, pt.mpki, pt.host.wallS,
                    pt.host.refS, hex(pt.digest).c_str());
        Json e = Json::array();
        e.push(Json(pt.label));
        e.push(Json(hex(pt.digest)));
        digests.push(std::move(e));
    }
    report["pass_wall_s"] = std::move(pass_wall);
    report["digests"] = std::move(digests);
    report["metrics"] = metrics;

    if (!o.outDir.empty()) {
        const std::string base = o.outDir + "/" + o.workload + "-seed" +
                                 std::to_string(o.seed) + "-trace" +
                                 (o.trace ? "1" : "0");
        report.writeFile(base + ".report.json");
        if (o.trace)
            tracer.chromeTrace().writeFile(base + ".spans.json", -1);
    }
    Json rep_line = Json::object();
    rep_line["report"] = std::move(report);
    std::printf("%s\n", rep_line.dump().c_str());

    Json result = Json::object();
    result["correct"] = Json(failed == 0);
    result["attempted"] = Json(attempted);
    result["failed"] = Json(failed);
    result["metrics"] = std::move(metrics);
    std::printf("%s\n", result.dump().c_str());
    return 0;
}

} // namespace
} // namespace perfbench
} // namespace dbsens

int
main(int argc, char **argv)
{
    using namespace dbsens::perfbench;
    return run(parseArgs(argc, argv));
}
