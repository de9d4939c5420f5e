#!/bin/bash
# Regenerate every paper table and figure (DESIGN.md Section 4).
#
#   ./run_benches.sh            all paper benches
#   ./run_benches.sh wallclock  host wall-clock bench -> BENCH_wallclock.json
#   ./run_benches.sh report     all paper benches with --json, merged
#                               into BENCH_report.json (+ reports/*.json)
#   ./run_benches.sh fig13      full-scale fleet chaos sweep
#                               -> reports/bench_fig13_fleet.json
#   ./run_benches.sh fig14      full-scale sketch skew x budget sweep
#                               -> reports/bench_fig14_sketch.json
set -u
cd "$(dirname "$0")"

PAPER_BENCHES="bench_table2_sizes bench_table3_waits \
    bench_fig2_cores_cache bench_table4_sufficient_llc \
    bench_fig3_bandwidth bench_fig4_cdf \
    bench_fig5_readbw bench_fig6_maxdop \
    bench_fig7_plans bench_fig8_memgrant \
    bench_fig9_faults bench_pitfalls bench_ablation"

# bench_fig10_autopilot runs three full HTAP arms plus an oracle
# sweep, and bench_fig11_attribution runs two (static + probing);
# --small keeps the script's runtime sane. Drop the flag for the
# paper-scale numbers.
FIG10="bench_fig10_autopilot --small"
FIG11="bench_fig11_attribution --small"
FIG12="bench_fig12_resilience --small"
FIG13="bench_fig13_fleet --small"
FIG14="bench_fig14_sketch --small"

if [ "${1:-}" = "fig13" ]; then
    # Full-scale fleet sweep (node count x crash intensity); the
    # verdict gates on zero consistency violations and 100% in-doubt
    # resolution, so a non-zero exit here is a correctness bug.
    mkdir -p reports
    build/bench/bench_fig13_fleet --json reports/bench_fig13_fleet.json \
        || echo "BENCH FAILED: bench_fig13_fleet" >&2
    exit 0
fi

if [ "${1:-}" = "fig14" ]; then
    # Full-scale sketch backbone sweep; the verdict gates on the
    # sketch-vs-oracle plan flips, the analytic error bounds, and the
    # monotone resize curve, so a non-zero exit here is a bug.
    mkdir -p reports
    build/bench/bench_fig14_sketch --json reports/bench_fig14_sketch.json \
        || echo "BENCH FAILED: bench_fig14_sketch" >&2
    exit 0
fi

if [ "${1:-}" = "wallclock" ]; then
    build/bench/bench_wallclock > BENCH_wallclock.json \
        || echo "BENCH FAILED: bench_wallclock" >&2
    cat BENCH_wallclock.json
    exit 0
fi

if [ "${1:-}" = "report" ]; then
    # Run every paper bench with --json and collect the per-bench
    # reports into one BENCH_report.json (next to BENCH_wallclock.json
    # from the wallclock mode).
    mkdir -p reports
    collected=""
    for b in $PAPER_BENCHES; do
        echo ""
        echo "##### $b (--json) #####"
        if "build/bench/$b" --json "reports/$b.json"; then
            collected="$collected reports/$b.json"
        else
            echo "BENCH FAILED: $b" >&2
        fi
    done
    echo ""
    echo "##### bench_fig10_autopilot (--small --json) #####"
    # shellcheck disable=SC2086
    if build/bench/$FIG10 --json reports/bench_fig10_autopilot.json; then
        collected="$collected reports/bench_fig10_autopilot.json"
    else
        echo "BENCH FAILED: bench_fig10_autopilot" >&2
    fi
    echo ""
    echo "##### bench_fig11_attribution (--small --json) #####"
    # shellcheck disable=SC2086
    if build/bench/$FIG11 --json reports/bench_fig11_attribution.json; then
        collected="$collected reports/bench_fig11_attribution.json"
    else
        echo "BENCH FAILED: bench_fig11_attribution" >&2
    fi
    echo ""
    echo "##### bench_fig12_resilience (--small --json) #####"
    # shellcheck disable=SC2086
    if build/bench/$FIG12 --json reports/bench_fig12_resilience.json; then
        collected="$collected reports/bench_fig12_resilience.json"
    else
        echo "BENCH FAILED: bench_fig12_resilience" >&2
    fi
    echo ""
    echo "##### bench_fig13_fleet (--small --json) #####"
    # shellcheck disable=SC2086
    if build/bench/$FIG13 --json reports/bench_fig13_fleet.json; then
        collected="$collected reports/bench_fig13_fleet.json"
    else
        echo "BENCH FAILED: bench_fig13_fleet" >&2
    fi
    echo ""
    echo "##### bench_fig14_sketch (--small --json) #####"
    # shellcheck disable=SC2086
    if build/bench/$FIG14 --json reports/bench_fig14_sketch.json; then
        collected="$collected reports/bench_fig14_sketch.json"
    else
        echo "BENCH FAILED: bench_fig14_sketch" >&2
    fi
    # shellcheck disable=SC2086
    build/tools/report_tool merge BENCH_report.json $collected
    exit 0
fi

for b in $PAPER_BENCHES; do
    echo ""
    echo "##### build/bench/$b #####"
    "build/bench/$b" || echo "BENCH FAILED: $b"
done
echo ""
echo "##### build/bench/$FIG10 #####"
# shellcheck disable=SC2086
build/bench/$FIG10 || echo "BENCH FAILED: bench_fig10_autopilot"
echo ""
echo "##### build/bench/$FIG11 #####"
# shellcheck disable=SC2086
build/bench/$FIG11 || echo "BENCH FAILED: bench_fig11_attribution"
echo ""
echo "##### build/bench/$FIG12 #####"
# shellcheck disable=SC2086
build/bench/$FIG12 || echo "BENCH FAILED: bench_fig12_resilience"
echo ""
echo "##### build/bench/$FIG13 #####"
# shellcheck disable=SC2086
build/bench/$FIG13 || echo "BENCH FAILED: bench_fig13_fleet"
echo ""
echo "##### build/bench/$FIG14 #####"
# shellcheck disable=SC2086
build/bench/$FIG14 || echo "BENCH FAILED: bench_fig14_sketch"
