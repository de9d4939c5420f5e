#!/usr/bin/env python3
"""Self-test of the Figure 2 sweep benchmark (about two minutes).

usage (from the repository root): python3 perfbench/selftest.py

Checks that:
  - every metric name and unit the benchmark prints matches
    BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1);
  - a traced run's digests equal its untraced pass (correct, 0 failed);
  - a corrupted reference digest turns exactly those points into failures;
  - an unknown workload exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD = "htap_sweep"  # the cheapest workload with every counter


def run(*args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--seconds", "1", *args],
                         capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


def result_of(*args):
    code, lines = run(*args)
    if code != 0 or not lines:
        check(False, f"run {args} exited {code}")
    return json.loads(lines[-1])


def check(ok, what):
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok  {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(sorted(w["name"] for w in spec["workloads"]) ==
          ["htap_sweep", "oltp_sweep", "tpch_sweep"],
          "BENCHMARK.json names the three workloads")

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = result_of("--workload", WORKLOAD, "--trace", str(trace))
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == want, f"--trace {trace} prints exactly the {key} "
              "metrics with their units")
        check(res["correct"] and res["failed"] == 0 and
              res["attempted"] >= 1,
              f"--trace {trace} run is correct (digests match)")

    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    points = ref["workloads"][WORKLOAD]
    corrupt = (0, len(points) - 1)
    for i in corrupt:
        digest = points[i][1]
        points[i][1] = ("0" if digest[0] != "0" else "1") + digest[1:]
    bad_ref = os.path.join(ROOT, ".bench_build", "selftest-reference.json")
    with open(bad_ref, "w") as f:
        json.dump(ref, f)
    res = result_of("--workload", WORKLOAD, "--reference", bad_ref)
    check(not res["correct"] and res["failed"] == len(corrupt),
          f"{len(corrupt)} corrupted reference digests fail "
          f"{len(corrupt)} points (got {res['failed']})")

    code, lines = run("--workload", "no_such_workload")
    check(code != 0 and not (lines and lines[-1].startswith('{"correct"')),
          "unknown workload exits non-zero without a result")


if __name__ == "__main__":
    main()
