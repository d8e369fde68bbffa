#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a small size through perfbench/run.py, with
tracing off and on, and checks that each run passes its correctness
gate and emits exactly the metrics BENCHMARK.json names. Then plants a
digest mismatch in one pass and checks that the gate trips: the run
must report correct=false, count the failed pass and exit non-zero.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "small"] + list(extra)
    res = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = res.stdout.strip().splitlines()
    return res.returncode, (json.loads(lines[-1]) if lines else None), \
        res.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            problems.append(what)

    for w in spec["workloads"]:
        for trace in (0, 1):
            code, result, _ = run(w["name"], trace)
            label = "%s trace=%d" % (w["name"], trace)
            if result is None:
                check(False, label + ": no result (exit %d)" % code)
                continue
            check(code == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, label + ": gate passes")
            check(set(result["metrics"]) == want[trace],
                  label + ": emits exactly the named metrics")
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      label + ": every end-to-end metric is nonzero")

    code, result, out = run("hot_counters", 0, "--plant-digest-mismatch")
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] >= 1 and "digest" in out,
          "planted digest mismatch trips the gate")

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
