#!/usr/bin/env python3
"""Compare benchmark results, only between results from the same host.

    python3 perfbench/compare.py spread --workload W [--seeds 10]
            [--first-seed 1] [--seconds S] [--out FILE] [--against FILE]
    python3 perfbench/compare.py diff A.json B.json

`spread` runs perfbench/run.py once per seed (tracing off) and reports,
for each end-to-end metric, the median and the distance between the
first and third quartile as a share of the median, against the
metric's bound in BENCHMARK.json. With --against it also checks that no
median is worse than the earlier spread file's by more than the bound.

`diff` compares two result files that run.py wrote to
.perfbench/results/.

Both refuse (exit 3) to compare results whose host fingerprints (CPU
model, usable cores, compiler, build type) differ: numbers from two
hosts are not comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_FIELDS = ("cpu_model", "nproc", "compiler", "build_type")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}, spec["run_seconds"]


def host(fp):
    return {k: fp.get(k) for k in HOST_FIELDS}


def require_same_host(a, b):
    if host(a) != host(b):
        print("refusing to compare results from different hosts:\n  %s\n  %s"
              % (host(a), host(b)), file=sys.stderr)
        sys.exit(3)


def worse_by(metric, old, new):
    """Share by which @new is worse than @old (negative: better)."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def spread(args):
    metrics, run_seconds = load_spec()
    seconds = args.seconds or run_seconds
    values = {name: [] for name in metrics}
    fp = None
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
        lines = res.stdout.strip().splitlines()
        if not lines:
            print("seed %d: no result (exit %d)" % (seed, res.returncode))
            failed += 1
            continue
        result = json.loads(lines[-1])
        path = os.path.join(ROOT, ".perfbench", "results",
                            "%s-seed%d-trace0.json" % (args.workload, seed))
        with open(path) as f:
            this_fp = json.load(f)["fingerprint"]
        if fp is None:
            fp = this_fp
        require_same_host(fp, this_fp)
        if not result["correct"]:
            failed += 1
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: correct=%s %s" % (seed, result["correct"], " ".join(
            "%s=%.5g" % (n, result["metrics"][n]["value"]) for n in metrics)),
            flush=True)

    ok = failed == 0
    summary = {}
    print("\n%-18s %12s %9s %7s %6s" % ("metric", "median", "iqr/med",
                                         "bound", "verdict"))
    for name, m in metrics.items():
        vals = values[name]
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / q2 if q2 else 0.0
        if name == "setup_s":
            verdict = "exempt"
        elif share < m["bound"] / 3:
            verdict = "steady"
        elif share <= m["bound"]:
            verdict = "within"
        else:
            verdict = "WIDE"
            ok = False
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": share,
                         "values": vals}
        print("%-18s %12.6g %9.4f %7.3f %6s" % (name, q2, share,
                                                m["bound"], verdict))

    if args.against:
        with open(args.against) as f:
            old = json.load(f)
        require_same_host(old["fingerprint"], fp)
        print("\nagainst %s:" % args.against)
        for name, m in metrics.items():
            w = worse_by(m, old["metrics"][name]["median"],
                         summary[name]["median"])
            bad = w > m["bound"]
            ok = ok and not bad
            print("%-18s worse by %+.4f (bound %.3f) %s" % (
                name, w, m["bound"], "REGRESSED" if bad else "ok"))

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"fingerprint": fp, "workload": args.workload,
                       "seconds": seconds, "failed_runs": failed,
                       "metrics": summary}, f, indent=1, sort_keys=True)
    return 0 if ok else 1


def diff(args):
    metrics, _ = load_spec()
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    require_same_host(a["fingerprint"], b["fingerprint"])
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("results are of different workloads or trace modes",
              file=sys.stderr)
        return 3
    ok = True
    for name, old in sorted(a["result"]["metrics"].items()):
        new = b["result"]["metrics"].get(name)
        if new is None:
            continue
        m = metrics.get(name)
        if m is None:
            print("%-34s %14.6g -> %-14.6g" % (name, old["value"],
                                                new["value"]))
            continue
        w = worse_by(m, old["value"], new["value"])
        bad = w > m["bound"]
        ok = ok and not bad
        print("%-34s %14.6g -> %-14.6g worse by %+.4f (bound %.3f) %s" % (
            name, old["value"], new["value"], w, m["bound"],
            "REGRESSED" if bad else "ok"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", type=int, default=10)
    sp.add_argument("--first-seed", type=int, default=1)
    sp.add_argument("--seconds", type=int, default=0,
                    help="default: run_seconds from BENCHMARK.json")
    sp.add_argument("--out")
    sp.add_argument("--against")
    dp = sub.add_parser("diff")
    dp.add_argument("a")
    dp.add_argument("b")
    args = ap.parse_args()
    return spread(args) if args.cmd == "spread" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
