#!/usr/bin/env python3
"""Repository benchmark: host speed of the LogTM-SE simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the simulator sources in src/) with CMake, runs
the workload's closed loop for S seconds through perfbench_driver,
checks every pass for correctness, and prints one line per metric
followed by one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones (a traced run plus the perfbench_layers
fixtures). Every result is also written, with the host fingerprint, to
.perfbench/results/. See perfbench/BENCHMARK.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("paper_table2", "smt256_wide", "hot_counters",
             "campaign_engines")
PAPER_BENCHES = ("BerkeleyDB", "Cholesky", "Radiosity", "Raytrace", "Mp3d")
# Contexts per core and signature of each workload's machine: they
# select the fixtures behind the tm and sig layers' shares.
SMT = {"paper_table2": 2, "smt256_wide": 8, "hot_counters": 2,
       "campaign_engines": 2}
SIG = {"paper_table2": "bs2048", "smt256_wide": "bs2048",
       "hot_counters": "bs2048", "campaign_engines": "perfect"}
CAMPAIGN_WORKERS = 2
# Each driver run must end well inside the harness's 180 s limit.
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- build

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then bring both programs up to date."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "perfbench_layers", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "perfbench_layers"))


# ---------------------------------------------------------- fingerprint

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """sha256 over src/ and perfbench/: names the code under test when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(driver):
    res = subprocess.run([driver, "--fingerprint"], capture_output=True,
                         text=True, timeout=30)
    if res.returncode != 0:
        fail("driver --fingerprint failed")
    fp = json.loads(res.stdout)
    fp.update({
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    })
    return fp


# ---------------------------------------------------------- statistics

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summary(values):
    """Median, plus the highest percentile with >= 10 samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    for level in TAIL_LEVELS:
        if n * (1 - level / 100.0) >= 10:
            idx = min(n - 1, int(round(level / 100.0 * (n - 1))))
            out["tail"] = {"p": level, "value": vals[idx]}
            break
    return out


def med(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------- running

def run_driver(driver, args, trace):
    os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
    scratch = os.path.join(STATE, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scratch", scratch,
           "--size", args.size]
    if trace:
        cmd += ["--trace", "--spans", os.path.join(
            STATE, "spans", "%s-seed%d.json" % (args.workload, args.seed))]
    if args.plant_digest_mismatch:
        cmd.append("--plant-digest-mismatch")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if res.returncode != 0:
        fail("driver exited with %d" % res.returncode)
    records = [json.loads(line) for line in res.stdout.splitlines() if line]
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r)
    if not by_kind.get("warmup") or not by_kind.get("pass") or \
            not by_kind.get("end"):
        fail("driver output incomplete")
    return by_kind


def gate(recs):
    """Correctness gate. Returns (attempted, failed, failure notes).

    A pass fails when the driver reports a failed check or when its
    simulated-statistics digest differs from the warm-up pass of the
    same workload and seed; every simulation (campaign: job) of a
    failed pass counts as failed."""
    ref = recs["warmup"][0]["digest"]
    attempted = failed = 0
    notes = list(recs["warmup"][0]["failures"])
    if recs["warmup"][0]["failed"]:
        notes.append("warm-up pass failed a check")
    for p in recs["pass"]:
        attempted += p["attempted"]
        if p["digest"] != ref:
            failed += p["attempted"]
            notes.append("pass %d: digest %s != %s" %
                         (p["index"], p["digest"], ref))
        else:
            failed += p["failed"]
            notes.extend(p["failures"])
    for t in recs.get("trace", []):
        if not t["replay_ok"]:
            failed += 1
            notes.append("warm cache replay differs from the cold campaign")
    if notes and failed == 0:
        failed = 1
    return attempted, failed, notes


def end_to_end(recs):
    passes = recs["pass"]
    m = {}
    m["sim_s"] = ([p["sim_s"] for p in passes], "s")
    m["sim_cycles_per_s"] = (
        [p["sim_cycles"] / p["sim_s"] for p in passes], "1/s")
    m["events_per_s"] = ([p["events"] / p["sim_s"] for p in passes], "1/s")
    m["setup_s"] = ([p["build_system_s"] + p["build_workload_s"]
                     for p in passes], "s")
    m["campaign_s"] = ([p["pass_s"] for p in passes], "s")
    m["peak_rss_mb"] = ([recs["end"][0]["peak_rss_mb"]], "MB")
    return m


def run_layers(layers, campaign):
    """ns/op of every fixture; the sweep fixtures only for the campaign,
    the one workload that runs the sweep layer."""
    scratch = os.path.join(STATE, "scratch")
    cmd = [layers, "--scratch", scratch, "--benchmark_format=json",
           "--benchmark_min_time=0.05"]
    if not campaign:
        cmd.append("--benchmark_filter=-^sweep")
    res = subprocess.run(
        cmd,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=120)
    if res.returncode != 0:
        fail("perfbench_layers exited with %d" % res.returncode)
    ns = {}
    for b in json.loads(res.stdout)["benchmarks"]:
        name = b["name"].split("/")[0]
        ns[name] = 1e9 / b["items_per_second"]
    return ns


def per_layer(recs, ns, workload):
    """Per-layer metrics of a traced run (see BENCHMARK.md)."""
    passes = recs["pass"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = plain[0]
    trace = recs["trace"][0]
    spans = trace["spans"]
    sim_s = med([p["sim_s"] for p in plain])
    campaign = workload == "campaign_engines"

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    m["harness.build_system_s"] = (med([p["build_system_s"] for p in plain]), "s")
    m["harness.build_workload_s"] = (med([p["build_workload_s"] for p in plain]), "s")
    m["sim.events"] = (first["events"], "count")
    m["net.messages"] = (first["messages"], "count")
    m["net.hops_per_msg"] = (ratio(first["hops"], first["messages"]), "hops/msg")
    l1 = first["l1_hits"] + first["l1_misses"]
    m["mem.l1_accesses"] = (l1, "count")
    m["mem.l1_miss_ratio"] = (ratio(first["l1_misses"], l1), "ratio")
    m["mem.dir_requests"] = (first["dir_requests"], "count")
    m["mem.dir_nack_ratio"] = (ratio(first["nacks"], first["dir_requests"]), "ratio")
    m["mem.dram_accesses"] = (first["dram"], "count")
    conflicts = first["conflicts_true"] + first["conflicts_false"]
    m["sig.false_pos_pct"] = (100.0 * ratio(first["conflicts_false"], conflicts), "%")
    calls = trace["check_remote_calls"]
    m["tm.check_remote_calls"] = (calls, "count")
    m["tm.check_remote_ns"] = (trace["check_remote_ns"], "ns")
    m["tm.check_remote_conflict_ratio"] = (
        ratio(trace["check_remote_conflicts"], calls), "ratio")
    m["tm.commits"] = (first["commits"], "count")
    m["tm.aborts"] = (first["aborts"], "count")
    m["tm.useful_ratio"] = (
        ratio(first["commits"], first["commits"] + first["aborts"]), "ratio")
    m["tm.stalls"] = (first["stalls"], "count")
    m["tm.log_records"] = (first["log_records"], "count")
    m["tm.log_filter_hit_ratio"] = (
        ratio(first["filter_hits"], first["filter_hits"] + first["log_records"]),
        "ratio")
    for name, value in sorted(ns.items()):
        m[name] = (value, "ns")
    for bench in PAPER_BENCHES:
        m["workload.sim_s." + bench] = (
            med([p["bench_sim_s"].get(bench, 0.0) for p in plain]), "s")

    jobs = first["jobs"]
    campaign_s = med([p["pass_s"] for p in plain])
    m["sweep.jobs"] = (jobs, "count")
    m["sweep.job_s"] = (med([ratio(p["job_s"], p["jobs"]) for p in plain]), "s")
    m["sweep.parallel_eff"] = (
        med([ratio(p["job_s"], p["pass_s"] * CAMPAIGN_WORKERS) for p in plain])
        if campaign else 0.0, "ratio")
    m["sweep.report_s"] = (med([p["report_s"] for p in plain]), "s")
    m["sweep.warm_replay_s"] = (trace["warm_replay_s"], "s")
    for name in ("sweep.store_write_ns", "sweep.json_parse_ns"):
        m.setdefault(name, (0.0, "ns"))

    # Where the host time goes: count x ns/op over the pass's sim_s.
    smt = SMT[workload]
    transitions = 2 * (first["commits"] + 2 * first["aborts"] + first["stalls"])
    share = {
        "harness": m["harness.build_system_s"][0] + m["harness.build_workload_s"][0],
        "sim": first["events"] * ns["sim.queue_ns"] * 1e-9,
        "net": first["messages"] * ns["net.send_ns"] * 1e-9,
        "mem": (first["l1_hits"] * ns["mem.l1_hit_ns"] +
                first["l1_misses"] * ns["mem.l1_miss_ns"] +
                first["dir_requests"] *
                0.5 * (ns["mem.dir_gets_ns"] + ns["mem.dir_getm_ns"])) * 1e-9,
        "sig": calls * smt * 2 * ns["sig.probe_ns." + SIG[workload]] * 1e-9,
        "tm": (calls * ns["tm.check_remote_ns.ctx%d" % smt] +
               first["log_records"] * ns["tm.txlog_append_ns"] +
               (first["log_records"] + first["filter_hits"]) *
               ns["tm.logfilter_ns"]) * 1e-9,
        "obs": transitions * ns["obs.acct_transition_ns"] * 1e-9,
        "sweep": m["sweep.report_s"][0] +
                 jobs * m["sweep.store_write_ns"][0] * 1e-9,
    }
    for layer, secs in share.items():
        base = campaign_s if layer == "sweep" else sim_s
        m[layer + ".est_share"] = (ratio(secs, base), "ratio")

    # Self time per traced pass, from the span totals.
    n_traced = max(1, len(traced))
    for layer in ("harness", "sim", "mem", "tm", "obs", "sweep"):
        self_s = sum(t["self_s"] for name, t in spans.items()
                     if name.startswith(layer + "."))
        m[layer + ".self_s"] = (self_s / n_traced, "s")
    traced_s = med([p["pass_s"] for p in traced])
    m["trace_overhead_pct"] = (100.0 * (ratio(traced_s, campaign_s) - 1.0), "%")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small: reduced work per pass (self-test)")
    ap.add_argument("--plant-digest-mismatch", action="store_true",
                    help="corrupt one pass digest (self-test of the gate)")
    args = ap.parse_args()

    t0 = time.time()
    driver, layers = build()
    fp = fingerprint(driver)
    recs = run_driver(driver, args, args.trace)
    attempted, failed, notes = gate(recs)

    metrics = {}
    report = {}
    if args.trace:
        ns = run_layers(layers, args.workload == "campaign_engines")
        layer_metrics = per_layer(recs, ns, args.workload)
        layer_metrics["fail_ratio"] = (failed / attempted, "ratio")
        for name, (value, unit) in layer_metrics.items():
            metrics[name] = {"value": value, "unit": unit}
            print("%-34s %16.6g %s" % (name, value, unit))
    else:
        for name, (values, unit) in end_to_end(recs).items():
            s = summary(values)
            metrics[name] = {"value": s["median"], "unit": unit}
            report[name] = s
            tail = ("p%g %.6g" % (s["tail"]["p"], s["tail"]["value"])
                    if "tail" in s else "tail n/a (<20 samples)")
            print("%-18s %14.6g %-4s median of %d; %s" %
                  (name, s["median"], unit, s["n"], tail))
    for t in recs.get("trace", []):
        print("spans: %d kept in %s, %d more counted in the totals only" % (
            t["stored_spans"], os.path.relpath(t["spans_file"], ROOT),
            t["dropped_spans"]))
    print("fail_ratio %d/%d; simulated digest %s; %s" % (
        failed, attempted, recs["warmup"][0]["digest"],
        "model not validated against hardware: no accuracy figure"))
    for note in notes:
        print("check failed: " + note)

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump({"fingerprint": fp, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "size": args.size, "trace": args.trace,
                   "wall_s": time.time() - t0, "summary": report,
                   "digest": recs["warmup"][0]["digest"],
                   "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
