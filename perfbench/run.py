#!/usr/bin/env python3
"""Repository benchmark: builds the program from source, runs a workload in
a fresh process, checks its correctness gate and prints the metrics.

  python3 perfbench/run.py --workload metal-n4 --seed 3 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 3      # every workload, timed
                                                        # and traced
  python3 perfbench/run.py --selftest                   # statistics self-test

With --trace 0 the last stdout line is one JSON object holding every
end-to-end metric of BENCHMARK.json; with --trace 1 it holds every per-layer
metric, from a timed run (counters, probes) plus one traced run. A run that
fails its correctness gate exits 1 without printing a result. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("metal-n4", "metal-n4-4k", "sim-n40")
# Every workload process of one invocation, after the build, shares this.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 900


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once and builds the benchmark package over ../src."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("program sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", "4", "--target",
                  "perfbench_workload", "perfbench_workload_traced",
                  "perfbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_json(cmd, deadline):
    """Runs one workload process; returns its JSON result line."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError("no result from: " + " ".join(cmd))
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result.get("correct"):
        raise BenchError("correctness gate failed (%s): %s" % (
            result.get("workload"), "; ".join(result.get("errors", []))))
    return result


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_fingerprint(bdir, result):
    """sim-n40's committed ops, height and events at the warm-up cut-off
    must repeat for every run of one build and seed."""
    fp = result.get("fingerprint")
    if not fp:
        return
    build_id = file_sha256(os.path.join(bdir, "perfbench_workload"))
    key = "%s|%s|%s" % (build_id, result["workload"], result["seed"])
    path = os.path.join(bdir, "fingerprints.json")
    known = {}
    if os.path.isfile(path):
        with open(path) as f:
            known = json.load(f)
    if key in known and known[key] != fp:
        raise BenchError("determinism: %s seed %s gave '%s', earlier '%s'" % (
            result["workload"], result["seed"], fp, known[key]))
    known[key] = fp
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def environment(result):
    rev = "none"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "build_type": result.get("build_type"),
            "compiler": result.get("compiler"), "git_rev": rev}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def workload_cmd(bdir, traced, workload, seed, seconds, extra):
    exe = "perfbench_workload_traced" if traced else "perfbench_workload"
    return [os.path.join(bdir, exe), "--workload", workload, "--seed",
            str(seed), "--seconds", "%g" % seconds,
            "--scratch", os.path.join(bdir, "scratch")] + extra


def measure(bdir, workload, seed, seconds, trace, deadline):
    """Returns (metrics, attempted, failed, env) for one workload."""
    wanted = spec()["per_layer" if trace else "end_to_end"]
    if trace:
        # The run length is shared: half untraced (counters, probes, the
        # base of the trace overhead), half traced.
        half = seconds / 2.0
        timed = run_json(workload_cmd(bdir, False, workload, seed, half,
                                      ["--probes"]), deadline)
        traced = run_json(workload_cmd(bdir, True, workload, seed, half,
                                       ["--trace"]), deadline)
        for r in (timed, traced):
            check_fingerprint(bdir, r)
        have = dict(timed["metrics"])
        for name in ("consensus.txpool_wait_ms", "consensus.propose_to_qc_ms",
                     "consensus.qc_to_commit_ms", "runtime.reply_ms",
                     "proc.allocs_per_op", "model.queue_ms", "model.wire_ms",
                     "model.cpu_ms"):
            have[name] = traced["metrics"][name]
        base = timed["metrics"]["ops_per_s"]["value"]
        slow = traced["metrics"]["ops_per_s"]["value"]
        have["obs.trace_overhead_pct"] = {
            "value": (base - slow) / base * 100.0, "unit": "%", "samples": 2}
        attempted = timed["attempted"] + traced["attempted"]
        failed = timed["failed"] + traced["failed"]
        first = timed
    else:
        first = run_json(workload_cmd(bdir, False, workload, seed, seconds,
                                      []), deadline)
        check_fingerprint(bdir, first)
        have = first["metrics"]
        attempted, failed = first["attempted"], first["failed"]
    metrics = {}
    for m in wanted:
        if m["name"] not in have:
            raise BenchError("%s: metric %s missing" % (workload, m["name"]))
        got = have[m["name"]]
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"],
                              "samples": got.get("samples", 0)}
    return metrics, attempted, failed, environment(first)


def print_table(title, metrics):
    print("== %s" % title)
    for name, m in metrics.items():
        samples = " (n=%d)" % m["samples"] if m["samples"] else ""
        print("  %-36s %16.6g %-6s%s" % (name, m["value"], m["unit"], samples))


def strip(metrics):
    return {k: {"value": v["value"], "unit": v["unit"]}
            for k, v in metrics.items()}


def selftest(bdir):
    proc = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=60)
    if proc.returncode != 0:
        log(proc.stdout)
        raise BenchError("benchmark self-test failed")
    log(proc.stdout.strip())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        seconds = args.seconds or spec()["run_seconds"]
        bdir = build_dir()
        build(bdir)
        selftest(bdir)
        if args.selftest:
            return 0
        if args.workload != "all":
            deadline = time.monotonic() + RUN_BUDGET_S
            metrics, attempted, failed, env = measure(
                bdir, args.workload, args.seed, seconds, args.trace == 1,
                deadline)
            print_table("%s seed=%d trace=%d" % (args.workload, args.seed,
                                                 args.trace), metrics)
            print("# env " + json.dumps(dict(env, seed=args.seed)))
            print(json.dumps({"correct": True, "attempted": attempted,
                              "failed": failed, "metrics": strip(metrics)}))
            return 0
        # Every workload, each timed and traced in fresh processes.
        total = {"attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            for trace in (False, True):
                metrics, attempted, failed, env = measure(
                    bdir, w, args.seed, seconds, trace,
                    time.monotonic() + RUN_BUDGET_S)
                print_table("%s seed=%d %s" % (
                    w, args.seed, "traced (per layer)" if trace else
                    "timed (end to end)"), metrics)
                total["attempted"] += attempted
                total["failed"] += failed
                for k, v in strip(metrics).items():
                    total["metrics"]["%s/%s" % (w, k)] = v
        print("# env " + json.dumps(dict(env, seed=args.seed)))
        print(json.dumps(dict(total, correct=True)))
        return 0
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
