#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload dist-real --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See perfbench/README.md for the workloads, the metrics and the rules.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
WORKLOADS = ("dist-real", "serve-mix", "ckpt-real")
# Host lanes for every workload: Cluster host threads, the shared
# pool and the GEMM lanes. Two keep the thread layer visible and stay
# within a 4-vCPU host with headroom.
THREADS = "2"
# An untraced run splits its window over TIMED_PROCESSES harness
# processes and runs SETUP_PER_ROUND set-up-only processes after each,
# so the set-up samples spread over the whole run instead of sharing
# one stretch of host noise, and each follows the same busy stretch.
# setup_s is the median of all of them.
TIMED_PROCESSES = 3
SETUP_PER_ROUND = 4


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from a full checkout")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench_harness", "perfbench_selftest"],
                   stdout=sys.stderr, env=env, check=True)


def clean_env(trace_dir=None):
    """Environment without any behaviour-changing FOURINDEX_* variable."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FOURINDEX_")}
    env["FOURINDEX_THREADS"] = THREADS
    if trace_dir:
        env["FOURINDEX_TRACE_DIR"] = trace_dir
    return env


def harness(args, seconds, env):
    cmd = [HARNESS] + args
    try:
        out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             timeout=seconds + 120, check=False)
    except subprocess.TimeoutExpired:
        fail("harness timed out: " + " ".join(cmd))
    if out.returncode != 0:
        fail("harness exited %d: %s" % (out.returncode, " ".join(cmd)))
    lines = out.stdout.decode().strip().splitlines()
    if not lines:
        fail("harness printed nothing: " + " ".join(cmd))
    return json.loads(lines[-1])


def run_harness(workload, seed, seconds, traced=False, setup_only=False):
    """One harness process in its own scratch directory."""
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    if traced:
        scratch = os.path.join(BUILD, "traces", "%s-seed%d" % (workload, seed))
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
    else:
        scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "runs"))
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--scratch", scratch,
            "--costs", os.path.join("perfbench", "costs.json")]
    if setup_only:
        args.append("--setup-only")
    if traced:
        args.append("--trace")
    # The GEMM kernel trace only on the Real workloads: the service's
    # internal clusters would record millions of link spans.
    kernel_trace = traced and workload != "serve-mix"
    try:
        doc = harness(args, seconds, clean_env(scratch if kernel_trace else None))
    finally:
        if not traced:
            shutil.rmtree(scratch, ignore_errors=True)
    doc["scratch"] = scratch
    return doc


def kernel_trace_metrics(doc):
    """blas.blocked_call_share and blas.kernel_busy_share from the
    packed-path GEMM spans that fall inside the timed ops."""
    scratch = doc["scratch"]
    with open(os.path.join(scratch, "spans.json")) as f:
        spans = json.load(f)["spans"]
    with open(os.path.join(scratch, "gemm_kernels.trace.json")) as f:
        events = json.load(f)["traceEvents"]
    windows = sorted((s["start"], s["end"]) for s in spans
                     if s["op"] >= 0 and s["parent"] < 0)
    busy = sum(e - s for s, e in windows)
    kernels, kernel_s = 0, 0.0
    for ev in events:
        if ev.get("ph") != "X":
            continue
        t = ev["ts"] / 1e6
        if any(s <= t <= e for s, e in windows):
            kernels += 1
            kernel_s += ev["dur"] / 1e6
    calls = doc["metrics"]["blas.calls_timed"]
    return {
        "blas.blocked_call_share": kernels / calls if calls else 0.0,
        "blas.kernel_busy_share": kernel_s / (busy * int(THREADS)) if busy else 0.0,
    }


def print_settings(doc):
    items = " ".join("%s=%s" % kv for kv in doc["settings"].items())
    print("settings[%s %s]: %s" % (doc["workload"], doc["mode"], items))


def percentile(values, q):
    """Linear interpolation between order statistics, as the harness."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def pooled(docs):
    """Metrics of the timed processes of one run, pooled: end-to-end
    ones on the process CPU clock, and the wall-clock view."""
    def flat(key):
        return [x for d in docs for xs in d[key].values() for x in xs]
    cpu, wall = flat("cpu_ms"), flat("latencies_ms")
    window = sum(d["window_s"] for d in docs)
    window_cpu = sum(d["window_cpu_s"] for d in docs)
    tail = docs[0]["tail_q"]
    return {
        "ops_per_cpu_s": len(cpu) / window_cpu,
        "op_cpu_p50_ms": percentile(cpu, 0.5),
        "op_cpu_tail_ms": percentile(cpu, tail),
        "cpu_gflops": sum(d["credit_flops"] for d in docs) / window_cpu / 1e9,
        "peak_rss_mb": max(d["peak_rss_mb"] for d in docs),
        "wall.ops_per_s": len(wall) / window,
        "wall.op_p50_ms": percentile(wall, 0.5),
        "wall.op_tail_ms": percentile(wall, tail),
        "runtime.busy_lanes": window_cpu / window,
    }


def report_failures(docs):
    for d in docs:
        if d["first_failure"]:
            print("first failure: " + d["first_failure"])
    return (sum(d["attempted"] for d in docs),
            sum(d["failed"] for d in docs))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    os.chdir(ROOT)
    build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    metrics = {}
    if args.trace == 0:
        setups, runs = [], []
        for _ in range(TIMED_PROCESSES):
            runs.append(run_harness(args.workload, args.seed,
                                    args.seconds / TIMED_PROCESSES))
            setups += [run_harness(args.workload, args.seed, args.seconds,
                                   setup_only=True)
                       for _ in range(SETUP_PER_ROUND)]
        print_settings(runs[0])
        values = pooled(runs)
        values["setup_s"] = statistics.median(d["setup_cpu_s"] for d in setups)
        for name, unit in units.items():
            metrics[name] = {"value": values[name], "unit": unit}
        print("setup_s samples (CPU s): %s" % [round(d["setup_cpu_s"], 4)
                                              for d in setups])
        print("wall clock: ops_per_s=%.4g op_p50_ms=%.4g op_tail_ms=%.4g "
              "busy_lanes=%.3f setup_s=%.4g" % (
                  values["wall.ops_per_s"], values["wall.op_p50_ms"],
                  values["wall.op_tail_ms"], values["runtime.busy_lanes"],
                  statistics.median(d["setup_s"] for d in setups)))
        print("ops: %d in %.2f s over %d processes, op_tail_ms = p%d" % (
            sum(d["ops"] for d in runs), sum(d["window_s"] for d in runs),
            len(runs), round(100 * runs[0]["tail_q"])))
        attempted, failed = report_failures(runs)
    else:
        # Half the window untraced (throughput base and per-class serve
        # medians), half traced (spans and counts).
        half = args.seconds / 2
        plain = run_harness(args.workload, args.seed, half)
        traced = run_harness(args.workload, args.seed, half, traced=True)
        print_settings(traced)
        values = dict(traced["metrics"])
        base = pooled([plain])
        values.update((k, v) for k, v in base.items()
                      if k.startswith(("wall.", "runtime.")))
        values["obs.trace_overhead"] = (pooled([traced])["ops_per_cpu_s"] /
                                        base["ops_per_cpu_s"])
        if args.workload == "serve-mix":
            for cls, lat in plain["cpu_ms"].items():
                values["serve.%s.p50_ms" % cls] = percentile(lat, 0.5)
        else:
            values.update(kernel_trace_metrics(traced))
        print("trace written to " + traced["scratch"])
        # Layers a workload does not reach read 0 (see README.md).
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                                  "unit": m["unit"]}
        attempted, failed = report_failures([plain, traced])

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
