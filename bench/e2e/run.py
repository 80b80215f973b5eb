#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

One workload, from the repository root:

    python3 bench/e2e/run.py --workload clip-8nm --seed 7 --seconds 20 --trace 0

builds the ganopc CLI and the harness under .bench_build/ (first run only),
runs the workload in a fresh process, prints a table of every metric with
its unit and sample count, and prints one JSON object as the last stdout
line. --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. The exit status is 0 only when every correctness check
passed.

Every workload, untraced and traced, with both metric sets and the Chrome
trace:

    python3 bench/e2e/run.py --all --seed 7 --out /tmp/e2e-out

writes results.json and trace.json to --out.

The CTest self-test (`ctest` in the harness build) runs --smoke: every
workload at tiny sample counts, checking that every metric of
BENCHMARK.json is emitted and that a corrupted fixture stops the run.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FIXTURE = os.path.join(HERE, "fixtures", "generator_quick.bin")
WORKLOADS = ["clip-8nm", "clip-16nm-tcc", "batch-8nm-pool", "serve-16nm-mixed"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def jobs():
    """Threads per in-process workload and build jobs: min(4, nproc)."""
    return str(min(4, len(os.sched_getaffinity(0))))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fixture_hash():
    with open(os.path.join(HERE, "fixtures", "fixtures.json")) as f:
        return json.load(f)["generator_quick.bin"]["fnv1a64"]


def run_logged(cmd, log_path):
    """Runs a build step, appending its output to log_path."""
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                             timeout=BUILD_TIMEOUT_S)
    if rc != 0:
        with open(log_path) as f:
            tail = f.read()[-4000:]
        sys.stderr.write(tail)
        raise RuntimeError("build step failed: " + " ".join(cmd))


def build(build_dir):
    """Builds the ganopc CLI (with every library archive) and the harness."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    root_build = os.path.join(build_dir, "ganopc")
    e2e_build = os.path.join(build_dir, "e2e")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(root_build, "CMakeCache.txt")):
            log("configuring the ganopc build (first run builds from source)")
            run_logged(["cmake", "-S", ROOT, "-B", root_build,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DGANOPC_BUILD_TESTS=OFF", "-DGANOPC_BUILD_BENCH=OFF",
                        "-DGANOPC_BUILD_EXAMPLES=OFF"], log_path)
        run_logged(["cmake", "--build", root_build, "--target", "ganopc",
                    "-j", jobs()], log_path)
        if not os.path.exists(os.path.join(e2e_build, "CMakeCache.txt")):
            run_logged(["cmake", "-S", HERE, "-B", e2e_build,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DGANOPC_BUILD=" + root_build], log_path)
        run_logged(["cmake", "--build", e2e_build, "-j", jobs()], log_path)
    return (os.path.join(e2e_build, "e2e_bench"),
            os.path.join(root_build, "tools", "ganopc"))


def run_harness(bench_bin, ganopc, work_root, workload, seed, seconds, trace,
                smoke=False, fixture=FIXTURE, trace_out=None):
    """Runs one workload in a fresh process; returns (exit code, result)."""
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed), dir=work_root)
    cmd = [bench_bin, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--smoke", "1" if smoke else "0", "--fixture", fixture,
           "--fixture-fnv1a", fixture_hash(), "--ganopc", ganopc,
           "--work-dir", work_dir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, GANOPC_THREADS=jobs())
    # Its own session, so a timeout can take down the harness together with
    # any daemon and workers it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def check_metrics(result, specs):
    """Names from specs the result lacks or reports in another unit."""
    problems = []
    for spec in specs:
        m = result["metrics"].get(spec["name"])
        if m is None:
            problems.append("missing metric " + spec["name"])
        elif m["unit"] != spec["unit"]:
            problems.append("%s reported in %s, BENCHMARK.json says %s"
                            % (spec["name"], m["unit"], spec["unit"]))
    return problems


def print_table(result, specs):
    """Every metric of the run: BENCHMARK.json's first, then the rest."""
    print("workload %s seed %d: correct=%s attempted=%d failed=%d"
          % (result["workload"], result["seed"], result["correct"],
             result["attempted"], result["failed"]))
    names = [s["name"] for s in specs]
    names += sorted(n for n in result["metrics"] if n not in names)
    for i, name in enumerate(names):
        if i == len(specs):
            print("  (also measured, not part of this metric set)")
        m = result["metrics"][name]
        print("  %-34s %14.6g %-8s n=%d" % (name, m["value"], m["unit"], m["n"]))
    for f in result.get("failures", []):
        print("  CHECK FAILED: " + f)


def cmd_workload(args, bench):
    bench_bin, ganopc = build(args.build_dir)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    out_dir = os.path.join(args.build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_out = os.path.join(out_dir, "trace-%s.json" % args.workload) if args.trace else None
    rc, result = run_harness(bench_bin, ganopc, os.path.join(args.build_dir, "runs"),
                             args.workload, args.seed, args.seconds, args.trace,
                             trace_out=trace_out)
    if result is None:
        log("the harness exited %d without a result" % rc)
        return 1
    problems = check_metrics(result, specs)
    for p in problems:
        log(p)
    if problems:
        return 1
    print_table(result, specs)
    correct = bool(result["correct"]) and rc == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {s["name"]: {"value": result["metrics"][s["name"]]["value"],
                                "unit": s["unit"]} for s in specs},
    }), flush=True)
    return 0 if correct else 1


def merge_traces(paths):
    """One Chrome trace, one process row per workload."""
    events = []
    for pid, (workload, path) in enumerate(paths, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
                       "args": {"name": workload}})
        with open(path) as f:
            for e in json.load(f)["traceEvents"]:
                e["pid"] = pid
                events.append(e)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def cmd_all(args, bench):
    bench_bin, ganopc = build(args.build_dir)
    os.makedirs(args.out, exist_ok=True)
    work = os.path.join(args.build_dir, "runs")
    results, traces, ok = {}, [], True
    for w in WORKLOADS:
        trace_out = os.path.join(args.out, "trace-%s.json" % w)
        merged = None
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            rc, result = run_harness(bench_bin, ganopc, work, w, args.seed, args.seconds,
                                     trace, trace_out=trace_out if trace else None)
            if result is None:
                log("%s exited %d without a result" % (w, rc))
                return 1
            result["failures"] += check_metrics(result, specs)
            ok = ok and rc == 0 and result["correct"] and not result["failures"]
            print_table(result, specs)
            if merged is None:
                merged = result
            else:
                for key in ("attempted", "failed"):
                    merged[key] += result[key]
                merged["correct"] = merged["correct"] and result["correct"]
                merged["failures"] += result["failures"]
                # The traced run contributes its per-layer metrics only; the
                # rest of what it prints comes from a shortened run.
                merged["metrics"].update({s["name"]: result["metrics"][s["name"]]
                                          for s in specs if s["name"] in result["metrics"]})
        results[w] = merged
        traces.append((w, trace_out))
    # Workloads that share a quality set must agree on it exactly.
    for a, b in (("clip-8nm", "batch-8nm-pool"), ("clip-16nm-tcc", "serve-16nm-mixed")):
        for name in ("l2_nm2_mean", "pvb_nm2_mean"):
            va = results[a]["metrics"][name]["value"]
            vb = results[b]["metrics"][name]["value"]
            if va != vb:
                ok = False
                results[b]["failures"].append("%s %r differs from %s's %r"
                                              % (name, vb, a, va))
                log("%s: %s %r differs from %s's %r" % (b, name, vb, a, va))
    with open(os.path.join(args.out, "results.json"), "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "correct": ok,
                   "workloads": results}, f, indent=1)
    with open(os.path.join(args.out, "trace.json"), "w") as f:
        json.dump(merge_traces(traces), f)
    for _, path in traces:
        os.remove(path)
    log("wrote %s and %s" % (os.path.join(args.out, "results.json"),
                             os.path.join(args.out, "trace.json")))
    return 0 if ok else 1


def cmd_smoke(args, bench):
    work = os.path.join(args.build_dir, "smoke")
    os.makedirs(work, exist_ok=True)
    runs = [(w, trace, specs) for w in WORKLOADS
             for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"]))]

    def smoke(job):
        w, trace, specs = job
        rc, result = run_harness(args.bench_bin, args.ganopc, work, w, 1, 0, trace,
                                 smoke=True,
                                 trace_out=os.path.join(work, "trace-%s.json" % w))
        if result is None or rc != 0 or not result["correct"]:
            return ["%s --trace %d: exit %d, result %s" % (w, trace, rc, result)]
        return ["%s --trace %d: %s" % (w, trace, p) for p in check_metrics(result, specs)]

    # Two runs at a time: the checks do not depend on timing.
    with ThreadPoolExecutor(max_workers=2) as pool:
        failures = [f for found in pool.map(smoke, runs) for f in found]
    # A changed fixture must stop the run before it measures anything.
    corrupt = os.path.join(work, "generator_corrupt.bin")
    with open(FIXTURE, "rb") as f:
        data = bytearray(f.read())
    data[len(data) // 2] ^= 0xFF
    with open(corrupt, "wb") as f:
        f.write(data)
    rc, result = run_harness(args.bench_bin, args.ganopc, work, "clip-16nm-tcc", 1, 0,
                             0, smoke=True, fixture=corrupt)
    if rc == 0 or result is not None:
        failures.append("a corrupted fixture did not stop the run (exit %d)" % rc)
    for f in failures:
        log("SMOKE FAILED: " + f)
    if not failures:
        log("smoke passed: every workload emits every BENCHMARK.json metric")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload once")
    p.add_argument("--out", help="output directory of --all")
    p.add_argument("--smoke", action="store_true", help="self-test (CTest)")
    p.add_argument("--bench-bin", help="--smoke: the built e2e_bench")
    p.add_argument("--ganopc", help="--smoke: the built ganopc CLI")
    p.add_argument("--build-dir", default=os.path.join(ROOT, ".bench_build"))
    args = p.parse_args()
    try:
        bench = load_benchmark()
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.smoke:
            return cmd_smoke(args, bench)
        if args.all:
            args.out = args.out or os.path.join(args.build_dir, "out")
            return cmd_all(args, bench)
        if not args.workload:
            p.error("give --workload, --all or --smoke")
        return cmd_workload(args, bench)
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
