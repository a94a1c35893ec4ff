#!/usr/bin/env python3
"""liplib end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a liplib checkout.  The first run configures and
builds liplib, lidtool and the perfbench harness from source (Release)
under $CARGO_TARGET_DIR (default .bench_build); later runs reuse the
build.  Workloads: serve-hot, serve-cold, dist-sweep (see
perfbench/workloads.json).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The exit code is non-zero, and
no result line is printed, when the build or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-hot", "serve-cold", "dist-sweep")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "lidtool", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def run_harness(cmd):
    """Runs the harness in its own process group and returns its stdout
    lines; on timeout the whole group (daemons, workers) is killed."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("perfbench: run timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # nothing may outlive the run
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        raise SystemExit(f"perfbench: harness exited with {proc.returncode}")
    return stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    out = build()
    harness = os.path.join(out, "perfbench")
    if args.selftest:
        return subprocess.run([harness, "selftest"]).returncode

    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    expected = expected_metrics(args.trace)
    workdir = os.path.join(out, "work")
    lines = run_harness([
        harness, args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--lidtool", os.path.join(out, "lidtool"),
        "--workdir", workdir,
    ])
    if not lines:
        raise SystemExit("perfbench: harness printed nothing")
    result = json.loads(lines[-1])
    got = set(result["metrics"])
    if got != expected:
        raise SystemExit(f"perfbench: metric set mismatch: missing {sorted(expected - got)}, "
                         f"unexpected {sorted(got - expected)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
