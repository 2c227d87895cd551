#!/usr/bin/env python3
"""Build and run the RMI runtime benchmark (rmibench).

Usage, from the repository root:

  python3 rmibench/run.py --workload list_sync --seed 1 --seconds 30 --trace 0
  python3 rmibench/run.py --workload all              # every workload
  python3 rmibench/run.py --selftest                  # determinism checks

`all` runs the benchmarked workloads.  webserver_pages is held back from
them: it fails its output check while return-value reuse races under two
pipelines on one call site (see README.md), and runs only when named.

The first run configures and builds rmibench/ (a standalone CMake project
over ../src) into .bench_build/rmibench; later runs rebuild incrementally.
A run prints the benchmark's human-readable metric table on stderr and, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 1 the traced run's Chrome trace is
written to .bench_build/rmibench-trace-<workload>.json and checked with
scripts/validate_trace.py.  The exit code is 0 only when every output check
passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "rmibench"
BUILD_DIR = ROOT / ".bench_build" / "rmibench"
BINARY = BUILD_DIR / "rmibench"
VALIDATOR = ROOT / "scripts" / "validate_trace.py"
WORKLOADS = ("list_sync", "superopt_stream")
HELD_BACK = ("webserver_pages",)
RUN_TIMEOUT_S = 170
SELFTEST_SECONDS = 2  # the self-test checks results, not timings


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD_DIR), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_bench(workload, seed, seconds, trace, extra=()):
    """Runs the binary once; returns (result dict or None, other stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    trace_path = ROOT / ".bench_build" / f"rmibench-trace-{workload}.json"
    if trace:
        trace_path.unlink(missing_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, []
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: no result (exit code {proc.returncode})")
        return None, lines
    if trace:
        check = subprocess.run([sys.executable, str(VALIDATOR),
                                str(trace_path)], stdout=sys.stderr)
        if check.returncode != 0:
            log(f"{workload}: Chrome trace failed validation")
            result["correct"] = False
    return result, lines[:-1]


def counters(lines):
    for line in lines:
        if line.startswith("counters "):
            return json.loads(line[len("counters "):])
    return None


def selftest(seconds):
    ok = True

    def expect(cond, what):
        nonlocal ok
        log(("ok:   " if cond else "FAIL: ") + what)
        ok = ok and cond

    # Two runs of a deterministic workload agree bit for bit.
    for w in ("list_sync", "superopt_stream"):
        runs = [run_bench(w, 1, seconds, 0, ["--dump-counters"])
                for _ in range(2)]
        if any(r is None for r, _ in runs):
            expect(False, f"{w}: two runs completed")
            continue
        virt = [{k: v["value"] for k, v in r["metrics"].items()
                 if k.startswith("virt_us_per_rmi.")} for r, _ in runs]
        expect(virt[0] == virt[1] and len(virt[0]) == 5,
               f"{w}: two runs give identical virt_us_per_rmi.*")
        expect(counters(runs[0][1]) is not None and
               counters(runs[0][1]) == counters(runs[1][1]),
               f"{w}: two runs give identical per-level counters")
    # A second seed passes every output check, the traced run matches the
    # untraced one, and the drivers agree with the app runners.
    for w in WORKLOADS:
        result, _ = run_bench(w, 2, seconds, 1)
        expect(result is not None and result["correct"],
               f"{w}: seed 2 traced run is correct (outputs, cross-check, "
               "trace)")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + HELD_BACK + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.workload is None and not args.selftest:
        ap.error("--workload or --selftest is required")
    if not build():
        return 1
    if args.selftest:
        return 0 if selftest(SELFTEST_SECONDS) else 1
    correct = True
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        result, _ = run_bench(w, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
