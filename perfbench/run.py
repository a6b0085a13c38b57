#!/usr/bin/env python3
"""Simulator benchmark: build rivbench from source, run one workload, report.

    python3 perfbench/run.py --workload chaos_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. Workloads: chaos_sweep, fleet_sweep,
flight_audit (see perfbench/README.md). --trace 0 runs the timed binary
(no allocation hook, no spans) and reports the end-to-end metrics,
with setup_s the median cold set-up of several fresh processes;
--trace 1 runs the timed binary for half the time and the traced binary
for the other half, and reports the per-layer metrics,
bench.span_overhead_frac and whether the traced run reproduced the timed
run's sim_digest.

The build lives in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), a Release build of the riv_* libraries plus the
two benchmark binaries. Progress and build output go to stderr; the last
line of stdout is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("chaos_sweep", "fleet_sweep", "flight_audit")
# The first run in a checkout compiles the libraries, so the build has a
# limit of its own. After the build every run must end well inside 180 s.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150
# Fresh rivbench processes that only set up, besides the timed run: the
# median of their cold set-ups is setup_s.
SETUP_PROCESSES = 8


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build(root, build_dir):
    """Configure once, then bring both binaries up to date."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", str(min(2, nproc())),
         "--target", "rivbench", "rivbench_traced"],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)


def run_binary(cmd, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        fail(f"{Path(cmd[0]).name} exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail(f"{Path(cmd[0]).name} printed no result")
    return json.loads(lines[-1])


def show(title, metrics):
    print(f"{title}:")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>18.6g} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    root = Path.cwd()
    for need in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not (root / need).is_file():
            fail(f"{need} not found: run from the repository root", 2)
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"build failed: {e}")
    deadline = time.monotonic() + RUN_TIMEOUT_S

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    timed_cmd = [str(build_dir / "rivbench")] + common
    try:
        if args.trace == 0:
            res = run_binary(timed_cmd + ["--seconds", str(args.seconds)],
                             deadline)
            ref = res
            setups = [res["metrics"]["setup_s"]["value"]]
            for _ in range(SETUP_PROCESSES):
                one = run_binary(timed_cmd + ["--seconds", "1",
                                              "--setup-only"], deadline)
                setups.append(one["metrics"]["setup_s"]["value"])
            res["metrics"]["setup_s"]["value"] = statistics.median(setups)
            res["notes"]["setup_s"] = (
                f"median of {len(setups)} cold set-ups: "
                + " ".join(f"{v:.4f}" for v in setups))
        else:
            # Half the time timed, half traced: the timed half gives the
            # digest the traced run must reproduce and the best-of-passes
            # pass time the span overhead is measured against.
            half = str(args.seconds / 2)
            ref = run_binary(timed_cmd + ["--seconds", half], deadline)
            spans = build_dir / f"spans-{args.workload}-{args.seed}.csv"
            res = run_binary([str(build_dir / "rivbench_traced")] + common +
                             ["--seconds", half, "--spans", str(spans)],
                             deadline)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    metrics = res["metrics"]
    attempted, failed = res["attempted"], res["failed"]
    digest_ok = res["sim_digest"] == ref["sim_digest"]
    if not digest_ok:
        # Every traced op is suspect when the traced run computed
        # something else than the timed run.
        failed += res["attempted"]
    if args.trace == 1:
        metrics["bench.span_overhead_frac"] = {
            "value": res["best_pass_s"] / ref["best_pass_s"] - 1.0,
            "unit": "frac"}
    correct = res["consistent"] and ref["consistent"] and digest_ok and \
        failed == 0

    print(f"host: nproc={nproc()} cpu=\"{cpu_model()}\" "
          f"compiler=\"{res['compiler']}\" build={res['build_type']} "
          f"jobs={res['jobs']}")
    print(f"workload {args.workload} seed {args.seed} mode {res['mode']} "
          f"passes {res['passes']} best_pass_s {res['best_pass_s']:.4f}")
    print(f"sim_digest {res['sim_digest']}"
          + ("" if args.trace == 0 else
             f" (timed {ref['sim_digest']}: "
             f"{'equal' if digest_ok else 'DIFFERENT'})"))
    show("end-to-end" if args.trace == 0 else "per-layer", metrics)
    info = dict(res["info"])
    info["failed_frac"] = {"value": failed / max(attempted, 1),
                           "unit": "failed/attempted"}
    show("workload figures", info)
    for key, value in res["notes"].items():
        print(f"  {key}: {value}")
    print(f"attempted {attempted} failed {failed} correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
