#!/usr/bin/env python3
"""The repo's benchmark: oracle-verified pinned-trace workloads.

Two ways in, one code path:

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process.  The last stdout line is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding
    the end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``) declared in ``BENCHMARK.json``; earlier lines
    report set-up and every rep as it finishes.

``python3 perf/run.py [--seed N] [--quick] [--out FILE]``
    Every workload, untraced then traced, each in its own subprocess
    (own RSS; a crash cannot take the driver down).  Prints every
    metric by name with its unit and writes one JSON result.

See ``perf/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import typing as t

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_SEED = 20130724
DEFAULT_SECONDS = 20
#: A workload subprocess that outlives this is killed (all-workloads mode).
SUBPROCESS_TIMEOUT = 180.0
#: Reps a workload subprocess owes if it dies before reporting any
#: (``measure.MIN_REPS``; not imported, the parent never loads the program).
OWED_REPS = 3


def run_workload(args: argparse.Namespace) -> int:
    """One workload in this process (see ``measure.py``)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perf: no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import measure  # sibling; pulls in the program and numpy

    # The imports are part of what a user waits for: they go into setup_s.
    return measure.run(args, time.perf_counter() - start)


# -- every workload, one subprocess each ---------------------------------


def fingerprint() -> dict[str, t.Any]:
    """Where the numbers were taken (they do not travel across hosts)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def run_child(name: str, trace: int, args: argparse.Namespace) -> dict[str, t.Any]:
    """Run one workload subprocess and account for it, dead or alive."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    # Its own session, so a hung run is killed with the nodes it forked.
    child = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=SUBPROCESS_TIMEOUT)
        status = f"exit {child.returncode}"
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        stdout, _ = child.communicate()
        status = f"killed after {SUBPROCESS_TIMEOUT:g}s"
    records = []
    for line in stdout.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    reps = [r for r in records if "rep" in r]
    final = next((r for r in reversed(records) if "metrics" in r), None)
    if final is None:
        # Died or hung before reporting: the reps it owed count as failed.
        planned = max(len(reps) + 1, 1 if args.quick else OWED_REPS)
        final = {
            "correct": False,
            "attempted": planned,
            "failed": planned - sum(r["ok"] for r in reps),
            "metrics": {},
        }
    setup = next((r for r in records if "setups" in r), {})
    return {**final, "status": status, "reps": reps, "setup": setup}


def summarise(values: list[float]) -> dict[str, float]:
    return {
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
    }


def run_all(args: argparse.Namespace) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    started = time.perf_counter()
    result: dict[str, t.Any] = {
        "benchmark": "perf",
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "host": fingerprint(),
        "workloads": {},
    }
    ok = True
    for spec in declared["workloads"]:
        name = spec["name"]
        timed = run_child(name, 0, args)
        traced = run_child(name, 1, args)
        attempted = timed["attempted"] + traced["attempted"]
        failed = timed["failed"] + traced["failed"]
        correct = timed["correct"] and traced["correct"]
        ok &= correct
        walls = [r["wall_s"] for r in timed["reps"] if r["ok"]]
        cpus = [r["cpu_s"] for r in timed["reps"] if r["ok"]]
        result["workloads"][name] = {
            "why": spec["why"],
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "status": [timed["status"], traced["status"]],
            "trace_tuples": timed["setup"].get("trace_tuples"),
            "oracle_pairs": timed["setup"].get("oracle_pairs"),
            "setup": timed["setup"],
            "rep_wall_s": summarise(walls) if walls else None,
            "rep_cpu_s": summarise(cpus) if cpus else None,
            "reps": timed["reps"] + traced["reps"],
            "end_to_end": timed["metrics"],
            "per_layer": traced["metrics"],
        }
        print(f"== {name}: {spec['why']}")
        print(
            f"   correct={correct} attempted={attempted} failed={failed} "
            f"({timed['status']}; {traced['status']})"
        )
        for metric, cell in {**timed["metrics"], **traced["metrics"]}.items():
            print(f"   {metric:<42} {cell['value']:>16.6g} {cell['unit']}")
    result["total_wall_s"] = time.perf_counter() - started
    document = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(document + "\n")
        print(f"wrote {args.out} in {result['total_wall_s']:.0f}s")
    else:
        print(json.dumps(result))
    return 0 if ok else 1


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="how long one run measures (reps never drop below the floor)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke test: a fifth of every horizon, one rep, one set-up",
    )
    parser.add_argument("--out", help="all-workloads mode: write the JSON here")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0  # exactly the floor of reps
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
