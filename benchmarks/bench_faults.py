"""Chaos benchmark: what does surviving a slave crash cost?

For a matrix of seeds and crash times, runs the same seeded workload
fault-free and with one slave crashed mid-run, then reports:

* **recovery latency** — master detection to partition reassignment,
  per failure (also available in ``RunResult.recovery_latencies``);
* **degraded-output fraction** — ``1 - outputs_fault / outputs_ref``,
  the share of the output lost with the dead slave's window state
  (``--replication off``: adopted partitions restart empty; with
  replication on, the run must be lossless and the benchmark asserts
  ``degraded == False``; see DESIGN.md §8);
* **replication byte overhead** — the master's ``replication_bytes``
  meter (teed shipments + checkpoints), on the crash-free reference
  and the faulted run.

With ``--master-kill``, benchmarks master failover instead: runs with a
standby coordinator, crashes the master mid-run (inside its own host,
as every backend injects a crash), and reports the **election latency** — death detection to the
last slave's Rejoin — per backend and kill time.  The run must complete
undegraded (the standby replays the fatal round losslessly) or the
benchmark fails.

Writes a JSON report (CI publishes it as ``BENCH_faults.json``)::

    python benchmarks/bench_faults.py --out BENCH_faults.json
    python benchmarks/bench_faults.py --replication checkpoint+log
    python benchmarks/bench_faults.py --master-kill --backend thread
"""

from __future__ import annotations

import argparse
import json
import time
import typing as t

from repro.config import SystemConfig
from repro.core.system import JoinSystem
from repro.faults.plan import FaultPlan

#: Crash times against the chaos config's schedule (dist_epoch=2,
#: reorg_epoch=4): before the first shipment, mid-epoch, late.
CRASH_TIMES = (1.0, 5.0, 8.05)
VICTIM = 1  # slave index

#: Master-kill times: before the first reorg, and mid-epoch after
#: state moved around (mirrors tests/faults/test_master_failover.py).
MASTER_KILL_TIMES = {"before-reorg": 3.0, "mid-epoch": 5.0}


def chaos_cfg(
    seed: int,
    faults: FaultPlan | None = None,
    replication: str = "off",
    **extra: t.Any,
) -> SystemConfig:
    overrides: dict[str, t.Any] = dict(
        npart=12,
        rate=400.0,
        num_slaves=3,
        run_seconds=16.0,
        warmup_seconds=6.0,
        window_seconds=3.0,
        reorg_epoch=4.0,
        seed=seed,
        replication=replication,
    )
    if faults is not None:
        overrides["faults"] = faults
    overrides.update(extra)
    return SystemConfig.paper_defaults().scaled(0.01).with_(**overrides)


def measure(
    seed: int, crash_at: float, replication: str
) -> dict[str, t.Any]:
    reference = JoinSystem(chaos_cfg(seed, replication=replication)).run()
    faulted = JoinSystem(
        chaos_cfg(
            seed,
            faults=FaultPlan.parse([f"crash:{VICTIM}@{crash_at}s"]),
            replication=replication,
        )
    ).run()
    assert faulted.faults, "the injected crash must be detected"
    if replication == "off":
        assert faulted.degraded, "crash without replicas must degrade"
    else:
        assert not faulted.degraded, (
            f"replication={replication} must recover losslessly "
            f"(seed {seed}, crash at {crash_at})"
        )
    degraded_fraction = (
        1.0 - faulted.outputs / reference.outputs
        if reference.outputs
        else 0.0
    )
    return {
        "seed": seed,
        "crash_at": crash_at,
        "replication": replication,
        "outputs_ref": reference.outputs,
        "outputs_fault": faulted.outputs,
        "degraded_output_fraction": degraded_fraction,
        "recovery_latencies": faulted.recovery_latencies,
        "detected_at": [f["detected_at"] for f in faulted.faults],
        "restored_pids": [
            list(f.get("restored_pids", ())) for f in faulted.faults
        ],
        "replication_bytes_ref": reference.master["replication_bytes"],
        "replication_bytes_fault": faulted.master["replication_bytes"],
        # None-safe halt accounting: a failure the run halted on keeps
        # recovery_latency=None and is flagged unrecovered_at_halt.
        "unrecovered_at_halt": sum(
            1 for f in faulted.faults if f.get("unrecovered_at_halt")
        ),
    }


def measure_master_kill(
    seed: int, kill_name: str, backend: str
) -> dict[str, t.Any]:
    """One master-failover run: kill the coordinator, time the election."""
    kill_at = MASTER_KILL_TIMES[kill_name]
    overrides: dict[str, t.Any] = dict(standby=True, backend=backend)
    if backend != "sim":
        overrides["time_scale"] = 0.05
    faulted = JoinSystem(
        chaos_cfg(
            seed,
            faults=FaultPlan.parse([f"crash:master@{kill_at}s"]),
            replication="checkpoint+log",
            **overrides,
        )
    ).run()
    takeovers = [
        f
        for f in faulted.faults
        if f.get("where") == "standby" and f.get("recovery_latency") is not None
    ]
    assert takeovers, "the standby never recorded a takeover"
    assert not faulted.degraded, (
        f"master failover must be lossless "
        f"(backend {backend}, kill {kill_name}, seed {seed})"
    )
    return {
        "seed": seed,
        "backend": backend,
        "kill": kill_name,
        "kill_at": kill_at,
        "outputs": faulted.outputs,
        "election_latency_s": takeovers[0]["recovery_latency"],
        "detected_at": takeovers[0]["detected_at"],
        "unrecovered_at_halt": sum(
            1 for f in faulted.faults if f.get("unrecovered_at_halt")
        ),
    }


def _master_kill_main(args: argparse.Namespace) -> int:
    """The ``--master-kill`` report: election latency per kill time."""
    started = time.perf_counter()
    runs = [
        measure_master_kill(args.seed_base + i, kill_name, args.backend)
        for i in range(args.seeds)
        for kill_name in sorted(MASTER_KILL_TIMES)
    ]
    latencies = [run["election_latency_s"] for run in runs]
    report = {
        "benchmark": "master-failover",
        "seed_base": args.seed_base,
        "backend": args.backend,
        "runs": runs,
        "summary": {
            "n_runs": len(runs),
            "election_latency_mean_s": sum(latencies) / len(latencies),
            "election_latency_max_s": max(latencies),
        },
        "wall_seconds": round(time.perf_counter() - started, 2),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report["summary"], indent=2))
    print(f"wrote {args.out}")
    return 0


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument(
        "--replication",
        choices=("off", "log", "checkpoint+log", "all"),
        default="off",
        help="replication mode(s) to benchmark (all = sweep the three)",
    )
    parser.add_argument(
        "--master-kill",
        action="store_true",
        help="benchmark master failover (election latency) instead of "
        "slave-crash recovery",
    )
    parser.add_argument(
        "--backend",
        choices=("sim", "thread", "process", "tcp"),
        default="sim",
        help="backend for --master-kill runs",
    )
    parser.add_argument("--out", default="BENCH_faults.json")
    args = parser.parse_args(argv)
    if args.master_kill:
        return _master_kill_main(args)
    modes = (
        ("off", "log", "checkpoint+log")
        if args.replication == "all"
        else (args.replication,)
    )

    started = time.perf_counter()
    runs = [
        measure(args.seed_base + i, crash_at, mode)
        for mode in modes
        for i in range(args.seeds)
        for crash_at in CRASH_TIMES
    ]
    latencies = [lat for run in runs for lat in run["recovery_latencies"]]
    fractions = [run["degraded_output_fraction"] for run in runs]
    overhead = [
        run["replication_bytes_ref"]
        for run in runs
        if run["replication"] != "off"
    ]
    report = {
        "benchmark": "faults",
        "seed_base": args.seed_base,
        "replication_modes": list(modes),
        "runs": runs,
        "summary": {
            "n_runs": len(runs),
            "n_recovered": len(latencies),
            "recovery_latency_mean_s": (
                sum(latencies) / len(latencies) if latencies else None
            ),
            "recovery_latency_max_s": max(latencies) if latencies else None,
            "degraded_output_fraction_mean": sum(fractions) / len(fractions),
            "degraded_output_fraction_max": max(fractions),
            "replication_bytes_mean": (
                sum(overhead) / len(overhead) if overhead else None
            ),
        },
        "wall_seconds": round(time.perf_counter() - started, 2),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report["summary"], indent=2))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
