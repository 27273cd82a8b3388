"""Backend benchmark: equal-work throughput and CPU, sim vs thread vs
process vs tcp.

All four backends replay the *same* pregenerated trace (so workload
generation — pure Python, GIL-bound — is paid once, outside the
measured runs) under a near-zero modeled cost model: wall time is then
dominated by the real numpy join work, which is exactly what
distinguishes the backends.  The DES backend executes it single
threaded by construction, the thread backend runs every node on that
same kernel paced by the wall clock (single threaded too, with real
socket framing between its nodes), and the process and tcp backends spread the per-slave probe work across cores
— tcp additionally paying real socket framing for every inter-node
message (run loopback here, so the delta over ``process`` prices the
TCP stack, not the network).

Two measurement rules keep the comparison apples-to-apples:

* **The trace ends three distribution epochs before ``run_seconds``**,
  so the master's last pre-halt ingestion pass covers it on every
  backend — sim and the wall backends all ingest the *entire* trace
  and the throughput denominator is the same ``len(trace)`` for all
  three runs.
* **``outputs`` counts ungated joined pairs** (``collect_pairs``
  mode), not the gate-windowed ``RunResult.outputs`` delay statistic.
  The modeled measurement gate closes at ``run_seconds`` of *modeled*
  time; at a small ``--time-scale`` the wall backends' real compute
  overruns the compressed clock, so gated metrics undercount by
  design there (see DESIGN.md, "Determinism contract") and must never
  be compared across backends.  The pair multiset is backend-invariant
  and the benchmark *verifies* that: it refuses to publish a speedup
  (exit 1) unless sim, thread, process and tcp produced the identical
  joined-output multiset from the identical ingested trace.

The default geometry (wide windows, few partitions) makes per-slave
probe compute dominate the master's serial shipping path.  Reported
per backend:

* **wall_seconds** — end-to-end run time;
* **cpu_seconds** — process CPU (self + reaped children);
* **cpu_utilization** — cpu/wall: effective busy cores;
* **throughput_tuples_per_s** — trace tuples joined per wall second.

Interpreting the summary: ``cpu_utilization > 1`` for the process
backend demonstrates multicore parallelism, which is only *possible*
when ``cores_available > 1`` (the JSON records the host's allowed CPU
count, and ``multicore_capable`` makes the precondition explicit).  On
a single-core host the process backend can still beat the thread
backend on wall time for the same verified work, because the thread
backend's one loop serializes what the per-node processes overlap —
visible as the difference in ``cpu_seconds``
(``thread_cpu_overhead_seconds``) — but no parallel speedup is
measurable there.  Each backend runs ``--reps`` times and the fastest
wall-clock run is published (noisy shared hosts routinely vary run
time by 2x; the minimum is the least-interference estimate).

Writes a JSON report (CI publishes it as a build artifact; the file is
gitignored — results are machine-specific)::

    python benchmarks/bench_backends.py --out BENCH_backends.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
import typing as t

import numpy as np

from repro.config import CostModelConfig, SystemConfig
from repro.core.system import JoinSystem
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer

BACKENDS = ("sim", "thread", "process", "tcp")

#: Near-zero modeled costs: the DES cost model charges simulated
#: seconds (slept on the wall backends); zeroing it makes the *real*
#: compute the only load, the quantity this benchmark compares.
CHEAP_COST = CostModelConfig(
    tuple_cost=1e-7,
    scan_byte_cost=1e-13,
    state_move_byte_cost=1e-12,
    expire_byte_cost=0.0,
)


def bench_cfg(args: argparse.Namespace) -> SystemConfig:
    return (
        SystemConfig.paper_defaults()
        .scaled(0.05)
        .with_(
            num_slaves=args.slaves,
            npart=8,
            rate=args.rate,
            window_seconds=120.0,
            run_seconds=150.0,
            warmup_seconds=30.0,
            time_scale=args.time_scale,
            cost=CHEAP_COST,
            seed=args.seed,
        )
    )


def cpu_seconds() -> float:
    mine = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return mine.ru_utime + mine.ru_stime + kids.ru_utime + kids.ru_stime


def canonical_pairs(pairs: np.ndarray | None) -> np.ndarray:
    if pairs is None or not len(pairs):
        return np.empty((0, 2), dtype=np.int64)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def measure(
    cfg: SystemConfig, backend: str, trace: t.Any
) -> tuple[dict[str, t.Any], np.ndarray]:
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    result = JoinSystem(
        cfg.with_(backend=backend),
        collect_pairs=True,
        workload=TraceReplayer(trace),
    ).run()
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0
    pairs = canonical_pairs(result.pairs)
    return {
        "backend": backend,
        "wall_seconds": round(wall, 3),
        "cpu_seconds": round(cpu, 3),
        "cpu_utilization": round(cpu / wall, 3),
        "throughput_tuples_per_s": round(len(trace.ts) / wall, 1),
        "tuples": result.tuples_generated,
        "outputs": int(len(pairs)),
    }, pairs


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=4000.0)
    parser.add_argument("--slaves", type=int, default=4)
    parser.add_argument("--time-scale", type=float, default=0.005)
    parser.add_argument("--seed", type=int, default=20130724)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out", default="BENCH_backends.json")
    args = parser.parse_args(argv)

    cfg = bench_cfg(args)
    workload = TwoStreamWorkload.poisson_bmodel(
        RngRegistry(cfg.seed), cfg.rate, cfg.b_skew, cfg.key_domain
    )
    # Stop the trace three distribution epochs early: the master's last
    # ingestion pass happens before the final (halt) epoch, so a trace
    # running right up to run_seconds would lose a backend-dependent
    # tail on the DES backend.
    trace = workload.generate(0.0, cfg.run_seconds - 3.0 * cfg.dist_epoch)

    started = time.perf_counter()
    runs, reference_pairs, equal_pairs, all_tuples = [], None, True, set()
    for backend in BACKENDS:
        best: dict[str, t.Any] | None = None
        for _ in range(max(1, args.reps)):
            run, pairs = measure(cfg, backend, trace)
            if reference_pairs is None:
                reference_pairs = pairs
            equal_pairs &= bool(np.array_equal(pairs, reference_pairs))
            all_tuples.add(run["tuples"])
            if best is None or run["wall_seconds"] < best["wall_seconds"]:
                best = run
        assert best is not None
        runs.append(best)
    by_backend = {run["backend"]: run for run in runs}

    equal_work = equal_pairs and len(all_tuples) == 1
    cores = len(os.sched_getaffinity(0))

    speedup = (
        by_backend["thread"]["wall_seconds"]
        / by_backend["process"]["wall_seconds"]
    )
    tcp_speedup = (
        by_backend["thread"]["wall_seconds"]
        / by_backend["tcp"]["wall_seconds"]
    )
    report = {
        "benchmark": "backends",
        "trace_tuples": int(len(trace.ts)),
        "cores_available": cores,
        "reps": max(1, args.reps),
        "config": {
            "rate": cfg.rate,
            "slaves": cfg.num_slaves,
            "npart": cfg.npart,
            "window_s": cfg.window_seconds,
            "run_s": cfg.run_seconds,
            "time_scale": cfg.time_scale,
            "seed": cfg.seed,
        },
        "runs": runs,
        "summary": {
            "equal_work_verified": equal_work,
            "process_over_thread_speedup": round(speedup, 2),
            "process_beats_thread": speedup > 1.0,
            "multicore_capable": cores > 1,
            "tcp_over_thread_speedup": round(tcp_speedup, 2),
            # Both loopback backends do the same multicore work; their
            # wall-time ratio prices the TCP stack against mp.Pipe.
            "tcp_over_process_ratio": round(
                by_backend["process"]["wall_seconds"]
                / by_backend["tcp"]["wall_seconds"],
                2,
            ),
            "process_cpu_utilization": by_backend["process"][
                "cpu_utilization"
            ],
            "tcp_cpu_utilization": by_backend["tcp"]["cpu_utilization"],
            "thread_cpu_utilization": by_backend["thread"]["cpu_utilization"],
            # CPU the thread backend burned beyond the process backend
            # for the same verified work (negative: it burned less).
            "thread_cpu_overhead_seconds": round(
                by_backend["thread"]["cpu_seconds"]
                - by_backend["process"]["cpu_seconds"],
                3,
            ),
            "note": (
                ""
                if cores > 1
                else "single-core host: cpu_utilization is capped at "
                "1.0 and no parallel speedup is measurable; "
                "process-vs-thread differences reflect one loop "
                "against several, and IPC overheads only"
            ),
        },
        "wall_seconds": round(time.perf_counter() - started, 2),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for run in runs:
        print(
            f"{run['backend']:>8}: wall={run['wall_seconds']:.2f}s "
            f"cpu={run['cpu_seconds']:.2f}s "
            f"util={run['cpu_utilization']:.2f} "
            f"outputs={run['outputs']:,} "
            f"throughput={run['throughput_tuples_per_s']:,.0f} t/s"
        )
    print(json.dumps(report["summary"], indent=2))
    print(f"wrote {args.out}")
    if not equal_work:
        detail = {
            b: {
                "outputs": by_backend[b]["outputs"],
                "tuples": by_backend[b]["tuples"],
            }
            for b in BACKENDS
        }
        print(
            "ERROR: backends did not perform identical join work; the "
            f"speedup above is not publishable: {detail}"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
