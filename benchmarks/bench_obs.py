"""Observability overhead benchmark: what tracing costs.

The tracing plane's contract is *near-zero cost when off* (rule OBS001:
every hook guards event construction behind ``tracer.enabled``) and
*bounded cost when on*.  This benchmark quantifies both ends:

* **hot-path micro-costs** — nanoseconds per instrumentation site for
  the disabled guard (the price every un-traced run pays), a tracer
  emitting into a :class:`MemoryExporter`, and a tracer emitting into
  a :class:`JsonlExporter`;
* **end-to-end run overhead** — wall time of an identical sim-backend
  run with observability off, with in-memory tracing, and with JSONL
  tracing (transport spans on, the chattiest tracer configuration),
  reported as percent overhead versus the baseline.

The typed metric views have no row: they are built from the run's own
counters when asked for, so no update site exists to time.

The sim backend is used for the end-to-end runs because its wall time
is pure compute (no real sleeps), so tracer overhead is not hidden
inside idle waits.  One discarded run warms imports and caches, then
the variants run interleaved, ``--reps`` rounds of one run each, so
none of them owns the cold start or a noisy stretch of the host; the
fastest run of each is published (minimum = least-interference
estimate, same rule as ``bench_backends.py``).

Writes a JSON report (CI publishes it as a build artifact; the file is
gitignored — results are machine-specific)::

    python benchmarks/bench_obs.py --out BENCH_obs.json
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
import typing as t

from repro.config import ObservabilityConfig, SystemConfig
from repro.core.system import JoinSystem
from repro.obs.events import TransportEvent
from repro.obs.exporters import JsonlExporter, MemoryExporter
from repro.obs.tracer import NULL_TRACER, Tracer


def _best_ns_per_op(
    run_once: t.Callable[[int], None], n_ops: int, reps: int
) -> float:
    """Fastest-of-``reps`` cost of one operation, in nanoseconds."""
    best = float("inf")
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        run_once(n_ops)
        best = min(best, time.perf_counter() - t0)
    return best / n_ops * 1e9


def _emit_loop(tracer: Tracer) -> t.Callable[[int], None]:
    def run(n: int) -> None:
        for i in range(n):
            # The full site cost: guard + event construction + emit.
            if tracer.enabled:
                tracer.emit(
                    TransportEvent(
                        t=float(i),
                        node=2,
                        dst=0,
                        msg="Report",
                        nbytes=64,
                        duration=0.001,
                        phase="send",
                        xfer_seq=i,
                    )
                )

    return run


def bench_hot_paths(args: argparse.Namespace, tmpdir: str) -> dict[str, t.Any]:
    jsonl_path = os.path.join(tmpdir, "bench_tracer.jsonl")
    jsonl_tracer = Tracer([JsonlExporter(jsonl_path)])
    memory_tracer = Tracer([MemoryExporter()])
    out = {
        "tracer_disabled_guard_ns": _best_ns_per_op(
            _emit_loop(NULL_TRACER), args.emit_ops, args.reps
        ),
        "tracer_memory_emit_ns": _best_ns_per_op(
            _emit_loop(memory_tracer), args.emit_ops, args.reps
        ),
        "tracer_jsonl_emit_ns": _best_ns_per_op(
            _emit_loop(jsonl_tracer), args.emit_ops, args.reps
        ),
    }
    jsonl_tracer.close()
    return {k: round(v, 1) for k, v in out.items()}


def bench_cfg(args: argparse.Namespace) -> SystemConfig:
    return (
        SystemConfig.paper_defaults()
        .scaled(0.05)
        .with_(
            backend="sim",
            num_slaves=args.slaves,
            rate=args.rate,
            run_seconds=args.run_seconds,
            warmup_seconds=min(30.0, args.run_seconds / 4),
            seed=args.seed,
        )
    )


#: End-to-end variants, baseline first, chattiest last.
#: ``trace_transport`` is on for the tracing variants so every message
#: send becomes a trace record — the worst realistic event rate.
def _variants(tmpdir: str) -> list[tuple[str, ObservabilityConfig]]:
    return [
        ("off", ObservabilityConfig()),
        (
            "trace_memory",
            ObservabilityConfig(
                trace_memory=True, trace_transport=True, sample_period=5.0
            ),
        ),
        (
            "trace_jsonl",
            ObservabilityConfig(
                trace_path=os.path.join(tmpdir, "bench_run.jsonl"),
                trace_transport=True,
                sample_period=5.0,
            ),
        ),
    ]


def bench_end_to_end(
    args: argparse.Namespace, tmpdir: str
) -> list[dict[str, t.Any]]:
    cfg = bench_cfg(args)
    variants = _variants(tmpdir)
    JoinSystem(cfg).run()  # warm-up, discarded
    best = {name: (float("inf"), 0) for name, _ in variants}
    for _ in range(max(1, args.reps)):
        for name, obs in variants:
            t0 = time.perf_counter()
            result = JoinSystem(cfg.with_(obs=obs)).run()
            wall = time.perf_counter() - t0
            if wall < best[name][0]:
                best[name] = (wall, len(result.trace or ()))
    baseline = best["off"][0]
    return [
        {
            "variant": name,
            "wall_seconds": round(wall, 3),
            "overhead_pct": round(100.0 * (wall / baseline - 1.0), 1),
            "trace_records": trace_records,
        }
        for name, (wall, trace_records) in best.items()
    ]


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate", type=float, default=1000.0)
    parser.add_argument("--slaves", type=int, default=4)
    parser.add_argument("--run-seconds", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=20130724)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--emit-ops", type=int, default=50_000)
    parser.add_argument("--out", default="BENCH_obs.json")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench_obs_") as tmpdir:
        hot = bench_hot_paths(args, tmpdir)
        runs = bench_end_to_end(args, tmpdir)

    cfg = bench_cfg(args)
    overhead = {row["variant"]: row["overhead_pct"] for row in runs}
    report = {
        "benchmark": "obs",
        "reps": max(1, args.reps),
        "config": {
            "rate": cfg.rate,
            "slaves": cfg.num_slaves,
            "npart": cfg.npart,
            "run_s": cfg.run_seconds,
            "seed": cfg.seed,
            "emit_ops": args.emit_ops,
        },
        "hot_path_ns": hot,
        "runs": runs,
        "summary": {
            # The disabled guard is the cost every production run pays
            # at every instrumentation site; it must stay trivial.
            "disabled_guard_ns": hot["tracer_disabled_guard_ns"],
            "guard_is_cheap": hot["tracer_disabled_guard_ns"] < 1000.0,
            "memory_trace_overhead_pct": overhead["trace_memory"],
            "jsonl_trace_overhead_pct": overhead["trace_jsonl"],
        },
        "wall_seconds": round(time.perf_counter() - started, 2),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for key, value in hot.items():
        print(f"{key:>32}: {value:>10.1f} ns/op")
    for row in runs:
        print(
            f"{row['variant']:>32}: wall={row['wall_seconds']:.3f}s "
            f"overhead={row['overhead_pct']:+.1f}% "
            f"records={row['trace_records']:,}"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
