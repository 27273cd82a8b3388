"""One workload, measured in this process.

``run.py --workload NAME`` lands here after putting ``<repo>/src`` on the
path.  Untraced (``--trace 0``) it sets up, runs timed reps for
``--seconds`` and reports the end-to-end metrics; traced (``--trace 1``)
it reports the per-layer metrics.  Each rep and the set-up are printed
as JSON lines as they finish; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import time
import typing as t

from spans import SPAN_TARGETS, SpanTable, installed, time_codec
from workloads import (
    BY_NAME,
    Prepared,
    Rep,
    Workload,
    exact_counts,
    floor_seconds,
    peak_rss_mb,
    prepare,
    run_once,
)

#: Timed reps per run never drop below this, whatever ``--seconds`` says.
MIN_REPS = 3
#: Set-up (trace, oracle, warm-up) is repeated this often per timed run.
SETUPS = 3

END_TO_END = {
    "tuples_per_s": "tuples/s",
    "cpu_s_per_mtuple": "s/Mtuple",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Every per-layer metric with its unit.  A metric that is not defined
#: on a workload (see README) is emitted as 0 there.
PER_LAYER: dict[str, str] = {
    **{f"{s}.calls": "count" for s in SPAN_TARGETS},
    **{f"{s}.self_s": "s" for s in SPAN_TARGETS},
    "simul.other_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "kernel.tuples_per_probe": "tuples/call",
    "kernel.probe.us_per_call": "us",
    "window.sorted_view.us_per_call": "us",
    "join.pairs_per_tuple": "pairs/tuple",
    "master.epochs": "count",
    "master.reorgs": "count",
    "master.moves_ordered": "count",
    "master.messages": "count",
    "master.bytes_sent": "bytes",
    "slave.splits": "count",
    "slave.merges": "count",
    "slave.max_window_bytes": "bytes",
    "slave.skew": "ratio",
    "delay.modeled_mean_s": "s",
    "delay.modeled_p99_s": "s",
    "delay.wall_p50_ms": "ms",
    "delay.wall_p99_ms": "ms",
    "runtime.overhead_s": "s",
    "runtime.cpu_utilization": "ratio",
    "runtime.cpu_over_sim": "ratio",
    "wire.encode_us_per_msg": "us",
    "wire.decode_us_per_msg": "us",
    "wire.bytes_per_tuple": "bytes/tuple",
}


def emit(record: dict[str, t.Any]) -> None:
    print(json.dumps(record), flush=True)


class Reps:
    """The reps of one run, reported as they finish."""

    def __init__(self, workload: Workload, prepared: Prepared,
                 seconds: float, min_reps: int) -> None:
        self.run = (
            prepared.cfg, prepared.trace, prepared.oracle, workload.rep_timeout
        )
        self.seconds = seconds
        self.min_reps = min_reps
        self.done: list[Rep] = []
        self.started = time.perf_counter()

    def add(self, traced: bool = False, backend: str | None = None) -> Rep:
        cfg, *rest = self.run
        rep = run_once(cfg.with_(backend=backend) if backend else cfg, *rest)
        emit(
            {
                "rep": len(self.done),
                "traced": traced,
                "ok": rep.ok,
                "wall_s": rep.wall_s,
                "cpu_s": rep.cpu_s,
                "error": rep.error,
            }
        )
        self.done.append(rep)
        return rep

    def enough(self, step: int = 1) -> bool:
        """True when *step* more reps of average length would overrun
        ``--seconds``, or when the workload is plainly broken."""
        if sum(not r.ok for r in self.done) >= MIN_REPS:
            return True
        n = len(self.done)
        elapsed = time.perf_counter() - self.started
        return n >= self.min_reps and elapsed * (1 + step / n) > self.seconds


def fastest(reps: t.Iterable[Rep]) -> Rep | None:
    return min((r for r in reps if r.ok), key=lambda r: r.wall_s, default=None)


def floor_wall_s(reps: t.Iterable[Rep]) -> float:
    """Least-disturbed wall seconds of one run (see workloads.py)."""
    return floor_seconds([[w for w, _ in r.segments] for r in reps if r.ok])


def floor_cpu_s(reps: t.Iterable[Rep]) -> float:
    """Same floor for CPU; the children's share (the process backend's
    nodes, known only once reaped) rides along as one more segment."""
    rows = []
    for rep in reps:
        if rep.ok:
            own = [c for _, c in rep.segments]
            rows.append(own + [rep.cpu_s - sum(own)])
    return floor_seconds(rows)


def end_to_end(reps: Reps, tuples: int, setup_s: float) -> dict[str, float]:
    while not reps.enough():
        reps.add()
    if fastest(reps.done) is None:
        return {}
    return {
        "tuples_per_s": tuples / floor_wall_s(reps.done),
        "cpu_s_per_mtuple": floor_cpu_s(reps.done) / (tuples / 1e6),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


def sim_layers(reps: Reps, tuples: int) -> dict[str, float]:
    """Alternate untraced and traced reps; the per-layer numbers come
    from the fastest traced rep, the overhead from the two floors."""
    plain: list[Rep] = []
    traced: list[Rep] = []
    tables: list[SpanTable] = []
    while not reps.enough(step=2):
        plain.append(reps.add())
        tables.append(SpanTable())
        with installed(tables[-1]):
            traced.append(reps.add(traced=True))
    best, best_plain = fastest(traced), fastest(plain)
    if best is None or best_plain is None:
        return {}
    table = tables[traced.index(best)]
    probes = table.calls["kernel.probe"]
    views = table.calls["window.sorted_view"]
    out = {
        **{f"{name}.calls": n for name, n in table.calls.items()},
        **{f"{name}.self_s": s for name, s in table.self_s.items()},
        "trace.wall_s": best.wall_s,
        "simul.other_s": best.wall_s - sum(table.self_s.values()),
        "trace.overhead_ratio": floor_wall_s(traced) / floor_wall_s(plain),
        "runtime.cpu_utilization": best_plain.cpu_s / best_plain.wall_s,
        **exact_counts(best_plain.result),
        **time_codec(table.shipments),
    }
    if probes:
        out["kernel.tuples_per_probe"] = tuples / probes
        out["kernel.probe.us_per_call"] = (
            table.self_s["kernel.probe"] / probes * 1e6
        )
    if views:
        out["window.sorted_view.us_per_call"] = (
            table.self_s["window.sorted_view"] / views * 1e6
        )
    return out


def proc_layers(reps: Reps) -> dict[str, float]:
    """Wall-backend layers: what the RunResult and the clocks show, plus
    one sim rep of the same trace as the CPU reference and as the
    source of the shipments the codec is timed on."""
    while not reps.enough():
        reps.add()
    paced = list(reps.done)
    table = SpanTable()
    with installed(table, names=("join_module.enqueue",)):
        reference = reps.add(backend="sim")
    best = fastest(paced)
    if best is None or not reference.ok:
        return {}
    cfg = best.result.cfg
    to_ms = cfg.time_scale * 1e3
    delays = best.result.delays
    return {
        "delay.wall_p50_ms": delays.percentile(50) * to_ms,
        "delay.wall_p99_ms": delays.percentile(99) * to_ms,
        "runtime.overhead_s": best.wall_s - cfg.run_seconds * cfg.time_scale,
        "runtime.cpu_utilization": best.cpu_s / best.wall_s,
        "runtime.cpu_over_sim": floor_cpu_s(paced) / reference.cpu_s,
        **exact_counts(best.result),
        **time_codec(table.shipments),
    }


def counts_repeat(reps: t.Iterable[Rep]) -> bool:
    """On sim the exact counts of every rep must be identical: a
    difference is a behaviour change (or lost determinism), not noise."""
    seen = [exact_counts(r.result) for r in reps if r.ok]
    return all(counts == seen[0] for counts in seen[1:])


def run(args: argparse.Namespace, import_s: float) -> int:
    workload = BY_NAME[args.workload]
    # Each set-up replaces the last, so one trace and oracle stay alive.
    steps = []
    for _ in range(1 if (args.trace or args.quick) else SETUPS):
        ready = prepare(workload, args.seed, args.quick)
        steps.append(ready.steps_s)
    # Imports happen once; each later step counts at its least disturbed.
    setup_s = import_s + floor_seconds(steps)
    tuples = len(ready.trace)
    emit(
        {
            "setup_s": setup_s,
            "import_s": import_s,
            "setups": steps,
            "trace_tuples": tuples,
            "oracle_pairs": len(ready.oracle),
        }
    )

    reps = Reps(workload, ready, args.seconds, 1 if args.quick else MIN_REPS)
    if not args.trace:
        values, units = end_to_end(reps, tuples, setup_s), END_TO_END
    else:
        values = sim_layers(reps, tuples) if workload.is_sim else proc_layers(reps)
        units = PER_LAYER
        if values:
            values = {
                **dict.fromkeys(PER_LAYER, 0.0),
                "join.pairs_per_tuple": len(ready.oracle) / tuples,
                **values,
            }

    mismatch = any(
        r.error and r.error.startswith("MISMATCH") for r in reps.done
    )
    correct = (
        bool(values)
        and not mismatch
        and (not workload.is_sim or counts_repeat(reps.done))
    )
    emit(
        {
            "correct": correct,
            "attempted": len(reps.done),
            "failed": sum(not r.ok for r in reps.done),
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in values.items()
            },
        }
    )
    return 0 if correct else 1
