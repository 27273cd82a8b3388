"""The benchmark's workloads: pinned traces, the oracle, one measured run.

Every workload is a closed replay of a trace generated from ``--seed``
(``proc_paced`` is the exception: the master releases the same kind of
trace on a wall-clock schedule).  A run is ``JoinSystem(cfg,
collect_pairs=True, workload=<replayer of the trace>).run()`` timed
from outside; its joined-pair multiset must equal
``repro.reference.naive_join.naive_window_join`` on the same trace.

Timing on a shared host.  The same run takes 4.4-6.3 s here from one
minute to the next, CPU time included (a neighbour slows the core, it
does not just preempt it), and the disturbance comes in bursts of a
second or so.  Interference only ever adds time, so the estimator is a
floor -- but the floor of whole reps needs a rep-long quiet stretch,
which 4 s reps rarely get.  The replayer is the benchmark's own load
generator, so it stamps the clocks each time the master asks it for an
epoch's tuples; on sim (single-threaded, event order fixed by the
seed) the work between two stamps is identical in every rep, and
:func:`floor_seconds` takes each such segment from the rep that ran it
least disturbed.  Where no stamps come back (the process backend forks
the master) the whole rep is the one segment.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import signal
import time
import typing as t
from contextlib import contextmanager

import numpy as np

from repro.config import CostModelConfig, SystemConfig
from repro.core.system import JoinSystem, RunResult
from repro.data.tuples import TupleBatch
from repro.reference.naive_join import naive_window_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer

#: Near-zero modeled costs: the cost model charges *simulated* seconds
#: (slept on the wall backends), so zeroing it leaves the real numpy and
#: Python work as the only load -- the quantity this benchmark measures.
CHEAP_COST = CostModelConfig(
    tuple_cost=1e-7,
    scan_byte_cost=1e-13,
    state_move_byte_cost=1e-12,
    expire_byte_cost=0.0,
)

#: ``--quick`` shrinks every horizon by this factor (smoke test only).
QUICK_FACTOR = 0.2


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    rate: float
    window_seconds: float
    fine_tuning: bool
    #: Modeled run length, seconds; the trace ends three distribution
    #: epochs earlier so every backend ingests all of it.
    horizon: float
    #: Wall seconds per modeled second (wall backends only).
    time_scale: float = 1.0
    #: A rep that takes longer than this is counted as failed.
    rep_timeout: float = 90.0

    @property
    def is_sim(self) -> bool:
        return self.backend == "sim"

    def config(self, seed: int, quick: bool = False) -> SystemConfig:
        horizon = self.horizon * (QUICK_FACTOR if quick else 1.0)
        # ``kernel`` is deliberately left at SystemConfig's default.
        return (
            SystemConfig.paper_defaults()
            .scaled(0.05)
            .with_(
                num_slaves=4,
                npart=8,
                rate=self.rate,
                window_seconds=self.window_seconds,
                fine_tuning=self.fine_tuning,
                run_seconds=horizon,
                warmup_seconds=0.2 * horizon,
                backend=self.backend,
                time_scale=self.time_scale,
                cost=CHEAP_COST,
                seed=seed,
            )
        )


#: Why each exists is recorded in BENCHMARK.json and perf/README.md.
WORKLOADS: tuple[Workload, ...] = (
    # Small fine-tuned windows that never expire: per-call overhead.
    Workload("sim_ft", backend="sim", rate=4000.0, window_seconds=120.0,
             fine_tuning=True, horizon=100.0),
    # Same trace, large untuned windows: the kernel's data structure.
    Workload("sim_noft", backend="sim", rate=4000.0, window_seconds=120.0,
             fine_tuning=False, horizon=100.0),
    # Windows full after a fifth of the run: commit + expire + re-index.
    Workload("sim_steady", backend="sim", rate=8000.0, window_seconds=20.0,
             fine_tuning=True, horizon=100.0),
    # Open loop on the wall clock: wire codec, sockets, fork.  Slower
    # schedules than time_scale 0.1 only; see README "known exclusions".
    Workload("proc_paced", backend="process", rate=4000.0,
             window_seconds=120.0, fine_tuning=True, horizon=60.0,
             time_scale=0.1),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def make_trace(cfg: SystemConfig) -> TupleBatch:
    workload = TwoStreamWorkload.poisson_bmodel(
        RngRegistry(cfg.seed), cfg.rate, cfg.b_skew, cfg.key_domain
    )
    # Stop three distribution epochs early: the master's last ingestion
    # pass precedes the halt epoch, so a later tail would be lost on a
    # backend-dependent basis and the denominators would differ.
    return workload.generate(0.0, cfg.run_seconds - 3.0 * cfg.dist_epoch)


def trace_prefix(trace: TupleBatch, until: float) -> TupleBatch:
    return trace.slice(0, int(np.searchsorted(trace.ts, until, side="left")))


def canonical_pairs(pairs: np.ndarray | None) -> np.ndarray:
    if pairs is None or not len(pairs):
        return np.empty((0, 2), dtype=np.int64)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def cpu_seconds() -> float:
    """User+sys CPU of this process plus its reaped children."""
    mine = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return mine.ru_utime + mine.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, MiB."""
    mine = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(mine, kids) / 1024.0  # Linux reports KiB


@contextmanager
def deadline(seconds: float) -> t.Iterator[None]:
    """Raise ``TimeoutError`` in the main thread after *seconds*."""

    def expired(_signum: int, _frame: t.Any) -> None:
        raise TimeoutError(f"rep exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class StampingReplayer(TraceReplayer):
    """The pinned trace as the run's workload; stamps ``(wall, cpu)``
    at every epoch it hands out (~50 clock reads per run)."""

    def __init__(self, batch: TupleBatch) -> None:
        super().__init__(batch)
        self.stamps: list[tuple[float, float]] = []

    def generate(self, t0: float, t1: float) -> TupleBatch:
        self.stamps.append((time.perf_counter(), time.process_time()))
        return super().generate(t0, t1)


@dataclasses.dataclass
class Rep:
    """One construct-and-run, timed from outside and verified."""

    wall_s: float
    #: User+sys of the run, self plus reaped children.
    cpu_s: float
    #: ``(wall, cpu-of-this-process)`` durations between stamps, from
    #: the start of the rep to its end; they sum to the rep.
    segments: list[tuple[float, float]]
    result: RunResult | None
    #: Why the rep failed (``None`` = it ran and matched the oracle).
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


def floor_seconds(rows: t.Sequence[t.Sequence[float]]) -> float:
    """Sum over segments of the least time any row spent in it.

    Rows that do not line up (a rep without stamps, a different number
    of epochs) fall back to the smallest row total.
    """
    if len({len(row) for row in rows}) != 1:
        return min(sum(row) for row in rows)
    return sum(map(min, zip(*rows)))


def run_once(
    cfg: SystemConfig,
    trace: TupleBatch,
    oracle: np.ndarray,
    timeout: float,
) -> Rep:
    """Run *trace* on *cfg* once; never raises on a failed run."""
    # The previous run's cluster is cyclic garbage holding whole windows;
    # collect it now so peak RSS is one run's, not a pile-up of reps.
    gc.collect()
    replayer = StampingReplayer(trace)
    cpu0 = cpu_seconds()
    first = (time.perf_counter(), time.process_time())
    try:
        with deadline(timeout):
            result = JoinSystem(cfg, collect_pairs=True, workload=replayer).run()
    except Exception as error:  # noqa: BLE001 - counted, reps continue
        wall = time.perf_counter() - first[0]
        return Rep(wall, cpu_seconds() - cpu0, [], None,
                   f"{type(error).__name__}: {error}")
    last = (time.perf_counter(), time.process_time())
    cpu = cpu_seconds() - cpu0
    marks = [first, *replayer.stamps, last]
    segments = [
        (b[0] - a[0], b[1] - a[1]) for a, b in zip(marks, marks[1:])
    ]
    error = None
    if result.degraded:
        error = "run reported degraded"
    elif result.tuples_generated != len(trace):
        error = (
            f"ingested {result.tuples_generated} of {len(trace)} trace tuples"
        )
    elif not np.array_equal(canonical_pairs(result.pairs), oracle):
        error = "MISMATCH: pair multiset differs from the naive oracle"
    result.pairs = None  # verified; do not hold ~10 MB per kept rep
    return Rep(last[0] - first[0], cpu, segments, result, error)


@dataclasses.dataclass
class Prepared:
    cfg: SystemConfig
    trace: TupleBatch
    oracle: np.ndarray
    #: Wall seconds of the three set-up steps: trace, oracle, warm-up.
    steps_s: tuple[float, float, float]


def prepare(workload: Workload, seed: int, quick: bool) -> Prepared:
    """Set-up: generate the trace, compute the oracle, warm up.

    The warm-up is one untimed run of the same configuration on the
    first tenth of the trace with the modeled run length cut to match
    (so it costs ``proc_paced`` a tenth of its schedule, not all of it).
    It must itself match the oracle of its prefix.
    """
    clock = time.perf_counter
    t0 = clock()
    cfg = workload.config(seed, quick)
    trace = make_trace(cfg)
    t1 = clock()
    oracle = naive_window_join(trace, cfg.window_seconds)
    t2 = clock()
    warm_until = 0.1 * cfg.run_seconds
    warm_cfg = cfg.with_(
        run_seconds=warm_until + 3.0 * cfg.dist_epoch, warmup_seconds=0.0
    )
    warm_trace = trace_prefix(trace, warm_until)
    warm = run_once(
        warm_cfg,
        warm_trace,
        naive_window_join(warm_trace, cfg.window_seconds),
        workload.rep_timeout,
    )
    if not warm.ok:
        raise RuntimeError(f"warm-up failed: {warm.error}")
    return Prepared(cfg, trace, oracle, (t1 - t0, t2 - t1, clock() - t2))


def exact_counts(result: RunResult) -> dict[str, float]:
    """Counters read from the RunResult; they repeat exactly on sim."""
    processed = [s["tuples_processed"] for s in result.slaves]
    mean = sum(processed) / len(processed)
    return {
        "master.epochs": result.master["epochs"],
        "master.reorgs": result.master["reorgs"],
        "master.moves_ordered": result.master["moves_ordered"],
        "master.messages": result.master["messages"],
        "master.bytes_sent": result.master["bytes_sent"],
        "slave.splits": sum(s["splits"] for s in result.slaves),
        "slave.merges": sum(s["merges"] for s in result.slaves),
        "slave.max_window_bytes": result.max_window_bytes,
        "slave.skew": max(processed) / mean if mean else 0.0,
        "delay.modeled_mean_s": result.delays.mean,
        "delay.modeled_p99_s": result.delays.percentile(99),
    }
