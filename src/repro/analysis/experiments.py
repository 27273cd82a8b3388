"""Canned experiments: one per table/figure of the paper.

:data:`EXPERIMENTS` is one table with an :class:`Entry` per figure, and
:func:`run_experiment` runs an entry's sweep into an
:class:`~repro.analysis.series.Experiment` whose rows are the same
series the figure plots.  All experiments run at a reduced geometric
scale (default ``sigma = 0.05``: 30 s windows, 60 s runs) —
:meth:`~repro.config.SystemConfig.scaled` keeps saturation rates and
split behaviour identical to the full-scale system, while absolute
"seconds of overhead per run" shrink by ``sigma`` (multiply by
``1/sigma`` to compare against the paper's 20-minute numbers).

``quick=True`` coarsens the sweep grids (used by the pytest-benchmark
harness); the full grids match the figures' x-axes.
"""

from __future__ import annotations

import dataclasses
import functools
import typing as t
from itertools import product

import numpy as np

from repro.analysis.series import Experiment
from repro.baselines import AtrSystem, CtrSystem, no_fine_tuning
from repro.baselines.framework import BaselineResult
from repro.config import MIB, SystemConfig
from repro.core.subgroups import max_master_buffer_bytes
from repro.core.system import JoinSystem, RunResult

DEFAULT_SCALE = 0.05


def base_config(scale: float = DEFAULT_SCALE) -> SystemConfig:
    """Table I defaults at the requested geometric scale."""
    cfg = SystemConfig.paper_defaults()
    return cfg.scaled(scale) if scale != 1.0 else cfg


@functools.cache
def _run(cfg: SystemConfig) -> RunResult:
    # A run is deterministic per config, and figures share sweep points
    # (fig13's are fig14's; fig07's are fig09's, fig10's and fig12's):
    # each config runs once per process.
    return JoinSystem(cfg).run()


def _rates(lo: int, hi: int, step: int, quick: bool) -> list[int]:
    rates = list(range(lo, hi + 1, step))
    if quick:
        # Keep both endpoints (saturation lives at the top of the grid)
        # plus the midpoint.
        return sorted({rates[0], rates[len(rates) // 2], rates[-1]})
    return rates


@dataclasses.dataclass(frozen=True)
class Entry:
    """One table/figure: what it shows, and the sweep that reproduces it."""

    name: str
    title: str
    expectation: str
    columns: list[str]
    #: The sweep points: the full grid, or the coarse one when quick.
    grid: t.Callable[[bool], t.Iterable[t.Any]]
    #: The config a point runs.
    config: t.Callable[[SystemConfig, t.Any], SystemConfig]
    #: Adds a point's row(s); a row that needs more runs makes them here.
    row: t.Callable[[Experiment, t.Any, SystemConfig, RunResult], None]
    #: The figure's fixed settings, applied to Table I at the run's scale.
    base: t.Callable[[SystemConfig], SystemConfig] = lambda c: c


def _add(exp: Experiment, *values: t.Any) -> None:
    exp.add(**dict(zip(exp.columns, values, strict=True)))


def _fig11_row(exp: Experiment, n: int, cfg: SystemConfig, r: RunResult) -> None:
    # The adaptive system sheds one node per reorganization epoch;
    # let it settle before the measurement window opens so the
    # comparison reflects steady state (as the paper's runs do),
    # not the one-off state-movement cost of shrinking.
    settle = max(cfg.warmup_seconds, (n + 1) * cfg.reorg_epoch)
    duration = cfg.run_seconds - cfg.warmup_seconds
    adaptive = _run(cfg.with_(
        adaptive_declustering=True, warmup_seconds=settle, run_seconds=settle + duration
    ))
    active = [s for s in adaptive.slaves if s["comm_time"] > 0]
    _add(exp, n, r.avg_comm_time, r.aggregate_comm_time, adaptive.aggregate_comm_time)
    exp.notes.append(
        f"adaptive with {n} nodes available settled on {adaptive.final_active_slaves}"
        f" active ({len(active)} slaves saw traffic)"
    )


def _fig12_row(exp: Experiment, rate: int, _: SystemConfig, r: RunResult) -> None:
    # Per-slave communication time includes the rendezvous wait for
    # the master's serial distribution — that wait is exactly what
    # makes the paper's per-slave comm times diverge (a slave may
    # idle while the master serves the slaves before it).
    comms = [s["comm_time"] + s["idle_time"] for s in r.slaves]
    _add(exp, rate, min(comms), float(np.mean(comms)), max(comms))


_EPOCHS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0)


def _epoch_cfg(cfg: SystemConfig, td: float) -> SystemConfig:
    """Vary the distribution epoch, stretching short runs so every
    epoch length still fits several epochs past warm-up."""
    return cfg.with_(
        dist_epoch=td, reorg_epoch=max(20.0, 10 * td),
        run_seconds=max(cfg.run_seconds, cfg.warmup_seconds + 12 * td),
    )


def _fig14_row(exp: Experiment, td: float, cfg: SystemConfig, r: RunResult) -> None:
    # Runs for long epochs are stretched; normalize the cumulative
    # communication time back to the common measurement duration.
    common = base_config(cfg.scale)
    duration = common.run_seconds - common.warmup_seconds
    _add(exp, td, r.avg_comm_time * (duration / (cfg.run_seconds - cfg.warmup_seconds)))


def _memory_cfg(cfg: SystemConfig, fraction: float | None) -> SystemConfig:
    # Per-slave steady-state window share (both streams).
    share = int(2 * cfg.rate * cfg.window_seconds * cfg.tuple_bytes / cfg.num_slaves)
    memory = None if fraction is None else max(cfg.block_bytes, int(share * fraction))
    return cfg.with_(slave_memory_bytes=memory)


def _baselines_row(exp: Experiment, p: t.Any, c: SystemConfig, r: RunResult) -> None:
    runs: list[tuple[str, RunResult | BaselineResult]] = [
        ("ours", r), ("atr", AtrSystem(c).run()), ("ctr", CtrSystem(c).run())
    ]
    for label, res in runs:
        received = sum(s["bytes_received"] for s in res.slaves)
        _add(exp, *p, label, res.avg_delay, res.max_window_bytes / 1e6, received / 1e6)


EXPERIMENTS: dict[str, Entry] = {e.name: e for e in (
    Entry(
        "fig05", "Average delay vs stream arrival rate (1-2 slaves)",
        "Per slave count, delay stays low and flat until the load saturates the "
        "system, then rises sharply; the saturation rate roughly doubles from 1 slave "
        "(~1500-2000 t/s) to 2 (~3000-3500 t/s).",
        ["slaves", "rate", "avg_delay_s"],
        grid=lambda q: product((1, 2), _rates(1000, 3500, 500, q)),
        config=lambda c, p: c.with_(num_slaves=p[0], rate=float(p[1])),
        row=lambda exp, p, _, r: _add(exp, *p, r.avg_delay),
    ),
    Entry(
        "fig06", "Average delay vs stream arrival rate (3-5 slaves)",
        "Same shape as Figure 5 at higher capacity: saturation near 4500-5000 t/s "
        "with 3 slaves, ~6000 with 4, ~7500-8000 with 5.",
        ["slaves", "rate", "avg_delay_s"],
        grid=lambda q: product((3, 4, 5), _rates(1000, 8000, 1000, q)),
        config=lambda c, p: c.with_(num_slaves=p[0], rate=float(p[1])),
        row=lambda exp, p, _, r: _add(exp, *p, r.avg_delay),
    ),
    Entry(
        "fig07", "Average CPU time vs rate, with and without fine tuning (4 slaves)",
        "Without fine tuning, per-probe scans grow with the window partitions and CPU "
        "time rises sharply with rate (hitting the capacity ceiling near 4000 t/s); "
        "with fine tuning the scan is bounded by [theta, 2*theta] and CPU grows "
        "roughly linearly, staying well below the no-tuning curve.",
        ["rate", "fine_tuning", "avg_cpu_s"],
        base=lambda c: c.with_(num_slaves=4),
        grid=lambda q: product(_rates(1500, 6000, 500, q), (False, True)),
        config=lambda c, p: c.with_(rate=float(p[0]), fine_tuning=p[1]),
        row=lambda exp, p, _, r: _add(exp, *p, r.avg_cpu_time),
    ),
    Entry(
        "fig08", "Average delay vs rate without fine tuning (4 slaves)",
        "Delay blows up near 4000 t/s — versus ~2 s at the same rate with fine tuning "
        "(compare Figure 6's 4-slave curve).",
        ["rate", "avg_delay_s"],
        # Saturation delay accumulates over time; give the overload room to
        # build up (the paper measures over a 10-minute window).
        base=lambda c: no_fine_tuning(c.with_(num_slaves=4)).with_(
            run_seconds=c.warmup_seconds + 3 * (c.run_seconds - c.warmup_seconds)
        ),
        grid=lambda q: _rates(1500, 4000, 500, q),
        config=lambda c, rate: c.with_(rate=float(rate)),
        row=lambda exp, rate, _, r: _add(exp, rate, r.avg_delay),
    ),
    Entry(
        "fig09", "Idle time and communication overhead vs rate "
        "(no fine tuning, 4 slaves)",
        "Idle time falls to ~zero at ~4000 t/s (saturation); communication overhead "
        "grows mildly and is unaffected by (absent) tuning.",
        ["rate", "idle_s", "comm_s"],
        base=lambda c: c.with_(num_slaves=4, fine_tuning=False),
        grid=lambda q: _rates(1500, 4000, 500, q),
        config=lambda c, rate: c.with_(rate=float(rate)),
        row=lambda exp, rate, _, r: _add(exp, rate, r.avg_idle_time, r.avg_comm_time),
    ),
    Entry(
        "fig10", "Idle time and communication overhead vs rate "
        "(fine tuning, 4 slaves)",
        "With fine tuning the idle time reaches ~zero only near 6000 t/s; the tuning "
        "itself incurs no communication overhead (the comm curve matches Figure 9 at "
        "equal rates).",
        ["rate", "idle_s", "comm_s"],
        base=lambda c: c.with_(num_slaves=4, fine_tuning=True),
        grid=lambda q: _rates(1500, 6000, 500, q),
        config=lambda c, rate: c.with_(rate=float(rate)),
        row=lambda exp, rate, _, r: _add(exp, rate, r.avg_idle_time, r.avg_comm_time),
    ),
    Entry(
        "fig11", "Communication overhead vs total nodes (rate 1500 t/s)",
        "Per-node communication time decreases with more nodes (payload splits N "
        "ways) while the aggregate over all slaves increases roughly linearly "
        "(per-message overhead multiplies).  The adaptive variant keeps the degree of "
        "declustering low at this light load, so its aggregate stays near the small-N "
        "value.",
        ["nodes", "per_node_s", "aggregate_s", "adaptive_aggregate_s"],
        base=lambda c: c.with_(rate=1500.0),
        grid=lambda q: (1, 3, 5) if q else (1, 2, 3, 4, 5),
        config=lambda c, n: c.with_(num_slaves=n),
        row=_fig11_row,
    ),
    Entry(
        "fig12", "Communication overhead vs rate (min/max/avg over 4 slaves)",
        "Communication time grows with rate (payload per epoch grows).  The serial "
        "distribution order makes it non-uniform across slaves, and the divergence "
        "(max-min) widens with rate.",
        ["rate", "min_s", "avg_s", "max_s"],
        base=lambda c: c.with_(num_slaves=4),
        grid=lambda q: _rates(1500, 6000, 500, q),
        config=lambda c, rate: c.with_(rate=float(rate)),
        row=_fig12_row,
    ),
    Entry(
        "fig13", "Average production delay vs distribution epoch (3 slaves)",
        "Delay decreases roughly linearly as the epoch shrinks (tuples wait ~half an "
        "epoch at the master before distribution).",
        ["dist_epoch_s", "avg_delay_s"],
        base=lambda c: c.with_(num_slaves=3, rate=1500.0),
        grid=lambda q: _EPOCHS[::3] if q else _EPOCHS,
        config=_epoch_cfg,
        row=lambda exp, td, _, r: _add(exp, td, r.avg_delay),
    ),
    Entry(
        "fig14", "Communication overhead vs distribution epoch (3 slaves)",
        "Shorter epochs mean more messages for the same payload, so per-slave "
        "communication overhead rises steeply as the epoch shrinks (the tradeoff "
        "against Figure 13's delay).",
        ["dist_epoch_s", "comm_s"],
        base=lambda c: c.with_(num_slaves=3, rate=1500.0),
        grid=lambda q: _EPOCHS[::3] if q else _EPOCHS,
        config=_epoch_cfg,
        row=_fig14_row,
    ),
    Entry(
        "subgroup_buffer", "Master buffer peak vs number of sub-groups (Section V-B)",
        "The measured peak master buffer tracks the analytic bound M_buf = "
        "(r*t_d/2)(1 + 1/ng) per stream: about half the single-group peak as ng "
        "grows.",
        ["subgroups", "measured_peak_bytes", "analytic_bound_bytes"],
        # Reorganization epochs collapse the slot structure (all slaves
        # sync at the epoch boundary), which would mask the sub-group
        # buffer saving; push reorgs past the run to measure V-B cleanly.
        base=lambda c: c.with_(
            num_slaves=4, rate=3000.0, reorg_epoch=10 * c.run_seconds
        ),
        grid=lambda q: (1, 2, 4),
        config=lambda c, ng: c.with_(num_subgroups=ng),
        row=lambda exp, ng, c, r: _add(exp, ng, r.master["max_buffer_bytes"], int(
            max_master_buffer_bytes(c.rate, c.dist_epoch, ng, c.tuple_bytes)
        )),
    ),
    # Ablations beyond the paper's figures (DESIGN.md A1-A5).
    Entry(
        "ablation_theta", "Sensitivity to the partition tuning parameter theta",
        "Too large a theta behaves like no tuning (long scans); very small theta adds "
        "split churn with diminishing returns — CPU time is minimized at an "
        "intermediate value.",
        ["theta_mb_fullscale", "avg_cpu_s", "avg_delay_s", "splits"],
        base=lambda c: c.with_(num_slaves=4, rate=5000.0),
        grid=lambda q: (0.25, 1.5, 6.0) if q else (0.25, 0.5, 1.0, 1.5, 3.0, 6.0),
        config=lambda c, mb: c.with_(
            theta_bytes=max(c.block_bytes, int(mb * MIB * c.scale))
        ),
        row=lambda exp, mb, _, r: _add(
            exp, mb, r.avg_cpu_time, r.avg_delay, sum(s["splits"] for s in r.slaves)
        ),
    ),
    Entry(
        "ablation_npart", "Level of indirection: number of hash partitions",
        "Very few partitions limit balance granularity (load balancing moves huge "
        "chunks); very many add bookkeeping. Delay is flat over a wide middle range — "
        "the paper's 60 is uncritical.",
        ["npart", "avg_delay_s", "avg_cpu_s", "moves"],
        base=lambda c: c.with_(num_slaves=4, rate=4000.0),
        grid=lambda q: (12, 60, 120) if q else (12, 30, 60, 120, 240),
        config=lambda c, npart: c.with_(npart=npart),
        row=lambda exp, npart, _, r: _add(
            exp, npart, r.avg_delay, r.avg_cpu_time, r.master["moves_ordered"]
        ),
    ),
    Entry(
        "ablation_thresholds", "Supplier threshold sensitivity",
        "On a non-dedicated cluster (one slave at 45% speed due to background load), "
        "a lower supplier threshold triggers rebalancing earlier and sheds more "
        "groups off the slow node; an overly high threshold leaves the imbalance "
        "uncorrected and raises delay.",
        ["th_sup", "avg_delay_s", "moves"],
        # The paper's motivating scenario: heterogeneous background load.
        # Rebalancing converges one group per reorganization, so run long
        # enough for several reorganizations inside the measurement.
        base=lambda c: c.with_(
            num_slaves=4, rate=3500.0, slave_speeds=(1.0, 1.0, 0.45, 1.0),
            warmup_seconds=2 * c.reorg_epoch,
            run_seconds=2 * c.reorg_epoch + 6 * c.reorg_epoch,
        ),
        grid=lambda q: (0.1, 0.5, 0.9) if q else (0.05, 0.1, 0.3, 0.5, 0.7, 0.9),
        config=lambda c, th: c.with_(th_sup=th),
        row=lambda exp, th, _, r: _add(exp, th, r.avg_delay, r.master["moves_ordered"]),
    ),
    Entry(
        "ablation_beta", "Degree-of-declustering granularity parameter beta",
        "Small beta recruits new nodes eagerly (growth triggers even when plenty of "
        "consumers could absorb the load); large beta grows only reluctantly.  The "
        "observable effect is the *time* the cluster takes to reach its final size — "
        "eager betas get there sooner.  Beta only bites when suppliers and consumers "
        "coexist, so the cluster is heterogeneous (non-dedicated nodes at different "
        "speeds).",
        ["beta", "final_active", "t_last_growth_s", "avg_delay_s"],
        base=lambda c: c.with_(
            # One slow (background-loaded) supplier among fast consumers,
            # plus a spare node: whether the spare is recruited is exactly
            # the N_sup > beta * N_con comparison.
            num_slaves=5, rate=2800.0, slave_speeds=(0.4, 1.0, 1.0, 1.0, 1.0),
            adaptive_declustering=True, initial_active_slaves=4,
            # Growth decisions happen once per reorganization; give each
            # configuration enough reorganizations to express its beta.
            warmup_seconds=2 * c.reorg_epoch, run_seconds=10 * c.reorg_epoch,
        ),
        grid=lambda q: (0.1, 0.5, 0.9) if q else (0.1, 0.3, 0.5, 0.7, 0.9),
        config=lambda c, beta: c.with_(beta=beta),
        row=lambda exp, beta, _, r: _add(
            exp, beta, r.final_active_slaves,
            r.dod_trace[-1][0] if r.dod_trace else 0.0, r.avg_delay,
        ),
    ),
    Entry(
        "ablation_memory", "Memory-limited slaves: disk spill (the paper's disk-I/O "
        "future work)",
        "With enough memory, nothing spills and performance matches the in-memory "
        "system.  As per-slave memory drops below the window share, probes pay disk "
        "reads on the spilled fraction: CPU+I/O time rises and so does delay once the "
        "node saturates.",
        ["memory_over_window", "avg_delay_s", "avg_busy_s", "disk_gb_read"],
        base=lambda c: c.with_(num_slaves=4, rate=3000.0),
        grid=lambda q: (None, 0.5, 0.25) if q else (None, 1.0, 0.5, 0.25, 0.125),
        config=_memory_cfg,
        row=lambda exp, fraction, _, r: _add(
            exp, float("inf") if fraction is None else fraction, r.avg_delay,
            r.avg_cpu_time, sum(s["disk_bytes_read"] for s in r.slaves) / 1e9,
        ),
    ),
    Entry(
        "baselines_skew", "Ours vs ATR vs CTR (4 slaves): fair load and stress load",
        "At a rate one node can absorb (1200 t/s), ATR works but concentrates ~the "
        "whole two-stream window on the segment node (max window per node is ~N times "
        "ours).  At a rate that needs the cluster (3000 t/s), ATR's "
        "one-node-at-a-time processing saturates and its delay explodes while ours "
        "stays flat.  CTR forwards every tuple to every node, paying ~Nx our network "
        "bytes at any rate.",
        ["b_skew", "rate", "system", "avg_delay_s", "max_window_mb", "slave_bytes_mb"],
        base=lambda c: c.with_(num_slaves=4),
        grid=lambda q: product((0.7,) if q else (0.5, 0.7, 0.9), (1200.0, 3000.0)),
        config=lambda c, p: c.with_(b_skew=p[0], rate=p[1]),
        row=_baselines_row,
    ),
)}


def run_experiment(
    name: str, scale: float = DEFAULT_SCALE, quick: bool = False
) -> Experiment:
    """Run one named experiment (see :data:`EXPERIMENTS`)."""
    try:
        entry = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    exp = Experiment(entry.name, entry.title, entry.expectation, list(entry.columns))
    base = entry.base(base_config(scale))
    for point in entry.grid(quick):
        cfg = entry.config(base, point)
        entry.row(exp, point, cfg, _run(cfg))
    return exp
