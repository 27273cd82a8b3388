"""System wiring and the run loop.

:class:`JoinSystem` runs the cluster a :class:`~repro.config.SystemConfig`
describes to completion on the configured backend and returns a
:class:`RunResult` with every metric the paper's evaluation section
reports.

Every backend is a *connector* — its runtime, its transport and how it
waits — around one node host (:class:`~repro.core.host.NodeHost`), and
:func:`assemble_result` builds every backend's result:

``sim``
    The deterministic DES kernel (the default), all nodes in-process.
``thread``
    Every node in-process on one DES kernel paced by the wall clock
    (:class:`~repro.runtime.wall.WallRuntime`), joined by the process
    backend's framed socket-pair channels
    (:class:`~repro.net.proc_transport.LocalMesh`).
``process``
    One OS process per cluster node, socket-pair channels and the
    :mod:`repro.net.wire` codec (:mod:`repro.runtime.process`).
``tcp``
    The process backend over handshaken TCP connections, optionally
    spanning hosts via ``swjoin worker`` (:mod:`repro.runtime.tcp`).

The socket transport and backends import on first use: importing this
module never pulls in the wire codec or the multi-process runtime
stack.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.config import BACKENDS, SystemConfig
from repro.core.cluster import (
    COLLECTOR_ID,
    MASTER_ID,
    slave_node_id,
    standby_node_id,
    trace_meta,
)
from repro.core.host import NodeHost, cluster_node_ids
from repro.core.metrics import DelayStats
from repro.faults.injector import FaultInjector, build_injector
from repro.net.sim_transport import SimTransport
from repro.obs.tracer import NULL_TRACER, Tracer, build_tracer
from repro.runtime.sim import SimRuntime
from repro.runtime.wall import WallRuntime, wall_budget
from repro.simul.kernel import Simulator

__all__ = [
    "JoinSystem",
    "RunResult",
    "assemble_result",
    "MASTER_ID",
    "COLLECTOR_ID",
    "slave_node_id",
]


@dataclasses.dataclass
class RunResult:
    """Everything measured during one run (inside the gate window)."""

    cfg: SystemConfig
    #: Wall duration of the measurement window (seconds).
    duration: float
    #: Merged production-delay statistics over all slaves.
    delays: DelayStats
    #: The collector's independently merged view (must match `delays`).
    collector_delays: DelayStats
    #: Per-slave metric snapshots (ordered by slave index).
    slaves: list[dict[str, t.Any]]
    master: dict[str, t.Any]
    #: Degree-of-declustering trace [(time, n_active)].
    dod_trace: list[tuple[float, int]]
    #: Per-epoch collector timeline [(epoch, outputs, mean_delay_s)].
    delay_timeline: list[tuple[int, int, float]]
    tuples_generated: int
    #: Join output pairs (only in collect_pairs mode).
    pairs: np.ndarray | None = None
    #: Trace records (only with ``obs.trace_memory``).
    trace: list[dict[str, t.Any]] | None = None
    #: Sampled gauge series ``{"n<node>.<gauge>": [(t, v), ...]}``
    #: (only with ``obs.sample_period``).
    series: dict[str, list[tuple[float, float]]] | None = None
    #: Typed view of each node's counters, ``{node id: {name: sample}}``
    #: (see :meth:`~repro.core.cluster.Cluster.node_metrics`).
    node_metrics: dict[int, dict[str, t.Any]] = dataclasses.field(
        default_factory=dict
    )
    #: Slave failures the master detected (fault plane): one record per
    #: dead slave with detection epoch/time, lost pids and — once a
    #: recovery round ran — recovery time and latency.
    faults: list[dict[str, t.Any]] = dataclasses.field(default_factory=list)
    #: Fault-plan injections that actually fired during the run.
    injected_faults: list[dict[str, t.Any]] = dataclasses.field(
        default_factory=list
    )

    # -- headline metrics -------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True when a failure actually lost data: a fault was never
        recovered, or partitions were re-owned with *empty* state (no
        usable replica).  With ``--replication`` every lost partition is
        rebuilt from its backup's checkpoint + log, so a crash alone no
        longer degrades the output."""
        return any(
            f.get("recovered_at") is None or f.get("lost_pids")
            for f in self.faults
        )

    @property
    def recovery_latencies(self) -> list[float]:
        """Detection-to-reassignment latency per recovered failure."""
        return [
            f["recovery_latency"]
            for f in self.faults
            if f.get("recovery_latency") is not None
        ]
    @property
    def avg_delay(self) -> float:
        """Average production delay, seconds (Figures 5, 6, 8, 13)."""
        return self.delays.mean

    @property
    def outputs(self) -> int:
        return self.delays.count

    @property
    def cpu_times(self) -> list[float]:
        return [s["cpu_total"] for s in self.slaves]

    @property
    def avg_cpu_time(self) -> float:
        """Average per-slave CPU time, seconds (Figure 7)."""
        served = self.cpu_times
        return float(np.mean(served)) if served else 0.0

    @property
    def comm_times(self) -> list[float]:
        """Per-slave communication time, seconds (Figures 9-12, 14)."""
        return [s["comm_time"] for s in self.slaves]

    @property
    def avg_comm_time(self) -> float:
        return float(np.mean(self.comm_times)) if self.comm_times else 0.0

    @property
    def aggregate_comm_time(self) -> float:
        return float(np.sum(self.comm_times))

    @property
    def idle_times(self) -> list[float]:
        """Per-slave CPU idle time: measurement window minus join work
        minus communication (Figures 9, 10)."""
        return [
            max(0.0, self.duration - s["cpu_total"] - s["comm_time"])
            for s in self.slaves
        ]

    @property
    def avg_idle_time(self) -> float:
        return float(np.mean(self.idle_times)) if self.idle_times else 0.0

    @property
    def max_window_bytes(self) -> int:
        return max((s["max_window_bytes"] for s in self.slaves), default=0)

    @property
    def final_active_slaves(self) -> int:
        return self.dod_trace[-1][1] if self.dod_trace else self.cfg.n_active_initial

    def to_dict(self) -> dict[str, t.Any]:
        return {
            "avg_delay": self.avg_delay,
            "outputs": self.outputs,
            "avg_cpu_time": self.avg_cpu_time,
            "avg_comm_time": self.avg_comm_time,
            "aggregate_comm_time": self.aggregate_comm_time,
            "avg_idle_time": self.avg_idle_time,
            "max_window_bytes": self.max_window_bytes,
            "duration": self.duration,
            "tuples_generated": self.tuples_generated,
            "slaves": self.slaves,
            "master": self.master,
            "degraded": self.degraded,
            "faults": self.faults,
            "injected_faults": self.injected_faults,
        }

    def summary(self) -> str:
        lines = [
            f"run: rate={self.cfg.rate:g} t/s/stream, "
            f"slaves={self.cfg.num_slaves}, "
            f"fine_tuning={self.cfg.fine_tuning}, "
            f"window={self.cfg.window_seconds:g}s, "
            f"measured={self.duration:g}s",
            f"  outputs: {self.outputs}  "
            f"avg delay: {self.avg_delay:.3f}s  "
            f"(p50={self.delays.percentile(50):.3f}s, "
            f"p99={self.delays.percentile(99):.3f}s)",
            f"  per-slave cpu: {[round(c, 1) for c in self.cpu_times]}s",
            f"  per-slave comm: {[round(c, 2) for c in self.comm_times]}s",
            f"  per-slave idle: {[round(c, 1) for c in self.idle_times]}s",
            f"  max window: {self.max_window_bytes / 1e6:.2f} MB  "
            f"moves: {self.master.get('moves_ordered', 0)}  "
            f"splits: {sum(s['splits'] for s in self.slaves)}  "
            f"merges: {sum(s['merges'] for s in self.slaves)}",
        ]
        if self.dod_trace:
            lines.append(f"  degree-of-declustering trace: {self.dod_trace}")
        if self.degraded:
            latencies = ", ".join(f"{x:.2f}s" for x in self.recovery_latencies)
            unrecovered = sum(
                1 for f in self.faults if f.get("unrecovered_at_halt")
            )
            line = (
                f"  DEGRADED: {len(self.faults)} failure(s), "
                f"recovery latency: [{latencies}]"
            )
            if unrecovered:
                line += f"  unrecovered at halt: {unrecovered}"
            lines.append(line)
        return "\n".join(lines)


def assemble_result(
    cfg: SystemConfig,
    payloads: dict[int, dict[str, t.Any]],
    collect_pairs: bool,
    injected: list[dict[str, t.Any]],
    trace: list[dict[str, t.Any]] | None,
) -> RunResult:
    """Build the :class:`RunResult` of a finished run from its node
    payloads (:meth:`NodeHost.run <repro.core.host.NodeHost.run>`),
    the fault injections that fired and the merged trace.

    The same for every backend.  Every node reports; a crashed one
    reports what it recorded before the crash."""
    master = payloads[MASTER_ID]
    if cfg.standby and payloads[standby_node_id(cfg)]["took_over"]:
        # The master was killed mid-run; the acting master's payload
        # carries the authoritative coordinator state.
        master = payloads[standby_node_id(cfg)]
    collector = payloads[COLLECTOR_ID]

    merged = DelayStats()
    snapshots: list[dict[str, t.Any]] = []
    replicated = cfg.replication != "off"
    # With replication on, the master's banked pairs come first and a
    # slave the master fenced contributes none: its output either was
    # banked or re-emerges from the backup's log replay — keeping its
    # residual chunks would double-count.
    pair_chunks: list[np.ndarray] = (
        list(master["pairs"]) if replicated and collect_pairs else []
    )
    fenced = set(master["master"].get("dead_slaves", ()))
    for i in range(cfg.num_slaves):
        nid = slave_node_id(i)
        payload = payloads[nid]
        merged.merge(payload["delays"])
        snapshots.append(payload["snapshot"])
        if not (replicated and nid in fenced):
            pair_chunks.extend(payload["pairs"])

    pairs: np.ndarray | None = None
    if collect_pairs:
        pairs = (
            np.concatenate(pair_chunks)
            if pair_chunks
            else np.empty((0, 2), dtype=np.int64)
        )

    # Gauge series carry disjoint "n<node>.<gauge>" keys, so the
    # cluster view is a plain dict union.
    series: dict[str, list[tuple[float, float]]] | None = None
    if cfg.obs.sample_period is not None:
        series = {}
        for nid in sorted(payloads):
            node_series = payloads[nid].get("series")
            if node_series:
                series.update(node_series)
    node_metrics = {
        nid: payloads[nid]["metrics"]
        for nid in sorted(payloads)
        if payloads[nid].get("metrics") is not None
    }

    return RunResult(
        cfg=cfg,
        duration=cfg.run_seconds - cfg.warmup_seconds,
        delays=merged,
        collector_delays=collector["delays"],
        slaves=snapshots,
        master=master["master"],
        dod_trace=master["dod_trace"],
        delay_timeline=collector["timeline"],
        tuples_generated=master["tuples_generated"],
        pairs=pairs,
        trace=trace,
        series=series,
        node_metrics=node_metrics,
        faults=master["faults"],
        injected_faults=injected,
    )


class JoinSystem:
    """One fully wired cluster run on the configured backend."""

    def __init__(
        self,
        cfg: SystemConfig,
        collect_pairs: bool = False,
        workload: t.Any = None,
    ) -> None:
        self.cfg = cfg.validated()
        self.collect_pairs = collect_pairs
        self._workload_override = workload

    def run(self) -> RunResult:
        connector = _CONNECTORS[self.cfg.backend]
        return connector(self.cfg, self.collect_pairs, self._workload_override)


def _run_in_process(
    cfg: SystemConfig,
    runtime: t.Any,
    transport: t.Any,
    tracer: Tracer,
    injector: FaultInjector | None,
    wait: t.Callable[[], None],
    collect_pairs: bool,
    workload: t.Any,
) -> RunResult:
    """Host every node in this OS process and assemble the result."""
    host = NodeHost(
        cfg, runtime, transport, tracer, injector,
        workload=workload, collect_pairs=collect_pairs,
    )
    payloads = host.run(wait)
    return assemble_result(
        cfg,
        payloads,
        collect_pairs,
        injector.injected_records() if injector is not None else [],
        tracer.memory_records(),
    )


def _run_sim(
    cfg: SystemConfig, collect_pairs: bool, workload: t.Any
) -> RunResult:
    """The deterministic DES backend (``backend="sim"``)."""
    sim = Simulator()
    tracer = build_tracer(cfg.obs, meta=trace_meta(cfg))
    injector = build_injector(cfg, tracer)
    transport = SimTransport(
        sim,
        cfg.network,
        cfg.tuple_bytes,
        # Transport spans are high-volume; opt in separately.
        tracer=tracer if cfg.obs.trace_transport else NULL_TRACER,
        faults=injector,
    )
    return _run_in_process(
        cfg, SimRuntime(sim), transport, tracer, injector,
        lambda: sim.run(None), collect_pairs, workload,
    )


def _run_thread(
    cfg: SystemConfig, collect_pairs: bool, workload: t.Any
) -> RunResult:
    """Every node on one wall-clocked kernel (``backend="thread"``),
    time compressed by ``cfg.time_scale``."""
    from repro.net.proc_transport import LocalMesh

    runtime = WallRuntime(time_scale=cfg.time_scale)
    tracer = build_tracer(cfg.obs, meta=trace_meta(cfg))
    mesh = LocalMesh(
        cluster_node_ids(cfg),
        cfg.tuple_bytes,
        runtime,
        tracer=tracer if cfg.obs.trace_transport else NULL_TRACER,
    )
    try:
        return _run_in_process(
            cfg, runtime, mesh, tracer, build_injector(cfg, tracer),
            lambda: runtime.run(wall_budget(cfg)),
            collect_pairs, workload,
        )
    finally:
        mesh.close()


def _run_sockets(
    cfg: SystemConfig, collect_pairs: bool, workload: t.Any
) -> RunResult:
    """One OS process per node (``backend="process"`` or ``"tcp"``)."""
    from repro.runtime.process import ProcessBackend
    from repro.runtime.tcp import TcpBackend

    launcher = TcpBackend() if cfg.backend == "tcp" else ProcessBackend()
    return launcher.run(cfg, collect_pairs, workload)


#: Backend name -> its connector, in :data:`~repro.config.BACKENDS` order.
_CONNECTORS = dict(
    zip(BACKENDS, (_run_sim, _run_thread, _run_sockets, _run_sockets), strict=True)
)
