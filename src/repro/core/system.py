"""System wiring and the run loop.

:class:`JoinSystem` assembles a cluster — master, slaves, collector,
transport — from a :class:`~repro.config.SystemConfig`, runs it to
completion on the configured backend, and returns a :class:`RunResult`
with every metric the paper's evaluation section reports.

Backends live in a registry keyed by ``SystemConfig.backend``:

``sim``
    The deterministic DES kernel (:class:`SimBackend`, the default).
``thread``
    One OS thread per node generator, wall-clock time
    (:class:`~repro.runtime.thread.ThreadBackend`).
``process``
    One OS process per cluster node, socket-pair channels and the
    :mod:`repro.net.wire` codec
    (:class:`~repro.runtime.process.ProcessBackend`).
``tcp``
    The process backend with handshaken TCP connections for sockets,
    optionally spanning multiple hosts via ``swjoin worker``
    (:class:`~repro.runtime.tcp.TcpBackend`).

The non-default backends are registered through lazy factories so that
importing this module never pulls in the wall-clock runtime stack.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.config import SystemConfig
from repro.core.cluster import (
    COLLECTOR_ID,
    MASTER_ID,
    Cluster,
    build_cluster,
    slave_node_id,
    trace_meta,
)
from repro.core.metrics import DelayStats
from repro.errors import ConfigError, DeadlockError
from repro.net.sim_transport import SimTransport
from repro.obs.tracer import NULL_TRACER, build_tracer
from repro.runtime.sim import SimRuntime
from repro.simul.kernel import Simulator

__all__ = [
    "JoinSystem",
    "RunResult",
    "Backend",
    "SimBackend",
    "register_backend",
    "available_backends",
    "get_backend",
    "collect_result",
    "master_snapshot",
    "start_admin_server",
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


class Backend(t.Protocol):
    """A runtime backend: executes one configured cluster to completion."""

    name: str

    def run(
        self,
        cfg: SystemConfig,
        collect_pairs: bool = False,
        workload: t.Any = None,
    ) -> "RunResult": ...  # pragma: no cover - protocol


#: name -> zero-arg factory.  Factories, not instances, so the thread
#: and process backends import lazily (registration is cheap, the
#: runtime stack loads only when actually selected).
_BACKEND_FACTORIES: dict[str, t.Callable[[], Backend]] = {}


def register_backend(name: str, factory: t.Callable[[], Backend]) -> None:
    """Register (or replace) a runtime backend under *name*."""
    _BACKEND_FACTORIES[name] = factory


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKEND_FACTORIES)


def get_backend(name: str) -> Backend:
    """Instantiate the backend registered under *name*.

    Raises :class:`~repro.errors.ConfigError` for unknown names, listing
    what is available.
    """
    factory = _BACKEND_FACTORIES.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    return factory()


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
        backend = get_backend(self.cfg.backend)
        if self.cfg.obs.enabled and not getattr(
            backend, "supports_observability", False
        ):
            raise ConfigError(
                f"backend {self.cfg.backend!r} does not support the "
                "observability plane (tracing/sampling/admin); it must "
                "declare supports_observability=True and ship traces to "
                "the caller"
            )
        return backend.run(
            self.cfg, self.collect_pairs, self._workload_override
        )


class SimBackend:
    """The deterministic DES backend (``backend="sim"``)."""

    name = "sim"
    supports_observability = True

    def run(
        self,
        cfg: SystemConfig,
        collect_pairs: bool = False,
        workload: t.Any = None,
    ) -> RunResult:
        sim = Simulator()
        runtime = SimRuntime(sim)
        tracer = build_tracer(cfg.obs, meta=trace_meta(cfg))
        injector = None
        if cfg.faults.enabled:
            # Local import: repro.config -> repro.faults.plan must stay
            # a one-way street (the injector pulls in the obs layer).
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(
                cfg.faults,
                [slave_node_id(i) for i in range(cfg.num_slaves)],
                cfg.dist_epoch,
                tracer=tracer,
            )
        transport = SimTransport(
            sim,
            cfg.network,
            cfg.tuple_bytes,
            # Transport spans are high-volume; opt in separately.
            tracer=tracer if cfg.obs.trace_transport else NULL_TRACER,
            faults=injector,
        )
        cluster = build_cluster(
            cfg,
            runtime,
            transport,
            workload=workload,
            collect_pairs=collect_pairs,
            tracer=tracer,
            faults=injector,
        )

        processes = [
            sim.process(gen, name=name) for name, gen in cluster.processes()
        ]
        if injector is not None:
            # Crash processes need the victims' Process handles: kill
            # every process whose name is "slave<node_id>.<kind>".
            by_node: dict[int, list[t.Any]] = {}
            for proc in processes:
                name = proc.name
                if name.startswith("slave"):
                    nid = int(name[len("slave"): name.index(".")])
                    by_node.setdefault(nid, []).append(proc)
                elif name == "master":
                    by_node.setdefault(MASTER_ID, []).append(proc)
            for nid, crash in injector.crash_targets():
                sim.process(
                    injector.crash_process(
                        nid, crash, runtime, transport, by_node.get(nid, ())
                    ),
                    name=f"fault.crash{nid}",
                )
        admin = start_admin_server(cfg, cluster, runtime.now, self.name)
        try:
            sim.run(None)
        finally:
            if admin is not None:
                admin.close()
        stuck = [p.name for p in processes if p.is_alive]
        if stuck:
            pending = transport.pending_summary()
            detail = (
                f"; pending channel ops: {'; '.join(pending)}" if pending else ""
            )
            raise DeadlockError(f"processes never finished: {stuck}{detail}")

        return collect_result(cfg, cluster, collect_pairs)


def start_admin_server(
    cfg: SystemConfig,
    cluster: "Cluster",
    now_fn: t.Callable[[], float],
    backend: str,
) -> t.Any:
    """Start the opt-in admin/health endpoint for a running cluster.

    Returns the :class:`~repro.obs.admin.AdminServer` (caller must
    ``close()`` it) or ``None`` when ``cfg.obs.admin_port`` is unset.
    Shared by every backend: the server is hosted by whichever OS
    process runs the master node.
    """
    if cfg.obs.admin_port is None:
        return None
    from repro.obs.admin import AdminServer, cluster_status
    from repro.obs.metrics import render_prometheus

    def status() -> dict[str, t.Any]:
        return cluster_status(cfg, cluster, now_fn, backend)

    def metrics() -> str:
        return render_prometheus(cluster.node_metrics())

    return AdminServer(status, metrics, port=cfg.obs.admin_port, announce=True)


def _thread_backend() -> Backend:
    from repro.runtime.thread import ThreadBackend

    return ThreadBackend()


def _process_backend() -> Backend:
    from repro.runtime.process import ProcessBackend

    return ProcessBackend()


def _tcp_backend() -> Backend:
    from repro.runtime.tcp import TcpBackend

    return TcpBackend()


register_backend("sim", SimBackend)
register_backend("thread", _thread_backend)
register_backend("process", _process_backend)
register_backend("tcp", _tcp_backend)


def master_snapshot(cluster: "Cluster") -> dict[str, t.Any]:
    """Master-side metric snapshot (shared by every backend; the
    multi-process backends pickle this dict over the control channel).

    Reads through :attr:`Cluster.acting_master`: after a standby
    takeover the authoritative coordinator state — partition mapping,
    dead set, failure records — lives in the standby's shadow master.
    """
    acting = cluster.acting_master
    master_metrics = acting.metrics
    return {
        "comm_time": master_metrics.comm_time,
        "idle_time": master_metrics.idle_time,
        "bytes_sent": master_metrics.bytes_sent,
        "bytes_received": master_metrics.bytes_received,
        "messages": master_metrics.messages,
        "max_buffer_bytes": master_metrics.max_buffer_bytes,
        "tuples_ingested": master_metrics.tuples_ingested,
        "epochs": master_metrics.epochs,
        "reorgs": master_metrics.reorgs,
        "moves_ordered": master_metrics.moves_ordered,
        "supplier_counts": master_metrics.supplier_counts,
        "failures": master_metrics.failures,
        "dead_slaves": sorted(acting.dead),
        "partition_owners": dict(sorted(acting.buffer.mapping.items())),
        "replication_bytes": master_metrics.replication_bytes,
    }


def collect_result(
    cfg: SystemConfig, cluster: "Cluster", collect_pairs: bool
) -> RunResult:
    """Assemble a :class:`RunResult` from a finished cluster's metrics
    (shared by the sim and thread backends)."""
    merged = DelayStats()
    for metrics in cluster.slave_metrics:
        merged.merge(metrics.delays)

    acting = cluster.acting_master

    pairs: np.ndarray | None = None
    if collect_pairs:
        replicated = cfg.replication != "off"
        # With replication on, a dead slave's residual chunks are
        # *dropped*: its pre-checkpoint pairs are already banked at the
        # master and the rest re-emerge from the backup's log replay —
        # keeping them would double-count.  (The process backend cannot
        # read a killed slave's memory at all, so this also makes the
        # sim/thread result match it exactly.)
        chunks = list(acting.pair_rows) if replicated else []
        dead = acting.dead if replicated else set()
        for i, m in enumerate(cluster.slave_metrics):
            if slave_node_id(i) in dead:
                continue
            chunks.extend(m.pair_chunks())
        pairs = (
            np.concatenate(chunks)
            if chunks
            else np.empty((0, 2), dtype=np.int64)
        )

    master_metrics = acting.metrics

    trace = cluster.tracer.memory_records()
    series = (
        cluster.sampler.series_dict() if cluster.sampler is not None else None
    )
    cluster.tracer.close()

    workload = acting.workload
    return RunResult(
        cfg=cfg,
        duration=cfg.run_seconds - cfg.warmup_seconds,
        delays=merged,
        collector_delays=cluster.collector.delays,
        slaves=[m.snapshot() for m in cluster.slave_metrics],
        master=master_snapshot(cluster),
        dod_trace=list(master_metrics.dod_changes),
        delay_timeline=cluster.collector.timeline_rows(),
        tuples_generated=workload.tuples_generated
        if hasattr(workload, "tuples_generated")
        else master_metrics.tuples_ingested,
        pairs=pairs,
        trace=trace,
        series=series,
        node_metrics=cluster.node_metrics(),
        faults=list(master_metrics.failures),
        injected_faults=(
            cluster.faults.injected_records() if cluster.faults else []
        ),
    )
