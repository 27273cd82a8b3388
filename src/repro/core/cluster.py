"""Backend-agnostic cluster wiring.

:func:`build_cluster` assembles master, slaves and collector around any
runtime/transport pair — the DES backend (used by
:class:`~repro.core.system.JoinSystem`), or the thread backend (used by
the live examples and the cross-backend tests).
"""

from __future__ import annotations

import typing as t

from repro.config import SystemConfig
from repro.core.buffer import MasterBuffer
from repro.core.collector import CollectorNode
from repro.core.costmodel import CostModel
from repro.core.declustering import DeclusteringController
from repro.core.join_module import JoinModule
from repro.core.master import MasterNode
from repro.core.metrics import (
    CommAccount,
    MasterMetrics,
    MeasurementWindow,
    SlaveMetrics,
)
from repro.core.partition_group import JoinGeometry
from repro.core.slave import SlaveNode
from repro.core.standby import StandbyNode
from repro.core.subgroups import build_schedules
from repro.errors import ConfigError
from repro.mp.comm import Communicator
from repro.obs.events import SampleEvent
from repro.obs.metrics import gauge
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.tracer import Tracer, build_tracer
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

MASTER_ID = 0
COLLECTOR_ID = 1


def slave_node_id(index: int) -> int:
    """Node id of the *index*-th slave (master=0, collector=1)."""
    return 2 + index


def standby_node_id(cfg: SystemConfig) -> int:
    """Node id of the standby coordinator (one past the last slave)."""
    return slave_node_id(cfg.num_slaves)


class Cluster(t.NamedTuple):
    """Everything :func:`build_cluster` wires together."""

    master: MasterNode
    slaves: list[SlaveNode]
    collector: CollectorNode
    master_metrics: MasterMetrics
    slave_metrics: list[SlaveMetrics]
    collector_metrics: CommAccount
    buffer: MasterBuffer
    workload: t.Any
    gate: MeasurementWindow
    tracer: Tracer
    sampler: TimeSeriesSampler | None
    #: Shared fault injector (None on fault-free runs).
    faults: "FaultInjector | None" = None
    #: The transport the nodes were wired on.
    transport: t.Any = None
    #: When set, this cluster object lives in a process that *runs*
    #: only this node (the socket backends): the sampler and
    #: :meth:`node_metrics` read only the local node's state — foreign
    #: node objects exist but never run.
    local_node: int | None = None
    #: Hot-standby coordinator (None unless ``cfg.standby``).
    standby: StandbyNode | None = None

    @property
    def acting_master(self) -> MasterNode:
        """The coordinator currently driving the run.

        The real master until a takeover; the standby's shadow master
        after it — reporting and admin surfaces read through this so
        post-failover state is attributed to the node that owns it.
        """
        if self.standby is not None and self.standby.took_over:
            return self.standby.master
        return self.master

    def processes(self) -> list[tuple[str, t.Generator]]:
        """All node generators, named, ready to spawn on a runtime."""
        out = [("master", self.master.run())]
        if self.standby is not None:
            out.append(("standby", self.standby.run()))
        for slave in self.slaves:
            for i, gen in enumerate(slave.processes()):
                kind = ("comm", "join")[i]
                out.append((f"slave{slave.node_id}.{kind}", gen))
        for i, gen in enumerate(self.collector.processes()):
            out.append((f"collector.recv{i}", gen))
        if self.sampler is not None:
            out.append(("sampler", self._sampler_loop()))
        return out

    def _samples_node(self, node_id: int) -> bool:
        return self.local_node is None or self.local_node == node_id

    def node_metrics(self) -> dict[int, dict[str, dict[str, t.Any]]]:
        """Typed view of the run's counters, ``{node id: {name: sample}}``
        (:mod:`repro.obs.metrics`), built from the plain attributes on
        demand — ``/metrics``, ``--metrics`` and ``RunResult.node_metrics``
        all read this.  The collector reports no series."""
        coordinators = [self.master]
        if self.standby is not None:
            coordinators.append(self.standby.master)
        out: dict[int, dict[str, dict[str, t.Any]]] = {}
        for node in coordinators:
            node_id = node.comm.node_id
            if self._samples_node(node_id):
                out[node_id] = node.metrics.series()
                out[node_id]["dead_slaves"] = gauge(len(node.dead))
        for slave in self.slaves:
            if self._samples_node(slave.node_id):
                out[slave.node_id] = slave.metrics.series()
        if self.local_node in out:
            # One node per process means a socket transport, which
            # tallies the frames and bytes it moved per peer.
            out[self.local_node].update(self.transport.series())
        return out

    # -- periodic gauge sampling ----------------------------------------------
    def _sample_all(self, now: float) -> None:
        """Record one gauge sample per node (and trace it when on)."""
        sampler, tracer = self.sampler, self.tracer
        assert sampler is not None
        cfg = self.master.cfg
        for slave in self.slaves:
            if not self._samples_node(slave.node_id):
                continue
            module, metrics = slave.module, slave.metrics
            gauges = {
                "occupancy": module.occupancy(cfg.slave_buffer_bytes),
                "window_bytes": float(module.window_bytes),
                "pending_bytes": float(module.pending_bytes),
                "queue_depth": float(len(slave.work_queue)),
                "cpu_total": metrics.cpu_total,
                "cpu_probe": metrics.cpu_probe,
            }
            for gauge, value in gauges.items():
                sampler.observe(now, slave.node_id, gauge, value)
            if tracer.enabled:
                tracer.emit(
                    SampleEvent(t=now, node=slave.node_id, gauges=gauges)
                )
        if self._samples_node(MASTER_ID):
            master_gauges = {"buffer_bytes": float(self.buffer.total_bytes)}
            sampler.observe(
                now, MASTER_ID, "buffer_bytes", self.buffer.total_bytes
            )
            if tracer.enabled:
                tracer.emit(
                    SampleEvent(t=now, node=MASTER_ID, gauges=master_gauges)
                )
        if self._samples_node(COLLECTOR_ID):
            # One gauge from the collector too, so a merged distributed
            # trace provably contains every node pid.
            collector_gauges = {"outputs": float(self.collector.delays.count)}
            sampler.observe(
                now, COLLECTOR_ID, "outputs", self.collector.delays.count
            )
            if tracer.enabled:
                tracer.emit(
                    SampleEvent(t=now, node=COLLECTOR_ID, gauges=collector_gauges)
                )

    def _sampler_loop(self) -> t.Generator:
        """Sampling process: reads state, never mutates it, terminates.

        Ticks are offset by half a period so they never coincide with
        epoch boundaries — sampling must not perturb the ordering of
        the simulation's own events.
        """
        sampler = self.sampler
        assert sampler is not None
        rt, cfg = self.master.rt, self.master.cfg
        tick = sampler.period / 2.0
        while tick <= cfg.run_seconds + 1e-9:
            yield rt.sleep_until(tick)
            self._sample_all(rt.now())
            tick += sampler.period


def geometry_of(cfg: SystemConfig) -> JoinGeometry:
    return JoinGeometry(
        tuples_per_block=cfg.tuples_per_block,
        block_bytes=cfg.block_bytes,
        theta_bytes=cfg.theta_bytes,
        window_seconds=cfg.window_seconds,
        fine_tuning=cfg.fine_tuning,
        tuple_bytes=cfg.tuple_bytes,
        n_streams=cfg.n_streams,
    )


def trace_meta(cfg: SystemConfig) -> dict[str, t.Any]:
    """Config summary stamped into JSONL trace headers."""
    return {
        "rate": cfg.rate,
        "slaves": cfg.num_slaves,
        "npart": cfg.npart,
        "window_s": cfg.window_seconds,
        "run_s": cfg.run_seconds,
        "scale": cfg.scale,
        "seed": cfg.seed,
        "fine_tuning": cfg.fine_tuning,
        "adaptive": cfg.adaptive_declustering,
    }


def build_cluster(
    cfg: SystemConfig,
    runtime: t.Any,
    transport: t.Any,
    workload: t.Any = None,
    collect_pairs: bool = False,
    tracer: Tracer | None = None,
    faults: "FaultInjector | None" = None,
    local_node: int | None = None,
) -> Cluster:
    """Wire a full cluster on the given runtime/transport backends.

    ``transport`` must provide ``endpoint(node_id, stats)``;
    ``runtime`` must satisfy :class:`~repro.runtime.base.Runtime` plus
    ``make_lock``/``make_queue``.  ``tracer`` overrides the one built
    from ``cfg.obs`` (the system layer shares it with the transport).
    ``faults`` is the run's shared fault injector (slaves consult it
    for CPU slowdowns; the system layer wires the same object into the
    transport and spawns its crash processes).  ``local_node`` marks a
    process-backend child: only that node's gauges are sampled here.
    """
    cfg = cfg.validated()
    gate = MeasurementWindow(cfg.warmup_seconds, cfg.run_seconds)
    rng = RngRegistry(cfg.seed)
    if tracer is None:
        tracer = build_tracer(cfg.obs, meta=trace_meta(cfg))
    sampler = (
        TimeSeriesSampler(cfg.obs.sample_period, cfg.obs.reservoir_capacity)
        if cfg.obs.sample_period is not None
        else None
    )
    supplied_workload = workload
    workload = workload or TwoStreamWorkload.poisson_bmodel(
        rng, cfg.rate, cfg.b_skew, cfg.key_domain, n_streams=cfg.n_streams
    )
    geometry = geometry_of(cfg)

    slave_ids = [slave_node_id(i) for i in range(cfg.num_slaves)]
    active_ids = slave_ids[: cfg.n_active_initial]
    schedules = build_schedules(active_ids, cfg.num_subgroups, cfg.dist_epoch)
    standby_id = standby_node_id(cfg) if cfg.standby else None

    buffer = MasterBuffer(cfg.npart, cfg.tuple_bytes)
    buffer.assign_round_robin(active_ids)

    master_metrics = MasterMetrics(gate)
    master = MasterNode(
        cfg,
        runtime,
        Communicator(transport.endpoint(MASTER_ID, master_metrics)),
        buffer,
        workload,
        DeclusteringController(cfg, rng.get("controller"), tracer=tracer),
        master_metrics,
        slave_ids,
        COLLECTOR_ID,
        tracer=tracer,
        standby_id=standby_id,
    )

    standby: StandbyNode | None = None
    if standby_id is not None:
        # The standby hosts a *dormant* shadow master over its own
        # buffer, workload replica and controller substream — all built
        # exactly like the real master's, so the mirrored state starts
        # identical and the op-log replay keeps it so.  The shadow
        # shares the standby's communicator: after a takeover its
        # messages originate from the standby's node id.
        if supplied_workload is None:
            shadow_workload: t.Any = TwoStreamWorkload.poisson_bmodel(
                RngRegistry(cfg.seed),
                cfg.rate,
                cfg.b_skew,
                cfg.key_domain,
                n_streams=cfg.n_streams,
            )
        elif hasattr(supplied_workload, "replica"):
            shadow_workload = supplied_workload.replica()
        else:
            raise ConfigError(
                "standby=True needs a replicable workload: pass one with "
                "a .replica() method (e.g. TraceReplayer) or let "
                "build_cluster construct the default workload"
            )
        shadow_buffer = MasterBuffer(cfg.npart, cfg.tuple_bytes)
        shadow_buffer.assign_round_robin(active_ids)
        standby_metrics = MasterMetrics(gate)
        standby_comm = Communicator(
            transport.endpoint(standby_id, standby_metrics)
        )
        shadow_master = MasterNode(
            cfg,
            runtime,
            standby_comm,
            shadow_buffer,
            shadow_workload,
            DeclusteringController(
                cfg, RngRegistry(cfg.seed).get("controller"), tracer=tracer
            ),
            standby_metrics,
            slave_ids,
            COLLECTOR_ID,
            tracer=tracer,
            standby_id=None,
        )
        standby = StandbyNode(
            standby_id,
            cfg,
            runtime,
            standby_comm,
            shadow_master,
            MASTER_ID,
            tracer=tracer,
        )

    slaves: list[SlaveNode] = []
    slave_metrics: list[SlaveMetrics] = []
    for index, node_id in enumerate(slave_ids):
        metrics = SlaveMetrics(node_id, gate)
        module = JoinModule(
            node_id,
            geometry,
            CostModel(cfg.cost, speed=cfg.speed_of(index)),
            cfg.npart,
            metrics,
            collect_pairs=collect_pairs,
            memory_bytes=cfg.slave_memory_bytes,
            tracer=tracer,
        )
        for pid in buffer.pids_of(node_id):
            module.add_partition(pid)
        slaves.append(
            SlaveNode(
                node_id,
                cfg,
                runtime,
                Communicator(transport.endpoint(node_id, metrics)),
                module,
                metrics,
                MASTER_ID,
                COLLECTOR_ID,
                schedules.get(node_id),
                active=node_id in active_ids,
                tracer=tracer,
                faults=faults,
                standby_id=standby_id,
            )
        )
        slave_metrics.append(metrics)

    collector_metrics = CommAccount(gate)
    collector = CollectorNode(
        COLLECTOR_ID,
        Communicator(transport.endpoint(COLLECTOR_ID, collector_metrics)),
        collector_metrics,
        slave_ids,
    )

    return Cluster(
        master,
        slaves,
        collector,
        master_metrics,
        slave_metrics,
        collector_metrics,
        buffer,
        workload,
        gate,
        tracer,
        sampler,
        faults,
        transport,
        local_node,
        standby,
    )
