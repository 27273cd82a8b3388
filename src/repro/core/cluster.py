"""Backend-agnostic cluster wiring.

:func:`build_cluster` assembles master, slaves and collector around any
runtime/transport pair; every backend calls it through
:class:`~repro.core.host.NodeHost`.  It builds only the nodes it is
asked for: every node on the sim and thread backends, and on the
process and tcp backends the one node its OS process runs, which then
holds none of the others' state — the paper's shared-nothing split.
``SystemConfig.routing`` picks the master and slave node types: the
paper's, or a routing baseline's (:mod:`repro.baselines`).
"""

from __future__ import annotations

import typing as t

from repro.config import SystemConfig
from repro.core.collector import CollectorNode
from repro.core.coordinator import CoordinatorState
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
from repro.obs.events import SampleEvent
from repro.obs.metrics import gauge
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.tracer import Tracer, build_tracer
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.framework import LightSlave
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
    """The nodes :func:`build_cluster` built, and what they share.

    A node that was not built is ``None`` (or absent from
    :attr:`slaves`); everything here iterates over what exists."""

    cfg: SystemConfig
    runtime: t.Any
    #: The transport the nodes were wired on.
    transport: t.Any
    tracer: Tracer
    sampler: TimeSeriesSampler | None
    master: MasterNode | None
    #: Hot-standby coordinator (None unless ``cfg.standby``).
    standby: StandbyNode | None
    slaves: list[SlaveNode | LightSlave]
    collector: CollectorNode | None

    @property
    def acting_master(self) -> MasterNode | None:
        """The coordinator currently driving the run.

        The real master until a takeover; the standby's shadow master
        after it — reporting and admin surfaces read through this so
        post-failover state is attributed to the node that owns it.
        """
        if self.standby is not None and self.standby.took_over:
            return self.standby.master
        return self.master

    def processes(self) -> list[tuple[str, int | None, t.Generator]]:
        """All node generators as ``(name, owning node id, generator)``,
        ready to spawn on a runtime.  The owner is ``None`` for the
        sampler, which every host runs for its own nodes."""
        out: list[tuple[str, int | None, t.Generator]] = []
        if self.master is not None:
            out.append(("master", MASTER_ID, self.master.run()))
        if self.standby is not None:
            out.append(("standby", self.standby.node_id, self.standby.run()))
        for slave in self.slaves:
            for i, gen in enumerate(slave.processes()):
                kind = ("comm", "join")[i]
                out.append((f"slave{slave.node_id}.{kind}", slave.node_id, gen))
        if self.collector is not None:
            for i, gen in enumerate(self.collector.processes()):
                out.append((f"collector.recv{i}", COLLECTOR_ID, gen))
        if self.sampler is not None:
            out.append(("sampler", None, self._sampler_loop()))
        return out

    def node_metrics(self) -> dict[int, dict[str, dict[str, t.Any]]]:
        """Typed view of the run's counters, ``{node id: {name: sample}}``
        (:mod:`repro.obs.metrics`), built from the plain attributes on
        demand — ``/metrics``, ``--metrics`` and ``RunResult.node_metrics``
        all read this.  The collector reports no series.  On a socket
        transport each node's series include the frames and bytes it
        moved per peer."""
        coordinators = [] if self.master is None else [self.master]
        if self.standby is not None:
            coordinators.append(self.standby.master)
        out: dict[int, dict[str, dict[str, t.Any]]] = {}
        for node in (*coordinators, *self.slaves):
            node_id = node.comm.node_id
            series = out[node_id] = node.metrics.series()
            if isinstance(node, MasterNode):
                series["dead_slaves"] = gauge(len(node.state.dead))
            tallies = getattr(node.comm.transport, "series", None)
            if tallies is not None:
                series.update(tallies())
        return out

    # -- periodic gauge sampling ----------------------------------------------
    def _sample_all(self, now: float) -> None:
        """Record one gauge sample per node (and trace it when on)."""
        sampler, tracer, cfg = self.sampler, self.tracer, self.cfg
        assert sampler is not None
        for slave in self.slaves:
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
        if self.master is not None:
            nbytes = self.master.buffer.total_bytes
            master_gauges = {"buffer_bytes": float(nbytes)}
            sampler.observe(now, MASTER_ID, "buffer_bytes", nbytes)
            if tracer.enabled:
                tracer.emit(
                    SampleEvent(t=now, node=MASTER_ID, gauges=master_gauges)
                )
        if self.collector is not None:
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
        rt, cfg = self.runtime, self.cfg
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
    node_ids: t.Collection[int] | None = None,
) -> Cluster:
    """Wire the cluster's nodes on the given runtime/transport backends.

    ``transport`` must provide ``endpoint(node_id, stats)``;
    ``runtime`` must satisfy :class:`~repro.runtime.base.Runtime` plus
    ``make_lock``/``make_queue``.  ``tracer`` overrides the one built
    from ``cfg.obs`` (the system layer shares it with the transport).
    ``faults`` is the run's shared fault injector (slaves consult it
    for CPU slowdowns; the sim transport shares it, and the node host
    spawns its crash processes).  ``node_ids`` names the nodes to
    build — the ones the calling OS process runs; ``None`` builds all
    of them.  Only the master and the standby read *workload*.
    """
    cfg = cfg.validated()

    def builds(node_id: int) -> bool:
        return node_ids is None or node_id in node_ids

    gate = MeasurementWindow(cfg.warmup_seconds, cfg.run_seconds)
    if tracer is None:
        tracer = build_tracer(cfg.obs, meta=trace_meta(cfg))
    sampler = (
        TimeSeriesSampler(cfg.obs.sample_period)
        if cfg.obs.sample_period is not None
        else None
    )
    geometry = geometry_of(cfg)

    slave_ids = [slave_node_id(i) for i in range(cfg.num_slaves)]
    active_ids = slave_ids[: cfg.n_active_initial]
    schedules = build_schedules(active_ids, cfg.num_subgroups, cfg.dist_epoch)
    standby_id = standby_node_id(cfg) if cfg.standby else None

    master_type: type[MasterNode] = MasterNode
    light_slave: type[LightSlave] | None = None
    if cfg.routing != "hash":
        # Imported here: the baselines' node types build on this module.
        from repro.baselines import NODE_TYPES

        master_type, light_slave = NODE_TYPES[cfg.routing]

    def coordinator(
        node_type: type[MasterNode],
        node_id: int,
        workload: t.Any,
        backup_id: int | None,
    ) -> MasterNode:
        # Substreams are keyed by name, so every coordinator's registry
        # draws the same workload and controller numbers.
        rng = RngRegistry(cfg.seed)
        metrics = MasterMetrics(gate)
        return node_type(
            cfg,
            runtime,
            transport.endpoint(node_id, metrics),
            workload or _default_workload(cfg, rng),
            DeclusteringController(cfg, rng.get("controller"), tracer=tracer),
            metrics,
            slave_ids,
            tracer=tracer,
            standby_id=backup_id,
        )

    master: MasterNode | None = None
    if builds(MASTER_ID):
        master = coordinator(master_type, MASTER_ID, workload, standby_id)

    standby: StandbyNode | None = None
    if standby_id is not None and builds(standby_id):
        # The standby hosts a *dormant* shadow master over its own
        # buffer, workload replica and controller substream — all built
        # exactly like the real master's, so the mirrored state starts
        # identical and the round replay keeps it so.  The shadow
        # shares the standby's endpoint: after a takeover its messages
        # originate from the standby's node id.
        if workload is not None and not hasattr(workload, "replica"):
            raise ConfigError(
                "standby=True needs a replicable workload: pass one with "
                "a .replica() method (e.g. TraceReplayer) or let "
                "build_cluster construct the default workload"
            )
        shadow_workload = None if workload is None else workload.replica()
        shadow_master = coordinator(MasterNode, standby_id, shadow_workload, None)
        standby = StandbyNode(shadow_master, MASTER_ID)

    # The partitions each slave starts with: the master's initial state.
    initial = CoordinatorState.initial(cfg.replication, cfg.npart, active_ids)
    slaves: list[SlaveNode | LightSlave] = []
    for index, node_id in enumerate(slave_ids):
        if not builds(node_id):
            continue
        metrics = SlaveMetrics(node_id, gate)
        comm = transport.endpoint(node_id, metrics)
        cost_model = CostModel(cfg.cost, speed=cfg.speed_of(index))
        if light_slave is not None:
            slaves.append(
                light_slave(
                    node_id, cfg, runtime, comm, metrics, cost_model,
                    collect_pairs,
                )
            )
            continue
        module = JoinModule(
            node_id,
            geometry,
            cost_model,
            cfg.npart,
            metrics,
            collect_pairs=collect_pairs,
            memory_bytes=cfg.slave_memory_bytes,
            tracer=tracer,
        )
        for pid in initial.pids_of(node_id):
            module.add_partition(pid)
        slaves.append(
            SlaveNode(
                node_id,
                cfg,
                runtime,
                comm,
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

    collector: CollectorNode | None = None
    if builds(COLLECTOR_ID):
        collector_metrics = CommAccount(gate)
        collector = CollectorNode(
            COLLECTOR_ID,
            transport.endpoint(COLLECTOR_ID, collector_metrics),
            collector_metrics,
            slave_ids,
        )

    return Cluster(
        cfg, runtime, transport, tracer, sampler, master, standby, slaves,
        collector,
    )


def _default_workload(cfg: SystemConfig, rng: RngRegistry) -> TwoStreamWorkload:
    """The run's own workload, when the caller pins none."""
    return TwoStreamWorkload.poisson_bmodel(
        rng, cfg.rate, cfg.b_skew, cfg.key_domain, n_streams=cfg.n_streams
    )
