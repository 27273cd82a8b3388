"""The node host: where every backend builds and runs its nodes.

A backend is a *connector* around :class:`NodeHost`: it supplies a
runtime, a transport and a way to wait.  The sim and thread backends
host every node in one OS process; the process and tcp backends host
one node per process (:func:`~repro.runtime.process.run_node`).  Either
way the host builds the nodes it runs (and only those:
:func:`~repro.core.cluster.build_cluster`), spawns their generators in
:meth:`~repro.core.cluster.Cluster.processes` order, spawns the crash
injection of each, serves the admin endpoint where the master lives
and, once the wait is over, returns one payload per node — a crashed
node's holds what it recorded before the crash — the input of
:func:`~repro.core.system.assemble_result`.
"""

from __future__ import annotations

import typing as t

from repro.config import SystemConfig
from repro.core.cluster import (
    COLLECTOR_ID,
    MASTER_ID,
    Cluster,
    build_cluster,
    slave_node_id,
    standby_node_id,
)
from repro.errors import DeadlockError
from repro.obs.tracer import Tracer

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import CrashFault


def cluster_node_ids(cfg: SystemConfig) -> list[int]:
    """Every node id of the cluster *cfg* describes, ascending."""
    node_ids = [MASTER_ID, COLLECTOR_ID] + [
        slave_node_id(i) for i in range(cfg.num_slaves)
    ]
    if cfg.standby:
        node_ids.append(standby_node_id(cfg))
    return node_ids


class NodeHost:
    """The nodes of one cluster that this OS process builds and runs.

    *node_ids* are those nodes — a socket-backend process runs one;
    ``None`` runs them all.  *injector* is this process's fault
    injector (``None`` without a fault plan): the host fail-stops each
    crash victim it runs through it.
    """

    def __init__(
        self,
        cfg: SystemConfig,
        runtime: t.Any,
        transport: t.Any,
        tracer: Tracer,
        injector: "FaultInjector | None" = None,
        node_ids: list[int] | None = None,
        workload: t.Any = None,
        collect_pairs: bool = False,
    ) -> None:
        self.cfg = cfg
        self.runtime = runtime
        self.tracer = tracer
        self.injector = injector
        self.collect_pairs = collect_pairs
        self.node_ids = cluster_node_ids(cfg) if node_ids is None else node_ids
        self.cluster = build_cluster(
            cfg,
            runtime,
            transport,
            workload=workload,
            collect_pairs=collect_pairs,
            tracer=tracer,
            faults=injector,
            node_ids=node_ids,
        )

    def _crash(
        self, injector: "FaultInjector", nid: int, crash: "CrashFault",
        victims: list[t.Any], admin: t.Any,
    ) -> t.Generator[t.Any, t.Any, None]:
        """Inject *crash* into hosted node *nid*.  A host whose only
        node crashed stops serving its admin endpoint, as a dead
        machine would; one running the whole cluster keeps serving."""
        fired = yield from injector.crash_process(
            nid, crash, self.runtime, self.cluster.transport, victims
        )
        if fired and admin is not None and self.node_ids == [nid]:
            admin.close()

    def run(
        self, wait: t.Callable[[], None]
    ) -> dict[int, dict[str, t.Any]]:
        """Spawn the hosted nodes, *wait* for the run to end, and return
        each hosted node's payload by node id."""
        runtime, cluster = self.runtime, self.cluster
        spawned: list[tuple[str, t.Any]] = []
        by_node: dict[int | None, list[t.Any]] = {}
        for name, owner, gen in cluster.processes():
            handle = runtime.spawn(gen, name=name)
            spawned.append((name, handle))
            by_node.setdefault(owner, []).append(handle)
        admin = (
            _start_admin_server(self.cfg, cluster, runtime.now)
            if MASTER_ID in self.node_ids
            else None
        )
        injector = self.injector
        if injector is not None:
            for nid, crash in injector.crash_targets():
                if nid in self.node_ids:
                    runtime.spawn(
                        self._crash(injector, nid, crash, by_node[nid], admin),
                        name=f"fault.crash{nid}",
                    )
        try:
            wait()
        finally:
            if admin is not None:
                admin.close()
        stuck = [name for name, handle in spawned if handle.is_alive]
        if stuck:
            summary = getattr(cluster.transport, "pending_summary", None)
            pending: list[str] = summary() if summary is not None else []
            detail = (
                f"; pending channel ops: {'; '.join(pending)}" if pending else ""
            )
            raise DeadlockError(f"processes never finished: {stuck}{detail}")
        # Flush the trace tail before the payloads: a socket node's
        # launcher takes its result as the end of its trace stream.
        self.tracer.close()
        # The gauge series are keyed "n<node>.<gauge>" and the sampler
        # is the host's, so every payload may carry all of them.
        series = (
            cluster.sampler.series_dict()
            if cluster.sampler is not None
            else None
        )
        metrics = cluster.node_metrics()
        return {
            nid: {
                **_node_payload(nid, cluster, self.collect_pairs),
                "series": series,
                "metrics": metrics.get(nid),
            }
            for nid in self.node_ids
        }


def _node_payload(
    node_id: int, cluster: Cluster, collect_pairs: bool
) -> dict[str, t.Any]:
    """One node's contribution to the RunResult (pickled to the
    launcher on the socket backends)."""
    standby = cluster.standby
    if standby is not None and node_id == standby.node_id:
        if not standby.took_over:
            # Dormant standby: the master survived, so this node has no
            # coordinator state worth shipping.
            return {"took_over": False}
    elif node_id == COLLECTOR_ID:
        return {
            "delays": cluster.collector.delays,
            "timeline": cluster.collector.timeline_rows(),
        }
    elif node_id != MASTER_ID:
        (metrics,) = [s.metrics for s in cluster.slaves if s.node_id == node_id]
        return {
            "snapshot": metrics.snapshot(),
            "delays": metrics.delays,
            "pairs": metrics.pair_chunks() if collect_pairs else [],
        }
    # The master, or the standby that replaced it.  In the standby's
    # own process ``acting_master`` resolves to the shadow master after
    # a takeover, so a killed master's payload is reconstructed here,
    # not lost with the process.
    acting = cluster.acting_master
    assert acting is not None
    mm = acting.metrics
    workload = acting.workload
    return {
        "took_over": node_id != MASTER_ID,
        "master": master_snapshot(cluster),
        "dod_trace": list(mm.dod_changes),
        "faults": list(acting.state.failures),
        "pairs": acting.pair_rows if collect_pairs else [],
        "tuples_generated": (
            workload.tuples_generated
            if hasattr(workload, "tuples_generated")
            else mm.tuples_ingested
        ),
    }


def master_snapshot(cluster: Cluster) -> dict[str, t.Any]:
    """Master-side metric snapshot.

    Reads through :attr:`Cluster.acting_master`: after a standby
    takeover the authoritative coordinator state — partition mapping,
    dead set, failure records — lives in the standby's shadow master.
    """
    acting = cluster.acting_master
    assert acting is not None
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
        "failures": acting.state.failures,
        "dead_slaves": sorted(acting.state.dead),
        "partition_owners": dict(sorted(acting.state.mapping.items())),
        "replication_bytes": master_metrics.replication_bytes,
    }


def _start_admin_server(
    cfg: SystemConfig, cluster: Cluster, now_fn: t.Callable[[], float]
) -> t.Any:
    """Start the opt-in admin/health endpoint for a running cluster.

    Returns the :class:`~repro.obs.admin.AdminServer` (caller must
    ``close()`` it) or ``None`` when ``cfg.obs.admin_port`` is unset.
    """
    if cfg.obs.admin_port is None:
        return None
    from repro.obs.admin import AdminServer, cluster_status
    from repro.obs.metrics import render_prometheus

    def status() -> dict[str, t.Any]:
        return cluster_status(cfg, cluster, now_fn, cfg.backend)

    def metrics() -> str:
        return render_prometheus(cluster.node_metrics())

    return AdminServer(status, metrics, port=cfg.obs.admin_port, announce=True)
