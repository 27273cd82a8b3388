"""Multi-process backends: one OS process per cluster node.

``backend="process"`` runs the master, each slave and the collector as
real OS processes (``fork``), connected by one full-duplex stream
socket per node pair carrying :mod:`repro.net.wire` frames.  Each node
rebuilds the *full* cluster deterministically from the config (same
seed, same round-robin partition map) but spawns only its own node's
generators, driven by a per-process
:class:`~repro.runtime.thread.ThreadRuntime` — the identical generator
code that runs on the DES kernel and the thread backend.

Everything here is shared with ``backend="tcp"``
(:mod:`repro.runtime.tcp`): one node body (:func:`run_node`), one
control channel (:class:`ControlConn`), one launcher
(:meth:`ProcessBackend.run`).  The two backends differ only in the
*connector* — how a node comes by its job and its peer sockets, and how
the launcher comes by its control connections
(:meth:`ProcessBackend._launch`): here, socketpairs created before the
fork and inherited across it.

Control protocol (per node, pickled tuples over its control channel):

1. the node connects, builds the cluster and reports ``("ready",)``;
2. the launcher answers ``("start", origin)`` once every node is ready:
   the shared clock *origin* is a ``time.monotonic()`` value —
   system-wide on Linux — placed slightly in the future so every node
   starts modeled t=0 simultaneously, after all setup work.  A node on
   another host gets ``None`` and anchors to its own clock;
3. the node rebases runtime and transport and spawns its generators,
   streaming ``("trace", batch)`` messages while it runs;
4. on completion it ships ``("result", payload)`` — or, from any stage,
   ``("error", exception, traceback)`` — and exits.  Process exit
   closes the sockets, so peers observe EOF exactly when the node is
   truly gone.

Crash faults (``crash:<slave>@<t>``) are injected by the launcher:
a timer SIGKILLs the victim's process at the scaled wall time.  Peer
EOF then drives the same ``NodeDown`` detection/recovery machinery the
DES fault plane exercises.  Message and slowdown faults hang off the
simulated transport and are rejected up front.

Distributed tracing: each node owns a node-local
:class:`~repro.obs.tracer.Tracer` writing to a :class:`PipeExporter`,
which batches records back to the launcher.  Timestamps are already on
the shared modeled clock (every node rebased onto the broadcast
origin), so the launcher just merges all buffers with
:func:`~repro.obs.exporters.merge_records` — a stable ``(t, node,
seq)`` order — and replays them into the configured sinks.  Batches
flush every :data:`TRACE_BATCH` records *during* the run, so a
SIGKILLed victim loses at most the tail of its trace, never the whole
thing.

Determinism caveat: the joined-output *multiset* is backend-invariant,
but wall-clock scheduling makes per-epoch timing, metric values and —
under a detection timeout — the exact detection epoch load-dependent.
See DESIGN.md ("Runtime backends").
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import socket
import threading
import time
import traceback
import typing as t
from dataclasses import dataclass
from queue import Empty, Queue

import numpy as np

from repro.config import SystemConfig
from repro.core.cluster import (
    COLLECTOR_ID,
    MASTER_ID,
    Cluster,
    build_cluster,
    slave_node_id,
    standby_node_id,
    trace_meta,
)
from repro.core.metrics import DelayStats, MeasurementWindow, SlaveMetrics
from repro.core.system import RunResult, master_snapshot, start_admin_server
from repro.errors import ConfigError, DeadlockError
from repro.net.proc_transport import (
    _EOF,
    _TIMED_OUT,
    FrameReader,
    ProcTransport,
    write_frame,
)
from repro.obs.exporters import (
    ConsoleSummaryExporter,
    Exporter,
    JsonlExporter,
    merge_records,
    replay_records,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.thread import ThreadRuntime, reject_unsupported

#: Wall seconds between "all nodes ready" and modeled t=0: covers
#: control-message latency, the rebase and thread spawning in every node.
STARTUP_GRACE = 0.5
#: Wall seconds the launcher waits for the nodes' "ready", and a node
#: for its job and the start barrier.
SETUP_TIMEOUT = 120.0
#: Trace records per ``("trace", batch)`` control message.  Large
#: enough that pickling doesn't dominate high-volume tracing (transport
#: spans); the wall-time bound below covers low-volume tracers.
TRACE_BATCH = 64
#: Maximum wall seconds a buffered trace record may wait before it is
#: flushed to the launcher.  Bounds how much of its trace a SIGKILLed
#: victim can lose, regardless of event rate.
TRACE_FLUSH_WALL_S = 0.05

#: key -> the two ends of one ``socket.socketpair()``.
_SocketPairs = dict[t.Any, tuple[socket.socket, socket.socket]]
_Inbox = Queue[tuple[int, t.Any]]


@dataclass(frozen=True)
class NodeJob:
    """Everything a process needs to run one cluster node."""

    node_id: int
    cfg: SystemConfig
    collect_pairs: bool
    workload: t.Any


class ControlConn:
    """Pickled-object control plane over one length-prefixed stream.

    The launcher<->node link of both multi-process backends: an
    inherited socketpair or a handshaken TCP connection.  It is trusted
    — it only ever connects a launcher to nodes it was pointed at —
    which is why it may carry pickle; the data plane speaks the
    versioned wire codec only.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._reader = FrameReader(sock)
        self._lock = threading.Lock()

    def send(self, obj: t.Any) -> None:
        payload = pickle.dumps(obj)
        with self._lock:
            write_frame(self.sock, payload)

    def recv(self, timeout: float | None = None) -> t.Any:
        frame = self._reader.read_frame(timeout)
        if frame is _EOF:
            raise EOFError("control connection closed")
        if frame is _TIMED_OUT:
            raise TimeoutError(f"no control message within {timeout:g}s")
        return pickle.loads(frame)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class PipeExporter(Exporter):
    """Trace sink that ships records to the launcher over the node's
    control channel.

    Records accumulate in a local buffer and flush as ``("trace",
    batch)`` messages every :data:`TRACE_BATCH` records, when the
    oldest buffered record is :data:`TRACE_FLUSH_WALL_S` old, and on
    :meth:`close`.  The tracer's emit lock already serializes
    ``export`` calls; the exporter's own lock additionally guards the
    buffer against a concurrent ``close``.
    """

    def __init__(self, conn: ControlConn) -> None:
        self._conn = conn
        self._buffer: list[dict[str, t.Any]] = []
        self._lock = threading.Lock()
        self._last_flush = time.monotonic()

    def export(self, record: dict[str, t.Any]) -> None:
        with self._lock:
            self._buffer.append(record)
            if (
                len(self._buffer) >= TRACE_BATCH
                or time.monotonic() - self._last_flush >= TRACE_FLUSH_WALL_S
            ):
                self._flush_locked()

    def _flush_locked(self) -> None:
        self._last_flush = time.monotonic()
        if not self._buffer:
            return
        self._conn.send(("trace", self._buffer))
        self._buffer = []

    def close(self) -> None:
        with self._lock:
            try:
                self._flush_locked()
            except OSError:  # pragma: no cover
                pass  # launcher gone: nothing left to ship the tail to


def cluster_node_ids(cfg: SystemConfig) -> list[int]:
    """Every node id of the cluster *cfg* describes, ascending."""
    node_ids = [MASTER_ID, COLLECTOR_ID] + [
        slave_node_id(i) for i in range(cfg.num_slaves)
    ]
    if cfg.standby:
        node_ids.append(standby_node_id(cfg))
    return node_ids


def _owner_of(name: str, standby_id: int | None = None) -> int:
    """Cluster node id owning a generator from ``Cluster.processes()``."""
    if name == "master":
        return MASTER_ID
    if name == "standby":
        if standby_id is None:
            raise RuntimeError("standby generator without a standby node")
        return standby_id
    if name.startswith("collector"):
        return COLLECTOR_ID
    if name.startswith("slave"):
        return int(name[len("slave"): name.index(".")])
    raise RuntimeError(f"generator {name!r} has no owning cluster node")


def _node_payload(
    node_id: int, cluster: Cluster, collect_pairs: bool
) -> dict[str, t.Any]:
    """This node's contribution to the RunResult, pickled to the parent."""
    if node_id == MASTER_ID or (
        cluster.standby is not None and node_id == cluster.standby.node_id
    ):
        if node_id != MASTER_ID and not cluster.standby.took_over:
            # Dormant standby: the master survived, so this node has no
            # coordinator state worth shipping.
            return {"took_over": False}
        # In the standby's own process ``acting_master`` resolves to
        # the shadow master after a takeover, so a killed master's
        # payload is reconstructed here, not lost with the process.
        acting = cluster.acting_master
        mm = acting.metrics
        workload = acting.workload
        return {
            "took_over": node_id != MASTER_ID,
            "master": master_snapshot(cluster),
            "dod_trace": list(mm.dod_changes),
            "faults": list(mm.failures),
            "pairs": acting.pair_rows if collect_pairs else [],
            "tuples_generated": (
                workload.tuples_generated
                if hasattr(workload, "tuples_generated")
                else mm.tuples_ingested
            ),
        }
    if node_id == COLLECTOR_ID:
        return {
            "delays": cluster.collector.delays,
            "timeline": cluster.collector.timeline_rows(),
        }
    metrics = cluster.slave_metrics[node_id - 2]
    return {
        "snapshot": metrics.snapshot(),
        "delays": metrics.delays,
        "pairs": metrics.pair_chunks() if collect_pairs else [],
    }


def _obs_payload(node_id: int, cluster: Cluster) -> dict[str, t.Any]:
    """Observability extras every node ships: its local gauge series
    (keys are ``n<node>.<gauge>``, disjoint across children) and the
    typed view of its own counters (``None`` for the collector)."""
    return {
        "series": (
            cluster.sampler.series_dict()
            if cluster.sampler is not None
            else None
        ),
        "metrics": cluster.node_metrics().get(node_id),
    }


def run_node(
    control: ControlConn,
    connect: t.Callable[[], tuple[NodeJob, dict[int, socket.socket]]],
    transport_cls: type[ProcTransport] = ProcTransport,
) -> None:
    """Run one cluster node to completion, reporting over *control*.

    *connect* is the backend's connector: it yields the node's job and
    its established peer sockets (peer node id -> stream socket).
    Whatever fails — the connector included — ships to the launcher as
    ``("error", exception, traceback)``.
    """
    transport = None
    try:
        job, peers = connect()
        node_id, cfg = job.node_id, job.cfg
        runtime = ThreadRuntime(time_scale=cfg.time_scale)
        # Node-local tracer: records ship to the launcher and merge
        # there — nodes never touch the JSONL/console sinks themselves.
        tracer = (
            Tracer([PipeExporter(control)])
            if cfg.obs.tracing
            else NULL_TRACER
        )
        transport = transport_cls(
            node_id,
            peers,
            cfg.tuple_bytes,
            time_scale=cfg.time_scale,
            tracer=tracer if cfg.obs.trace_transport else NULL_TRACER,
            now_fn=runtime.now,
        )
        cluster = build_cluster(
            cfg,
            runtime,
            transport,
            workload=job.workload,
            collect_pairs=job.collect_pairs,
            tracer=tracer,
            local_node=node_id,
        )
        # The sampler generator is node-local: every node runs one,
        # and ``local_node`` restricts it to this node's gauges.
        sid = standby_node_id(cfg) if cfg.standby else None
        mine = [
            (name, gen)
            for name, gen in cluster.processes()
            if name == "sampler" or _owner_of(name, sid) == node_id
        ]

        control.send(("ready",))
        msg = control.recv(timeout=SETUP_TIMEOUT)
        if msg[0] != "start":
            raise RuntimeError(f"expected the start barrier, got {msg[0]!r}")
        origin = msg[1]
        if origin is None:
            # Another host than the launcher's: no shared monotonic
            # clock.  Anchor t=0 to our own; the protocol is
            # message-driven, so only wall-time *reporting* shifts by
            # the (bounded) skew.
            origin = time.monotonic() + STARTUP_GRACE
        runtime.rebase(origin)
        transport.rebase(origin)

        # The admin endpoint lives wherever the master runs.
        admin = (
            start_admin_server(cfg, cluster, runtime.now, cfg.backend)
            if node_id == MASTER_ID
            else None
        )
        try:
            for name, gen in mine:
                runtime.spawn(gen, name=name)
            # No local timeout: the launcher owns the deadline and
            # SIGKILLs stragglers, which peers then observe as EOF.
            runtime.join_all()
        finally:
            if admin is not None:
                admin.close()
        # Flush the trace tail before the result: the launcher treats
        # the result message as this node's end-of-stream.
        tracer.close()
        payload = _node_payload(node_id, cluster, job.collect_pairs)
        payload.update(_obs_payload(node_id, cluster))
        control.send(("result", payload))
    except BaseException as error:  # noqa: BLE001 - shipped to the launcher
        detail = traceback.format_exc()
        try:
            control.send(("error", error, detail))
        except Exception:
            try:
                # The exception itself did not pickle; the text will.
                control.send(("error", None, detail))
            except Exception:
                pass
    finally:
        if transport is not None:
            transport.close()
        control.close()


def _forked_node(job: NodeJob, mesh: _SocketPairs, ctl: _SocketPairs) -> None:
    """Fork-child entry of the process backend (inherits every fd)."""
    node_id = job.node_id
    # Keep only this node's socket ends.  Critical: a leaked foreign fd
    # would keep a dead peer's channel open and suppress the EOF its
    # peers rely on for failure detection.
    peers: dict[int, socket.socket] = {}
    for (a, b), (sock_a, sock_b) in mesh.items():
        if a == node_id:
            peers[b] = sock_a
            sock_b.close()
        elif b == node_id:
            peers[a] = sock_b
            sock_a.close()
        else:
            sock_a.close()
            sock_b.close()
    for nid, (launcher_end, node_end) in ctl.items():
        launcher_end.close()
        if nid != node_id:
            node_end.close()
    run_node(ControlConn(ctl[node_id][1]), lambda: (job, peers))


class ProcessBackend:
    """One OS process per cluster node (``backend="process"``).

    The only single-host backend where slaves execute their numpy join
    work on separate cores — the GIL bounds the thread backend to one.
    """

    name = "process"
    supports_observability = True

    def run(
        self,
        cfg: SystemConfig,
        collect_pairs: bool = False,
        workload: t.Any = None,
    ) -> RunResult:
        reject_unsupported(cfg, self.name, crash_ok=True)
        try:
            ctx = mp.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX hosts
            raise ConfigError(
                f"the {self.name} backend requires the 'fork' start "
                "method (POSIX only)"
            ) from error

        jobs = {
            nid: NodeJob(nid, cfg, collect_pairs, workload)
            for nid in cluster_node_ids(cfg)
        }
        #: Nodes forked on this host (the ones the launcher can signal,
        #: and that share its monotonic clock); every node has a control.
        procs: dict[int, t.Any] = {}
        controls: dict[int, ControlConn] = {}
        inbox: _Inbox = Queue()
        timers: list[threading.Timer] = []
        killed: set[int] = set()
        injected: list[dict[str, t.Any]] = []
        traces: dict[int, list[dict[str, t.Any]]] = {}
        try:
            self._launch(ctx, cfg, jobs, procs, controls)
            for nid, control in controls.items():
                self._start_pump(nid, control, inbox)
            origin = self._start_barrier(controls, inbox, set(procs))
            deadline = origin + cfg.run_seconds * cfg.time_scale * 4.0 + 60.0
            timers = self._arm_crashes(cfg, origin, procs, killed, injected)
            payloads = self._collect(
                inbox, set(jobs), procs, killed, deadline, traces
            )
        finally:
            for timer in timers:
                timer.cancel()
            for proc in procs.values():
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=10.0)
            for control in controls.values():
                control.close()

        return self._assemble(cfg, payloads, injected, collect_pairs, traces)

    # -- connector -----------------------------------------------------------
    def _launch(
        self,
        ctx: t.Any,
        cfg: SystemConfig,
        jobs: dict[int, NodeJob],
        procs: dict[int, t.Any],
        controls: dict[int, ControlConn],
    ) -> None:
        """Start every node and open its control channel.

        The one step the multi-process backends do differently.  Fills
        *procs* with the processes forked here and *controls* with one
        connection per node; both are filled in place so that a failure
        half-way leaves :meth:`run` able to tear down what did start.

        Here: a full mesh of socketpairs (one per unordered node pair)
        plus one control socketpair per node, all created before the
        first fork so every child can close exactly the foreign ends.
        """
        node_ids = list(jobs)
        mesh: _SocketPairs = {
            (a, b): socket.socketpair()
            for i, a in enumerate(node_ids)
            for b in node_ids[i + 1:]
        }
        ctl: _SocketPairs = {nid: socket.socketpair() for nid in node_ids}
        try:
            for nid, job in jobs.items():
                procs[nid] = ctx.Process(
                    target=_forked_node,
                    args=(job, mesh, ctl),
                    name=f"swjoin-node{nid}",
                    daemon=True,
                )
                procs[nid].start()
        finally:
            # The launcher is pure control plane: it must hold no data
            # sockets (a launcher-held fd would suppress peer EOF), and
            # no node ends of the controls (EOF there = the node died).
            for sock_a, sock_b in mesh.values():
                sock_a.close()
                sock_b.close()
            for nid, (launcher_end, node_end) in ctl.items():
                node_end.close()
                controls[nid] = ControlConn(launcher_end)

    # -- run phases ----------------------------------------------------------
    @staticmethod
    def _start_pump(nid: int, control: ControlConn, inbox: _Inbox) -> None:
        """One reader thread per control connection, funneling messages
        into the shared inbox as ``(nid, msg)``.  EOF (node exit, clean
        or killed) is delivered as ``(nid, None)``."""

        def pump() -> None:
            while True:
                try:
                    msg = control.recv(None)
                except Exception:  # noqa: BLE001 - EOF/reset/unpickle all mean "node gone"
                    inbox.put((nid, None))
                    return
                inbox.put((nid, msg))

        threading.Thread(
            target=pump, name=f"control:n{nid}", daemon=True
        ).start()

    def _start_barrier(
        self,
        controls: dict[int, ControlConn],
        inbox: _Inbox,
        local_ids: set[int],
    ) -> float:
        """Wait for every node's "ready", then broadcast the start.

        Nodes forked on this host share the launcher's monotonic clock
        and get the real origin (slightly in the future, so nobody
        starts late); the others get ``None`` and anchor to their own
        clock (see :func:`run_node`)."""
        waiting = set(controls)
        deadline = time.monotonic() + SETUP_TIMEOUT
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlockError(
                    f"nodes never became ready (setup wedged): "
                    f"{sorted(waiting)}"
                )
            try:
                nid, msg = inbox.get(timeout=min(remaining, 1.0))
            except Empty:
                continue
            if msg is None:
                raise RuntimeError(f"node {nid} died during setup")
            if msg[0] == "error":
                self._raise_node_error(nid, msg)
            if msg[0] != "ready":
                raise RuntimeError(
                    f"node {nid} sent {msg[0]!r} before the start barrier"
                )
            waiting.discard(nid)
        origin = time.monotonic() + STARTUP_GRACE
        for nid, control in controls.items():
            control.send(("start", origin if nid in local_ids else None))
        return origin

    def _arm_crashes(
        self,
        cfg: SystemConfig,
        origin: float,
        procs: dict[int, t.Any],
        killed: set[int],
        injected: list[dict[str, t.Any]],
    ) -> list[threading.Timer]:
        """One timer per planned crash: SIGKILL the victim at the
        scaled wall time.  EOF on its sockets is the failure signal."""
        timers = []
        for crash in cfg.faults.crashes:
            nid = (
                MASTER_ID
                if crash.targets_master
                else slave_node_id(crash.slave)
            )
            victim = procs[nid]

            def fire(nid: int = nid, victim: t.Any = victim,
                     at: float = crash.at) -> None:
                if not victim.is_alive():
                    return  # finished before the crash time: nothing fired
                killed.add(nid)
                injected.append(
                    {"action": "crash", "node": nid, "t": at, "info": at}
                )
                victim.kill()

            delay = (origin - time.monotonic()) + crash.at * cfg.time_scale
            timer = threading.Timer(max(0.0, delay), fire)
            timer.daemon = True
            timers.append(timer)
            timer.start()
        return timers

    def _collect(
        self,
        inbox: _Inbox,
        node_ids: set[int],
        procs: dict[int, t.Any],
        killed: set[int],
        deadline: float,
        traces: dict[int, list[dict[str, t.Any]]],
    ) -> dict[int, dict[str, t.Any]]:
        """Gather result payloads until every node reported or died.

        ``("trace", batch)`` messages stream in throughout the run and
        accumulate into *traces*; a node killed by the fault plane
        keeps every batch it flushed before dying."""
        payloads: dict[int, dict[str, t.Any]] = {}
        pending = set(node_ids)
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for proc in procs.values():
                    if proc.is_alive():
                        proc.kill()
                raise DeadlockError(
                    f"nodes never finished: {sorted(pending)}"
                )
            try:
                nid, msg = inbox.get(timeout=min(remaining, 1.0))
            except Empty:
                continue
            if nid not in pending:
                continue  # the EOF that follows a node's result
            if msg is None:
                # Node gone without a payload: expected if and only if
                # the fault plane killed it.
                pending.discard(nid)
                if nid not in killed:
                    raise RuntimeError(
                        f"node {nid} died without reporting a result "
                        "or an error"
                    )
            elif msg[0] == "error":
                self._raise_node_error(nid, msg)
            elif msg[0] == "trace":
                traces.setdefault(nid, []).extend(msg[1])
            elif msg[0] == "result":
                payloads[nid] = msg[1]
                pending.discard(nid)
        return payloads

    @staticmethod
    def _raise_node_error(nid: int, msg: tuple[t.Any, ...]) -> t.NoReturn:
        _, error, detail = msg
        raise RuntimeError(f"node {nid} failed:\n{detail}") from (
            error if isinstance(error, BaseException) else None
        )

    @staticmethod
    def _finish_trace(
        cfg: SystemConfig, traces: dict[int, list[dict[str, t.Any]]]
    ) -> list[dict[str, t.Any]] | None:
        """Merge the per-node trace buffers and drive the configured
        sinks; returns the merged records when ``trace_memory`` asked
        for them on the RunResult."""
        if not cfg.obs.tracing:
            return None
        merged = merge_records(traces)
        sinks: list[Exporter] = []
        if cfg.obs.trace_path:
            sinks.append(JsonlExporter(cfg.obs.trace_path, meta=trace_meta(cfg)))
        if cfg.obs.console_summary:
            sinks.append(ConsoleSummaryExporter())
        replay_records(merged, sinks)
        return merged if cfg.obs.trace_memory else None

    def _assemble(
        self,
        cfg: SystemConfig,
        payloads: dict[int, dict[str, t.Any]],
        injected: list[dict[str, t.Any]],
        collect_pairs: bool,
        traces: dict[int, list[dict[str, t.Any]]],
    ) -> RunResult:
        master = payloads.get(MASTER_ID)
        if cfg.standby:
            standby_payload = payloads.get(standby_node_id(cfg))
            if standby_payload is not None and standby_payload.get("took_over"):
                # The master was killed mid-run; the acting master's
                # payload carries the authoritative coordinator state.
                master = standby_payload
        if master is None:
            raise RuntimeError(
                "master process produced no result payload and no standby "
                "took over"
            )
        collector = payloads[COLLECTOR_ID]
        gate = MeasurementWindow(cfg.warmup_seconds, cfg.run_seconds)

        merged = DelayStats()
        snapshots: list[dict[str, t.Any]] = []
        replicated = cfg.replication != "off"
        # Mirrors collect_result: the master's banked pairs come first,
        # and a slave the master fenced contributes none — its output
        # either was banked or re-emerges from the backup's replay.
        pair_chunks: list[np.ndarray] = (
            list(master["pairs"]) if replicated and collect_pairs else []
        )
        fenced = set(master["master"].get("dead_slaves", ()))
        for i in range(cfg.num_slaves):
            nid = slave_node_id(i)
            payload = payloads.get(nid)
            if payload is None:
                # Killed mid-run: its window state (and metrics) died
                # with it — without replication, a degraded run, same
                # as the DES fault plane.
                snapshots.append(SlaveMetrics(nid, gate).snapshot())
                continue
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

        # Per-node gauge series carry disjoint "n<node>.<gauge>" keys,
        # so the cluster view is a plain dict union.
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
            trace=self._finish_trace(cfg, traces),
            series=series,
            node_metrics=node_metrics,
            faults=master["faults"],
            injected_faults=injected,
        )
