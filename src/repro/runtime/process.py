"""Multi-process backends: one OS process per cluster node.

``backend="process"`` runs the master, each slave and the collector as
real OS processes (``fork``), connected by one full-duplex stream
socket per node pair carrying :mod:`repro.net.wire` frames.  Each node
process builds only its own node, from the config (same seed, same
round-robin partition map as every other process), in the shared
:class:`~repro.core.host.NodeHost`, driven by a per-process
:class:`~repro.runtime.wall.WallRuntime` — the DES kernel paced by the
wall clock, on the process's one thread: the identical host, generator
and kernel code that runs the sim and thread backends.  The launcher
waits on one selector over the nodes' control connections — it runs no
threads — and builds the result with
:func:`~repro.core.system.assemble_result`, as every backend does.

Everything here is shared with ``backend="tcp"``
(:mod:`repro.runtime.tcp`): one node body (:func:`run_node`), one
control channel (:class:`ControlConn`), one launcher
(:meth:`ProcessBackend.run`).  The two backends differ only in how a
node comes by its job and its peer sockets, and how the launcher comes
by its control connections (:meth:`ProcessBackend._launch`): here,
socketpairs created before the fork and inherited across it.

Control protocol (per node, pickled tuples over its control channel):

1. the node connects, builds its node and reports ``("ready",)``;
2. the launcher answers ``("start", origin)`` once every node is ready:
   the shared clock *origin* is the ``time.monotonic()`` value —
   system-wide on Linux — at which the last ``ready`` arrived, so
   modeled t=0 follows all setup work with no wait in between.  A node
   on another host gets ``None`` and anchors t=0 at its own receipt of
   the start;
3. the node rebases its runtime — the one clock its transport reads —
   spawns its generators and runs their kernel loop, streaming
   ``("trace", batch)`` messages while it runs;
4. on completion it ships ``("result", payload)`` — or, from any stage,
   ``("error", exception, traceback)`` — and exits.  Process exit
   closes the sockets, so peers observe EOF exactly when the node is
   truly gone.  A node that closes its control channel with neither
   fails the run.

Crash faults (``crash:<slave>@<t>``) are injected inside the victim's
process, as on sim and thread: its :class:`~repro.core.host.NodeHost`
runs the fault injector's crash process, which traces the crash, then
fail-stops the node in place (:meth:`ProcTransport.kill_node
<repro.net.proc_transport.ProcTransport.kill_node>`) and kills its
kernel processes, exactly as on sim.  Peers read what
was already sent, then EOF → ``NodeDown``, and the DES fault plane's
detection/recovery runs unchanged.  The victim then reports what it
recorded before the crash, like any node.  Message and slowdown faults
hang off the simulated transport; :meth:`SystemConfig.validated
<repro.config.SystemConfig.validated>` rejects them on the wall-clock
backends.

Distributed tracing: each node owns a node-local
:class:`~repro.obs.tracer.Tracer` writing to a :class:`PipeExporter`,
which batches records back to the launcher.  Timestamps are already on
the shared modeled clock (every node rebased onto the broadcast
origin), so the launcher just merges all buffers with
:func:`~repro.obs.exporters.merge_records` — a stable ``(t, node,
seq)`` order — and replays them into the sinks
:func:`~repro.obs.tracer.build_tracer` builds from the config.  Batches
flush every :data:`TRACE_BATCH` records *during* the run, and a failing
node flushes its tracer before it ships its error, so a node the
launcher's teardown kills loses at most the tail of its trace, never
the whole thing — and a failed run still writes the trace that reached
the launcher before it raises.

Determinism caveat: the joined-output *multiset* is backend-invariant,
but wall-clock scheduling makes per-epoch timing, metric values and —
under a detection timeout — the exact detection epoch load-dependent.
See DESIGN.md ("Runtime backends").
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import selectors
import socket
import time
import traceback
import typing as t
from dataclasses import dataclass

from repro.config import SystemConfig
from repro.core.cluster import MASTER_ID, standby_node_id, trace_meta
from repro.core.host import NodeHost, cluster_node_ids
from repro.core.system import RunResult, assemble_result
from repro.errors import ConfigError, DeadlockError
from repro.faults.injector import build_injector
from repro.net.proc_transport import (
    _EOF,
    _TIMED_OUT,
    FrameReader,
    ProcTransport,
    socketpair_mesh,
    write_frame,
)
from repro.obs.exporters import Exporter, merge_records, replay_records
from repro.obs.tracer import NULL_TRACER, Tracer, build_tracer
from repro.runtime.wall import WallRuntime, wall_budget

#: Wall seconds the launcher waits for the nodes' "ready", and a node
#: for its job and the start barrier.
SETUP_TIMEOUT = 120.0
#: Trace records per ``("trace", batch)`` control message.  Large
#: enough that pickling doesn't dominate high-volume tracing (transport
#: spans); the wall-time bound below covers low-volume tracers.
TRACE_BATCH = 64
#: Maximum wall seconds a buffered trace record may wait before it is
#: flushed to the launcher.  Bounds how much of its trace a node killed
#: from outside can lose, regardless of event rate.
TRACE_FLUSH_WALL_S = 0.05

#: node id -> the launcher's and the node's end of its control socketpair.
_Controls = dict[int, tuple[socket.socket, socket.socket]]


@dataclass(frozen=True)
class NodeJob:
    """Everything a process needs to run one cluster node."""

    node_id: int
    cfg: SystemConfig
    collect_pairs: bool
    #: The pinned workload, for the master and the standby, which read
    #: it; ``None`` for every other node, and for the default workload.
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
        self.reader = FrameReader(sock)

    def send(self, obj: t.Any) -> None:
        write_frame(self.sock, pickle.dumps(obj))

    def recv(self, timeout: float | None = None) -> t.Any:
        frame = self.reader.read_frame(timeout)
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
    :meth:`close` — all on the node's one loop thread.
    """

    def __init__(self, conn: ControlConn) -> None:
        self._conn = conn
        self._buffer: list[dict[str, t.Any]] = []
        self._last_flush = time.monotonic()

    def export(self, record: dict[str, t.Any]) -> None:
        self._buffer.append(record)
        if (
            len(self._buffer) >= TRACE_BATCH
            or time.monotonic() - self._last_flush >= TRACE_FLUSH_WALL_S
        ):
            self._flush()

    def _flush(self) -> None:
        self._last_flush = time.monotonic()
        if not self._buffer:
            return
        self._conn.send(("trace", self._buffer))
        self._buffer = []

    def close(self) -> None:
        try:
            self._flush()
        except OSError:  # pragma: no cover
            pass  # launcher gone: nothing left to ship the tail to


def run_node(
    control: ControlConn,
    connect: t.Callable[[], tuple[NodeJob, dict[int, socket.socket]]],
    series_prefix: str,
) -> None:
    """Run one cluster node to completion, reporting over *control*.

    *connect* is the backend's connector: it yields the node's job and
    its established peer sockets (peer node id -> stream socket).
    *series_prefix* names the transport in the node's pair-tally series
    (:class:`~repro.net.proc_transport.ProcTransport`).  Whatever fails
    — the connector included — ships to the launcher as ``("error",
    exception, traceback)``.
    """
    transport = None
    tracer = NULL_TRACER
    try:
        job, peers = connect()
        node_id, cfg = job.node_id, job.cfg
        runtime = WallRuntime(time_scale=cfg.time_scale)
        # Node-local tracer: records ship to the launcher and merge
        # there — nodes never touch the JSONL/console sinks themselves.
        tracer = (
            Tracer([PipeExporter(control)])
            if cfg.obs.tracing
            else NULL_TRACER
        )
        transport = ProcTransport(
            node_id,
            peers,
            cfg.tuple_bytes,
            runtime,
            tracer=tracer if cfg.obs.trace_transport else NULL_TRACER,
            series_prefix=series_prefix,
        )
        injector = build_injector(cfg, tracer)
        # This process builds its own node only, so its sampler reads
        # that node's gauges and nothing else.
        host = NodeHost(
            cfg, runtime, transport, tracer, injector,
            node_ids=[node_id],
            workload=job.workload,
            collect_pairs=job.collect_pairs,
        )

        control.send(("ready",))
        runtime.rebase(await_start(control))
        # The launcher's deadline, counted from the same origin, runs
        # out first and kills stragglers, which peers observe as EOF.
        payloads = host.run(lambda: runtime.run(wall_budget(cfg)))
        injected = injector.injected_records() if injector is not None else []
        control.send(("result", {**payloads[node_id], "injected": injected}))
    except BaseException as error:  # noqa: BLE001 - shipped to the launcher
        detail = traceback.format_exc()
        # The trace so far goes first: a failed run is when it matters.
        tracer.close()
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


def await_start(control: ControlConn) -> float:
    """Block on the launcher's start barrier; returns the node's modeled
    t=0 as a ``time.monotonic()`` value.

    The origin may already lie a little in the past: a node that starts
    late looks exactly like one stalled by the scheduler for as long,
    which the message-driven protocol and every detection timeout
    already tolerate."""
    msg = control.recv(timeout=SETUP_TIMEOUT)
    if msg[0] != "start":
        raise RuntimeError(f"expected the start barrier, got {msg[0]!r}")
    if msg[1] is None:
        # Another host than the launcher's: no shared monotonic clock.
        # t=0 is our own receipt of the start; the protocol is
        # message-driven, so only wall-time *reporting* shifts by the
        # (bounded) skew.
        return time.monotonic()
    return float(msg[1])


def _forked_node(
    job: NodeJob, mesh: dict[int, dict[int, socket.socket]], ctl: _Controls
) -> None:
    """Fork-child entry of the process backend (inherits every fd)."""
    node_id = job.node_id
    # Keep only this node's socket ends.  Critical: a leaked foreign fd
    # would keep a dead peer's channel open and suppress the EOF its
    # peers rely on for failure detection.
    for nid, ends in mesh.items():
        if nid != node_id:
            for sock in ends.values():
                sock.close()
    for nid, (launcher_end, node_end) in ctl.items():
        launcher_end.close()
        if nid != node_id:
            node_end.close()
    run_node(ControlConn(ctl[node_id][1]), lambda: (job, mesh[node_id]), "proc")


class ProcessBackend:
    """One OS process per cluster node (``backend="process"``).

    The only single-host backend where slaves execute their numpy join
    work on separate cores — the thread backend's one loop runs on one.
    """

    def run(
        self,
        cfg: SystemConfig,
        collect_pairs: bool = False,
        workload: t.Any = None,
    ) -> RunResult:
        try:
            ctx = mp.get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX hosts
            raise ConfigError(
                f"the {cfg.backend} backend requires the 'fork' start "
                "method (POSIX only)"
            ) from error

        # Only the master reads the pinned workload, and the standby,
        # whose shadow master replays a replica of it: nobody else is
        # shipped a copy.
        readers = {MASTER_ID}
        if cfg.standby:
            readers.add(standby_node_id(cfg))
        jobs = {
            nid: NodeJob(
                nid, cfg, collect_pairs, workload if nid in readers else None
            )
            for nid in cluster_node_ids(cfg)
        }
        #: Nodes forked on this host (the ones the launcher can signal,
        #: and that share its monotonic clock); every node has a control.
        procs: dict[int, t.Any] = {}
        controls: dict[int, ControlConn] = {}
        traces: dict[int, list[dict[str, t.Any]]] = {}
        sel = selectors.DefaultSelector()
        try:
            self._launch(ctx, cfg, jobs, procs, controls)
            for nid, control in controls.items():
                sel.register(control.sock, selectors.EVENT_READ, (nid, control))
            origin = self._start_barrier(controls, sel, set(procs))
            payloads = self._collect(
                sel, set(jobs), origin + wall_budget(cfg), traces
            )
        finally:
            sel.close()
            for proc in procs.values():
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=10.0)
            for control in controls.values():
                control.close()
            # Failed or not, the run keeps the trace that reached us.
            trace = self._finish_trace(cfg, traces)

        injected = sorted(
            (r for p in payloads.values() for r in p["injected"]),
            key=lambda r: r["t"],
        )
        return assemble_result(cfg, payloads, collect_pairs, injected, trace)

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
        mesh = socketpair_mesh(list(jobs))
        ctl: _Controls = {nid: socket.socketpair() for nid in jobs}
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
            for ends in mesh.values():
                for sock in ends.values():
                    sock.close()
            for nid, (launcher_end, node_end) in ctl.items():
                node_end.close()
                controls[nid] = ControlConn(launcher_end)

    # -- run phases ----------------------------------------------------------
    def _start_barrier(
        self,
        controls: dict[int, ControlConn],
        sel: selectors.BaseSelector,
        local_ids: set[int],
    ) -> float:
        """Wait for every node's "ready", then broadcast the start.

        The origin — modeled t=0 — is the moment the last "ready"
        arrived: every node is built, so nothing is left to wait for.
        Nodes forked on this host share the launcher's monotonic clock
        and get it; the others get ``None`` and anchor t=0 at their own
        receipt of the start (see :func:`await_start`)."""
        waiting = set(controls)
        deadline = time.monotonic() + SETUP_TIMEOUT
        while waiting:
            for nid, msg in _messages(
                sel,
                deadline,
                f"nodes never became ready (setup wedged): {sorted(waiting)}",
            ):
                if msg is None:
                    raise RuntimeError(f"node {nid} died during setup")
                if msg[0] == "error":
                    self._raise_node_error(nid, msg)
                if msg[0] != "ready":
                    raise RuntimeError(
                        f"node {nid} sent {msg[0]!r} before the start barrier"
                    )
                waiting.discard(nid)
        origin = time.monotonic()
        for nid, control in controls.items():
            control.send(("start", origin if nid in local_ids else None))
        return origin

    def _collect(
        self,
        sel: selectors.BaseSelector,
        node_ids: set[int],
        deadline: float,
        traces: dict[int, list[dict[str, t.Any]]],
    ) -> dict[int, dict[str, t.Any]]:
        """Gather a result payload from every node; a node that dies
        without one fails the run.

        ``("trace", batch)`` messages stream in throughout the run and
        accumulate into *traces*."""
        payloads: dict[int, dict[str, t.Any]] = {}
        pending = set(node_ids)
        while pending:
            for nid, msg in _messages(
                sel, deadline, f"nodes never finished: {sorted(pending)}"
            ):
                if nid not in pending:
                    continue  # the EOF that follows a node's result
                if msg is None:
                    raise RuntimeError(
                        f"node {nid} died without reporting a result or an error"
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
        cfg: SystemConfig,
        traces: dict[int, list[dict[str, t.Any]]],
    ) -> list[dict[str, t.Any]] | None:
        """Merge the per-node trace buffers and drive the sinks the
        config asks for; returns the merged records when
        ``trace_memory`` asked for them on the RunResult."""
        sinks = build_tracer(cfg.obs, meta=trace_meta(cfg))
        replay_records(merge_records(traces), sinks.exporters)
        return sinks.memory_records()


def _messages(
    sel: selectors.BaseSelector, deadline: float, stuck: str
) -> t.Iterator[tuple[int, t.Any]]:
    """One wait on every node's control connection at once: each
    message that completed, as ``(nid, msg)``, and ``(nid, None)`` for a
    control that ended — EOF, a reset or an unreadable message all mean
    the node is gone, and its socket leaves *sel*.  Past *deadline*: a
    :class:`DeadlockError` saying what was *stuck* (the caller's
    teardown kills whatever still runs)."""
    ready: list[tuple[selectors.SelectorKey, int]] = []
    while not ready:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlockError(stuck)
        ready = sel.select(remaining)
    for key, _ in ready:
        nid, control = key.data
        reader = control.reader
        msgs = []
        try:
            reader.fill()
            while (frame := reader.pop_frame()) is not None:
                msgs.append(pickle.loads(frame))
        except Exception:  # noqa: BLE001 - a garbled control = node gone
            reader.eof = True
        for msg in msgs:
            yield nid, msg
        if reader.eof:
            sel.unregister(key.fileobj)
            yield nid, None
