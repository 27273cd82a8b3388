"""Framed stream-socket channels: the one wall-clock data plane the
``thread``, ``process`` and ``tcp`` backends share.

Each unordered node pair of the cluster shares one full-duplex stream
socket.  Where it comes from is the caller's business — a
``socket.socketpair()`` (:func:`socketpair_mesh`) held by one process
(:class:`LocalMesh`, the thread backend) or inherited across ``fork``
(the parent closes both ends afterwards, so peer death is observable as
EOF), or a handshaken TCP connection (:mod:`repro.net.tcp_transport`);
everything from the first frame on is this module.  Nodes in one
process share nothing either: every message is encoded on send and
decoded into a fresh object on receive.  Messages travel as
length-prefixed frames::

    length  4 bytes  big-endian payload size
    payload         one :mod:`repro.net.wire` encoded message

Sends and receives are kernel events of the node's
:class:`~repro.runtime.wall.WallRuntime`: the sockets are non-blocking
and registered with the runtime's selector, whose loop moves the bytes
between events.  A node holds the same
:class:`~repro.net.comm.Endpoint` as on the simulated transport, and
the semantics are mirrored from
:class:`~repro.net.sim_transport.SimTransport`, so node code behaves
identically:

* **FIFO per pair** — kernel stream sockets preserve order; the fixed
  communication schedule needs nothing stronger.
* **peer EOF → NodeDown** — when the remote node ends (its process
  exits, or a crash injection shuts its sockets down through
  :meth:`ProcTransport.kill_node` or :meth:`LocalMesh.kill_node`),
  buffered frames are still delivered, then ``recv`` resolves
  to :class:`~repro.faults.markers.NodeDown`, the same marker the DES
  transport synthesizes for a reaped node.  The master's
  failure-detection path therefore works unchanged.
* **sends to a dead peer still complete** — a write hitting a closed
  socket (``EPIPE``/``ECONNRESET``) is the TCP-buffered-write model of
  a fail-stop peer: the message is discarded and nothing raises
  (callers ignore send values), but the event resolves to ``NodeDown``
  instead of ``None`` so tests and diagnostics can see the broken pipe.
* **recv timeout → RecvTimeout** — an armed detection timeout is a
  kernel timer (in *modeled* seconds, so the wall wait is scaled by
  ``time_scale``); whichever of frame and timer comes first resolves
  the receive, which then resolves to
  :class:`~repro.faults.markers.RecvTimeout`.
* **drain fences a pair** — after ``drain(src)``, frames from *src*
  are read and discarded by the loop, so a live-but-late peer can
  never wedge on a full socket buffer, and local receives from the
  fenced peer resolve to ``NodeDown`` (the master never legitimately
  receives from a slave it fenced).

Unlike the simulated rendezvous, sends are *buffered*: ``send``
completes once the frame's last byte is written to the socket.  A frame
larger than the socket buffer waits in user space and the loop writes
the rest as the peer reads, so the sending process waits (natural
backpressure) while the loop never does.  Statistics therefore measure
real wall time spent writing/reading, not modeled rendezvous spans —
see the backend matrix in the README.

Every channel also tallies the frames and wire bytes (header +
payload) it moved in each direction, as plain ints:
:meth:`ProcTransport.pair_stats` reads them raw,
:meth:`ProcTransport.series` renders them as the node's
``<prefix>.tx_bytes.to_n*`` / ``<prefix>.rx_frames.from_n*`` counter
series.
"""

from __future__ import annotations

import select
import socket
import struct
import time
import typing as t
from collections import deque
from functools import partial
from selectors import EVENT_READ, EVENT_WRITE

from repro.errors import WireError
from repro.faults.markers import NodeDown, RecvTimeout
from repro.net.comm import CommStats, Endpoint, message_bytes
from repro.net.wire import decode_message, encode_message
from repro.obs.events import TransportEvent
from repro.obs.metrics import counter
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simul.events import Event

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.wall import WallRuntime

#: Frame header: big-endian payload length.
FRAME_HEADER = struct.Struct("!I")
#: Refuse absurd frames (a corrupted header would otherwise make the
#: reader try to allocate gigabytes before failing).
MAX_FRAME_BYTES = 1 << 30

#: Sentinel distinguishing "timed out" from "EOF" inside the reader.
_TIMED_OUT = object()
_EOF = object()


def write_frame(sock: socket.socket, payload: bytes) -> None:
    """Write one length-prefixed frame (blocking until buffered)."""
    sock.sendall(FRAME_HEADER.pack(len(payload)) + payload)


class FrameReader:
    """Incremental frame reassembly over one stream socket.

    Keeps a byte buffer so a frame split across arbitrarily many
    ``recv`` calls (partial reads) — or several frames arriving in one
    ``recv`` — reassembles correctly.  Exactly one reader reads any
    given socket, so the buffer needs no lock.
    """

    def __init__(self, sock: socket.socket, chunk_bytes: int = 65536) -> None:
        self.sock = sock
        self.chunk_bytes = chunk_bytes
        self._buf = bytearray()
        #: Set once the stream has ended (EOF, reset or shutdown).
        self.eof = False

    def fill(self) -> None:
        """Read one chunk into the buffer, or set :attr:`eof`.  On a
        non-blocking socket with nothing to read, does nothing."""
        try:
            chunk = self.sock.recv(self.chunk_bytes)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if chunk:
            self._buf += chunk
        else:
            self.eof = True

    def clear(self) -> None:
        """Drop whatever is buffered (a fenced peer's frames)."""
        self._buf.clear()

    def pop_frame(self) -> bytes | None:
        """The payload of the next complete buffered frame, if any."""
        buf = self._buf
        if len(buf) < FRAME_HEADER.size:
            return None
        (length,) = FRAME_HEADER.unpack_from(buf)
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame of {length} bytes exceeds sanity bound")
        total = FRAME_HEADER.size + length
        if len(buf) < total:
            return None
        payload = bytes(buf[FRAME_HEADER.size : total])
        del buf[:total]
        return payload

    def read_frame(self, timeout: float | None = None) -> t.Any:
        """Block for one frame's payload bytes; ``_EOF`` or
        ``_TIMED_OUT`` instead.

        *timeout* is in wall seconds and bounds the wait for the
        *first* byte of the frame; once a frame has started arriving it
        is read to completion (the peer is evidently alive).  A frame
        torn by the peer's end is ``_EOF``: the partial payload never
        reaches the codec.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            frame = self.pop_frame()
            if frame is not None:
                return frame
            if self.eof:
                return _EOF
            if deadline is not None and not self._buf:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return _TIMED_OUT
                ready, _, _ = select.select([self.sock], [], [], remaining)
                if not ready:
                    return _TIMED_OUT
            self.fill()


#: Per-channel tallies of wire frames and wire bytes (header + payload)
#: written to / read from the peer: attribute, series direction.
_TALLIES = (
    ("tx_frames", "to"),
    ("tx_bytes", "to"),
    ("rx_frames", "from"),
    ("rx_bytes", "from"),
)


class _Send:
    """A frame on its way out, and the send waiting for it."""

    __slots__ = ("event", "stats", "message", "nbytes", "t0", "seq", "rest")

    def __init__(
        self, event: Event, stats: CommStats | None, message: t.Any,
        frame: bytes, t0: float, seq: int,
    ) -> None:
        self.event = event
        self.stats = stats
        self.message = message
        self.nbytes = len(frame)
        self.t0 = t0
        self.seq = seq
        #: The bytes the socket has not taken yet.
        self.rest = memoryview(frame)


class _Recv:
    """A receive waiting for the next frame."""

    __slots__ = ("event", "stats", "t0", "timeout")

    def __init__(
        self, event: Event, stats: CommStats | None, t0: float,
        timeout: float | None,
    ) -> None:
        self.event = event
        self.stats = stats
        self.t0 = t0
        self.timeout = timeout


class _Channel:
    """This node's half of one peer socket."""

    __slots__ = (
        "peer", "sock", "reader", "draining", "closed", "mask",
        "sends", "recvs", "send_seq", "recv_seq",
        "tx_frames", "tx_bytes", "rx_frames", "rx_bytes",
    )

    def __init__(self, peer: int, sock: socket.socket) -> None:
        self.peer = peer
        self.sock = sock
        sock.setblocking(False)
        self.reader = FrameReader(sock)
        self.draining = False
        #: Set once this end is shut down: nothing moves any more.
        self.closed = False
        #: The selector events the channel is registered for.
        self.mask = 0
        self.sends: deque[_Send] = deque()
        self.recvs: deque[_Recv] = deque()
        # Per-directed-stream message counters for transport tracing:
        # the socket is FIFO, so the n-th send pairs the n-th receive
        # on the peer.
        self.send_seq = 0
        self.recv_seq = 0
        self.tx_frames = self.tx_bytes = self.rx_frames = self.rx_bytes = 0


def socketpair_mesh(
    node_ids: t.Sequence[int],
) -> dict[int, dict[int, socket.socket]]:
    """A full mesh of ``socket.socketpair()``s, one per unordered node
    pair, as each node's ``{peer: socket}`` ends."""
    ends: dict[int, dict[int, socket.socket]] = {nid: {} for nid in node_ids}
    for i, a in enumerate(node_ids):
        for b in node_ids[i + 1:]:
            ends[a][b], ends[b][a] = socket.socketpair()
    return ends


class ProcTransport:
    """One node's view of the cluster interconnect.

    ``peers`` maps peer node id -> this node's end of the shared stream
    socket.  ``endpoint`` hands out the local node's endpoint; no other
    node lives in this process.  *runtime* is the node's
    wall-clocked kernel: its clock stamps the statistics, its events
    are what sends and receives return, and its selector watches the
    sockets.  *series_prefix* names the transport in the pair tallies'
    series: ``proc`` over inherited socketpairs, ``tcp`` over
    handshaken connections.
    """

    def __init__(
        self,
        node_id: int,
        peers: t.Mapping[int, socket.socket],
        tuple_bytes: int,
        runtime: "WallRuntime",
        tracer: Tracer = NULL_TRACER,
        series_prefix: str = "proc",
    ) -> None:
        self.node_id = node_id
        self.tuple_bytes = tuple_bytes
        self.runtime = runtime
        self.tracer = tracer
        #: First component of the pair-tally metric series names.
        self.series_prefix = series_prefix
        self._channels = {
            peer: _Channel(peer, sock) for peer, sock in peers.items()
        }

    # -- wiring --------------------------------------------------------------
    def endpoint(self, node_id: int, stats: CommStats | None = None) -> Endpoint:
        if node_id != self.node_id:
            raise RuntimeError(f"node {node_id} lives in another process")
        return Endpoint(self, node_id, stats)

    def channel(self, peer: int) -> _Channel:
        chan = self._channels.get(peer)
        if chan is None:
            raise RuntimeError(
                f"node {self.node_id} has no channel to peer {peer}"
            )
        return chan

    def kill(self) -> None:
        """Fail-stop this node in place: shut down its socket ends.

        Peers see buffered frames, then EOF → ``NodeDown``, and their
        sends to it resolve to ``NodeDown``, as after a SIGKILL.  This
        node's own pending sends and receives are dropped unresolved:
        the crash kills the processes waiting on them."""
        for chan in self._channels.values():
            chan.closed = True
            chan.sends.clear()
            chan.recvs.clear()
            self._watch(chan)
            try:
                chan.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def kill_node(self, node_id: int) -> None:
        """Crash injection: fail-stop *node_id*, which must be this
        node (see :meth:`kill`)."""
        if node_id != self.node_id:
            raise RuntimeError(f"node {node_id} lives in another process")
        self.kill()

    def close(self) -> None:
        """Close every socket (end of run; peers observe EOF)."""
        self.kill()
        for chan in self._channels.values():
            chan.sock.close()

    # -- pair tallies --------------------------------------------------------
    def pair_stats(self) -> dict[int, dict[str, int]]:
        """Raw per-peer counters."""
        return {
            peer: {attr: getattr(chan, attr) for attr, _ in _TALLIES}
            for peer, chan in sorted(self._channels.items())
        }

    def series(self) -> dict[str, dict[str, t.Any]]:
        """The pair tallies as this node's typed counter series."""
        return {
            f"{self.series_prefix}.{attr}.{direction}_n{peer}": counter(stats[attr])
            for peer, stats in self.pair_stats().items()
            for attr, direction in _TALLIES
        }

    def _trace(
        self, peer: int, message: t.Any, nbytes: int, t: float,
        duration: float, phase: str, seq: int,
    ) -> None:
        if not self.tracer.enabled:
            return
        self.tracer.emit(
            TransportEvent(
                t=t,
                node=self.node_id,
                dst=peer,
                msg=type(message).__name__,
                nbytes=nbytes,
                duration=duration,
                phase=phase,
                xfer_seq=seq,
            )
        )

    # -- what an endpoint calls ----------------------------------------------
    def send(
        self, src: int, dst: int, message: t.Any, stats: CommStats | None
    ) -> Event:
        """Event completing once *message* is written to the socket."""
        chan = self.channel(dst)
        event = self.runtime.event(f"send:{src}->{dst}")
        payload = encode_message(message)
        send = _Send(
            event, stats, message,
            FRAME_HEADER.pack(len(payload)) + payload,
            self.runtime.now(), chan.send_seq,
        )
        chan.send_seq += 1
        if chan.closed:
            self._sent(chan, send, NodeDown(dst))
            return event
        chan.sends.append(send)
        self._flush(chan)
        self._watch(chan)
        return event

    def recv(
        self, src: int, dst: int, stats: CommStats | None,
        timeout: float | None = None,
    ) -> Event:
        """Event completing with the next message from *src*.

        With a *timeout* (modeled seconds), resumes with
        :class:`RecvTimeout` if no frame arrived within it."""
        chan = self.channel(src)
        runtime = self.runtime
        event = runtime.event(f"recv:{src}->{dst}")
        recv = _Recv(event, stats, runtime.now(), timeout)
        if chan.draining:
            # The pair is fenced: this node gave up on the peer.
            self._received(recv, NodeDown(src))
            return event
        chan.recvs.append(recv)
        self._deliver(chan)
        if not event.triggered:
            if timeout is not None:
                runtime.sleep(timeout).add_callback(
                    lambda _timer: self._expire(chan, recv)
                )
            self._watch(chan)
        return event

    def drain(self, src: int, dst: int) -> None:
        """Fence *src*: discard its frames in the loop from now on.

        Idempotent.  Keeps a live-but-fenced peer from blocking on a
        full socket buffer (the process analogue of
        :meth:`SimTransport.drain`'s silently-completing sends).
        """
        chan = self.channel(src)
        chan.draining = True
        while chan.recvs:
            self._received(chan.recvs.popleft(), NodeDown(src))
        self._watch(chan)

    # -- the loop's side -----------------------------------------------------
    def _watch(self, chan: _Channel) -> None:
        """Register *chan* for exactly the readiness it waits on: read
        while a receive waits or the pair is fenced, write while a
        frame is part-written."""
        mask = 0
        if not chan.closed:
            if (chan.recvs or chan.draining) and not chan.reader.eof:
                mask |= EVENT_READ
            if chan.sends:
                mask |= EVENT_WRITE
        if mask == chan.mask:
            return
        selector, handler = self.runtime.selector, partial(self._ready, chan)
        if not chan.mask:
            selector.register(chan.sock, mask, handler)
        elif not mask:
            selector.unregister(chan.sock)
        else:
            selector.modify(chan.sock, mask, handler)
        chan.mask = mask

    def _ready(self, chan: _Channel, ready: int) -> None:
        if ready & EVENT_WRITE:
            self._flush(chan)
        if ready & EVENT_READ:
            chan.reader.fill()
            if chan.draining:
                chan.reader.clear()
            else:
                self._deliver(chan)
        self._watch(chan)

    def _flush(self, chan: _Channel) -> None:
        """Write queued frames until the socket is full."""
        while chan.sends:
            head = chan.sends[0]
            try:
                head.rest = head.rest[chan.sock.send(head.rest):]
            except BlockingIOError:
                return
            except OSError:
                # Fail-stop peer (EPIPE/ECONNRESET): every queued send
                # still completes, like a TCP write buffered towards a
                # dead host, but its value records the broken pipe.
                while chan.sends:
                    self._sent(chan, chan.sends.popleft(), NodeDown(chan.peer))
                return
            if head.rest:
                return
            chan.sends.popleft()
            chan.tx_frames += 1
            chan.tx_bytes += head.nbytes
            self._sent(chan, head, None)

    def _sent(self, chan: _Channel, send: _Send, value: NodeDown | None) -> None:
        t1 = self.runtime.now()
        nbytes = message_bytes(send.message, self.tuple_bytes)
        if send.stats is not None:
            send.stats.record_comm(send.t0, t1, nbytes, sent=True)
        self._trace(
            chan.peer, send.message, nbytes, send.t0, t1 - send.t0, "send",
            send.seq,
        )
        send.event.succeed(value)

    def _deliver(self, chan: _Channel) -> None:
        """Resolve waiting receives with buffered frames, in order;
        once the stream has ended, the rest with ``NodeDown``."""
        while chan.recvs:
            frame = chan.reader.pop_frame()
            if frame is None:
                if not chan.reader.eof:
                    return
                self._received(chan.recvs.popleft(), NodeDown(chan.peer))
                continue
            chan.rx_frames += 1
            chan.rx_bytes += FRAME_HEADER.size + len(frame)
            message = decode_message(frame)
            seq = chan.recv_seq
            chan.recv_seq += 1
            recv = chan.recvs.popleft()
            t1 = self._received(recv, message)
            nbytes = message_bytes(message, self.tuple_bytes)
            if recv.stats is not None:
                recv.stats.record_comm(t1, t1, nbytes, sent=False)
            self._trace(chan.peer, message, nbytes, t1, t1 - recv.t0, "recv", seq)

    def _received(self, recv: _Recv, value: t.Any) -> float:
        t1 = self.runtime.now()
        if recv.stats is not None:
            recv.stats.record_idle(recv.t0, t1)
        recv.event.succeed(value)
        return t1

    def _expire(self, chan: _Channel, recv: _Recv) -> None:
        """A receive's timer fired: time it out unless a frame came
        first."""
        if recv not in chan.recvs:
            return
        chan.recvs.remove(recv)
        self._received(recv, RecvTimeout(recv.timeout or 0.0))
        self._watch(chan)


class LocalMesh:
    """Every node's framed transport inside one OS process (the thread
    backend): one :class:`ProcTransport` per node over a
    :func:`socketpair_mesh`, all on the one *runtime*, so in-process
    nodes exchange encoded frames exactly as forked ones do."""

    def __init__(
        self,
        node_ids: t.Sequence[int],
        tuple_bytes: int,
        runtime: "WallRuntime",
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self._transports = {
            nid: ProcTransport(nid, peers, tuple_bytes, runtime, tracer)
            for nid, peers in socketpair_mesh(node_ids).items()
        }

    def endpoint(self, node_id: int, stats: CommStats | None = None) -> Endpoint:
        return self._transports[node_id].endpoint(node_id, stats)

    def kill_node(self, node_id: int) -> None:
        """Fail-stop *node_id* (see :meth:`ProcTransport.kill`)."""
        self._transports[node_id].kill()

    def close(self) -> None:
        """End of run: close every node's sockets."""
        for transport in self._transports.values():
            transport.close()
