"""Framed stream-socket channels: the one wall-clock data plane the
``process`` and ``tcp`` backends share.

Each unordered node pair of the cluster shares one full-duplex stream
socket.  Where it comes from is the caller's business — a
``socket.socketpair()`` inherited across ``fork`` (the parent closes
both ends afterwards, so peer death is observable as EOF) or a
handshaken TCP connection (:mod:`repro.net.tcp_transport`); everything
from the first frame on is this module.  Messages travel as
length-prefixed frames::

    length  4 bytes  big-endian payload size
    payload         one :mod:`repro.net.wire` encoded message

Semantics, mirrored from :class:`~repro.net.sim_transport.SimTransport`
so node code behind :mod:`repro.mp.comm` behaves identically:

* **FIFO per pair** — kernel stream sockets preserve order; the fixed
  communication schedule needs nothing stronger.
* **peer EOF → NodeDown** — when the remote process exits (cleanly or
  killed), buffered frames are still delivered, then ``recv`` resolves
  to :class:`~repro.faults.markers.NodeDown`, the same marker the DES
  transport synthesizes for a reaped node.  The PR 3 failure-detection
  path in the master therefore works unchanged.
* **sends to a dead peer still complete** — a write hitting a closed
  socket (``EPIPE``/``ECONNRESET``) is the TCP-buffered-write model of
  a fail-stop peer: the message is discarded and nothing raises
  (callers ignore send values), but the thunk resolves to ``NodeDown``
  instead of ``None`` so tests and diagnostics can see the broken pipe.
* **recv timeout → RecvTimeout** — an armed detection timeout that
  elapses with no frame resolves to
  :class:`~repro.faults.markers.RecvTimeout` (timeout is in *modeled*
  seconds; the wall wait is scaled by ``time_scale``).
* **drain fences a pair** — after ``drain(src)``, frames from *src*
  are consumed and discarded by a background reader so a live-but-late
  peer can never wedge on a full socket buffer, and local receives
  from the fenced peer resolve to ``NodeDown`` (the master never
  legitimately receives from a slave it fenced).

Unlike the rendezvous transports, sends are *buffered*: ``send``
completes once the frame is written to the socket, which blocks only
when the kernel buffer fills (natural backpressure).  Statistics
therefore measure real wall time spent writing/reading, not modeled
rendezvous spans — see the backend matrix in the README.

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
import threading
import time
import typing as t

from repro.errors import WireError
from repro.faults.markers import NodeDown, RecvTimeout
from repro.net.sim_transport import CommStats
from repro.net.wire import decode_message, encode_message
from repro.obs.events import TransportEvent
from repro.obs.metrics import counter
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.thread import Thunk

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
    ``recv`` — reassembles correctly.  Exactly one thread reads any
    given channel, so the buffer needs no lock.
    """

    def __init__(self, sock: socket.socket, chunk_bytes: int = 65536) -> None:
        self.sock = sock
        self.chunk_bytes = chunk_bytes
        self._buf = bytearray()
        self._eof = False

    def _fill(self, deadline: float | None) -> bool:
        """Read one chunk into the buffer.

        Returns False on timeout; sets ``_eof`` on connection end.
        """
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            ready, _, _ = select.select([self.sock], [], [], remaining)
            if not ready:
                return False
        try:
            chunk = self.sock.recv(self.chunk_bytes)
        except (ConnectionResetError, OSError):
            chunk = b""
        if not chunk:
            self._eof = True
        else:
            self._buf += chunk
        return True

    def read_frame(self, timeout: float | None = None) -> t.Any:
        """One frame's payload bytes, ``_EOF``, or ``_TIMED_OUT``.

        *timeout* is in wall seconds and bounds the wait for the
        *first* byte of the frame; once a frame has started arriving it
        is read to completion (the peer is evidently alive).
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while len(self._buf) < FRAME_HEADER.size:
            if self._eof:
                return _EOF
            started = len(self._buf) > 0
            if not self._fill(None if started else deadline):
                return _TIMED_OUT
        (length,) = FRAME_HEADER.unpack(bytes(self._buf[: FRAME_HEADER.size]))
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame of {length} bytes exceeds sanity bound")
        total = FRAME_HEADER.size + length
        while len(self._buf) < total:
            if self._eof:
                # A torn frame: the peer died mid-write.  Surface it as
                # EOF — the partial payload must never reach the codec.
                return _EOF
            self._fill(None)
        payload = bytes(self._buf[FRAME_HEADER.size : total])
        del self._buf[:total]
        return payload


#: Per-channel tallies of wire frames and wire bytes (header + payload)
#: written to / read from the peer: attribute, series direction.
_TALLIES = (
    ("tx_frames", "to"),
    ("tx_bytes", "to"),
    ("rx_frames", "from"),
    ("rx_bytes", "from"),
)


class _Channel:
    """This node's half of one peer socket."""

    __slots__ = (
        "peer", "sock", "reader", "send_lock", "draining",
        "send_seq", "recv_seq",
        "tx_frames", "tx_bytes", "rx_frames", "rx_bytes",
    )

    def __init__(self, peer: int, sock: socket.socket) -> None:
        self.peer = peer
        self.sock = sock
        self.reader = FrameReader(sock)
        self.send_lock = threading.Lock()
        self.draining = False
        # Per-directed-stream message counters for transport tracing:
        # the socket is FIFO, so the n-th send pairs the n-th receive
        # on the peer.  ``send_seq`` is guarded by ``send_lock``;
        # exactly one thread reads a channel, so ``recv_seq`` is not.
        self.send_seq = 0
        self.recv_seq = 0
        # tx under ``send_lock``, rx by the one reader thread.
        self.tx_frames = self.tx_bytes = self.rx_frames = self.rx_bytes = 0


class _ForeignEndpoint:
    """Endpoint stub for a node that lives in another OS process.

    ``build_cluster`` wires every node of the cluster, but a process
    backend child only *runs* its own node's generators — the other
    nodes' endpoints must never be exercised here.
    """

    __slots__ = ("node_id",)

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def _refuse(self, *_a: t.Any, **_k: t.Any) -> t.NoReturn:
        raise RuntimeError(
            f"node {self.node_id} lives in another process; its endpoint "
            "cannot be used here"
        )

    send = _refuse
    recv = _refuse
    drain = _refuse


class ProcTransport:
    """One process's view of the cluster interconnect.

    ``peers`` maps peer node id -> this process's end of the shared
    stream socket.  ``endpoint`` hands out the real endpoint for the
    local node and refusing stubs for every other node.
    """

    #: First component of the pair-tally metric series names.
    series_prefix = "proc"

    def __init__(
        self,
        node_id: int,
        peers: t.Mapping[int, socket.socket],
        tuple_bytes: int,
        time_scale: float = 1.0,
        origin: float | None = None,
        tracer: Tracer = NULL_TRACER,
        now_fn: t.Callable[[], float] | None = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.node_id = node_id
        self.tuple_bytes = tuple_bytes
        self.time_scale = time_scale
        self._origin = time.monotonic() if origin is None else origin
        self.tracer = tracer
        self._now_fn = now_fn
        self._channels = {
            peer: _Channel(peer, sock) for peer, sock in peers.items()
        }
        self._drain_threads: list[threading.Thread] = []

    # -- clock ---------------------------------------------------------------
    def _now(self) -> float:
        if self._now_fn is not None:
            return self._now_fn()
        return (time.monotonic() - self._origin) / self.time_scale

    def rebase(self, origin: float) -> None:
        """Move modeled t=0 to the given ``time.monotonic()`` value (set
        by the process backend's start barrier, shared by all nodes)."""
        self._origin = origin

    # -- wiring --------------------------------------------------------------
    def endpoint(
        self, node_id: int, stats: CommStats | None = None
    ) -> "ProcEndpoint | _ForeignEndpoint":
        if node_id != self.node_id:
            return _ForeignEndpoint(node_id)
        return ProcEndpoint(self, stats)

    def channel(self, peer: int) -> _Channel:
        chan = self._channels.get(peer)
        if chan is None:
            raise RuntimeError(
                f"node {self.node_id} has no channel to peer {peer}"
            )
        return chan

    def close(self) -> None:
        """Close every socket (end of run; peers observe EOF)."""
        for chan in self._channels.values():
            try:
                chan.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
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

    def _message_bytes(self, message: t.Any) -> int:
        # Stats record the *modeled* 64 B/tuple wire size, like the sim
        # and thread transports, so per-byte metrics stay comparable.
        wire = getattr(message, "wire_bytes", None)
        return 64 if wire is None else int(wire(self.tuple_bytes))

    # -- fencing -------------------------------------------------------------
    def drain_peer(self, peer: int) -> None:
        """Fence *peer*: discard its frames in the background forever.

        Idempotent.  Keeps a live-but-fenced peer from blocking on a
        full socket buffer (the process analogue of
        :meth:`SimTransport.drain_pair`'s silently-completing sends).
        """
        chan = self.channel(peer)
        if chan.draining:
            return
        chan.draining = True

        def discard() -> None:
            while True:
                frame = chan.reader.read_frame(None)
                if frame is _EOF:
                    return

        thread = threading.Thread(
            target=discard,
            name=f"drain:{peer}->{self.node_id}",
            daemon=True,
        )
        self._drain_threads.append(thread)
        thread.start()


class ProcEndpoint:
    """The local node's handle on the process transport."""

    __slots__ = ("transport", "node_id", "stats")

    def __init__(
        self, transport: ProcTransport, stats: CommStats | None
    ) -> None:
        self.transport = transport
        self.node_id = transport.node_id
        self.stats = stats

    def send(self, dst: int, message: t.Any) -> Thunk:
        transport = self.transport
        chan = transport.channel(dst)

        def fn() -> NodeDown | None:
            payload = encode_message(message)
            t0 = transport._now()
            dead = False
            try:
                with chan.send_lock:
                    seq = chan.send_seq
                    chan.send_seq += 1
                    write_frame(chan.sock, payload)
                    chan.tx_frames += 1
                    chan.tx_bytes += FRAME_HEADER.size + len(payload)
            except OSError:
                # Fail-stop peer (EPIPE/ECONNRESET): the send still
                # completes, like a TCP write buffered towards a dead
                # host, but the thunk value records the broken pipe.
                dead = True
            t1 = transport._now()
            nbytes = transport._message_bytes(message)
            if self.stats is not None:
                self.stats.record_comm(t0, t1, nbytes, sent=True)
            tracer = transport.tracer
            if tracer.enabled:
                tracer.emit(
                    TransportEvent(
                        t=t0,
                        node=self.node_id,
                        dst=dst,
                        msg=type(message).__name__,
                        nbytes=nbytes,
                        duration=t1 - t0,
                        phase="send",
                        xfer_seq=seq,
                    )
                )
            return NodeDown(dst) if dead else None

        return Thunk(fn)

    def recv(self, src: int, timeout: float | None = None) -> Thunk:
        transport = self.transport
        chan = transport.channel(src)

        def fn() -> t.Any:
            t0 = transport._now()
            if chan.draining:
                # The pair is fenced: this node gave up on the peer.
                return NodeDown(src)
            wall = (
                None
                if timeout is None
                else max(0.0, timeout) * transport.time_scale
            )
            frame = chan.reader.read_frame(wall)
            t1 = transport._now()
            if frame is _TIMED_OUT:
                if self.stats is not None:
                    self.stats.record_idle(t0, t1)
                return RecvTimeout(timeout or 0.0)
            if frame is _EOF:
                if self.stats is not None:
                    self.stats.record_idle(t0, t1)
                return NodeDown(src)
            chan.rx_frames += 1
            chan.rx_bytes += FRAME_HEADER.size + len(frame)
            message = decode_message(frame)
            seq = chan.recv_seq
            chan.recv_seq += 1
            nbytes = transport._message_bytes(message)
            if self.stats is not None:
                self.stats.record_idle(t0, t1)
                self.stats.record_comm(t1, t1, nbytes, sent=False)
            tracer = transport.tracer
            if tracer.enabled:
                tracer.emit(
                    TransportEvent(
                        t=t1,
                        node=self.node_id,
                        dst=src,
                        msg=type(message).__name__,
                        nbytes=nbytes,
                        duration=t1 - t0,
                        phase="recv",
                        xfer_seq=seq,
                    )
                )
            return message

        return Thunk(fn)

    def drain(self, src: int) -> None:
        """Fence the channel from *src* (see :meth:`ProcTransport.drain_peer`)."""
        self.transport.drain_peer(src)
