"""Modeled rendezvous network on the DES kernel.

Each directed node pair ``(src, dst)`` has an independent reliable
channel.  A ``send`` and its matching ``recv`` *meet*: whichever side
arrives first blocks (idle time); once both are present the transfer
occupies both endpoints for::

    endpoint_overhead(nbytes) + latency + nbytes / bandwidth

seconds, after which the receiver resumes with the message.  Matching
is FIFO per pair — with the paper's fixed communication schedule no
other discipline is ever exercised, and tags are enforced at the
protocol layer instead.

Fault plane (``repro.faults``).  When a :class:`FaultInjector` is
wired in, the transport additionally models failures:

* :meth:`SimTransport.kill_node` reaps a crashed node — its pending
  entries are purged, live peers waiting on it resume with
  :class:`~repro.faults.markers.NodeDown`, and later sends *to* it
  complete after the normal transfer time with the message discarded
  (the TCP-buffered-write model of a fail-stop peer).
* planned message faults drop the k-th message on a pair (the sender
  completes normally, the receiver never sees it) or stretch its
  transfer by a fixed delay.
* ``recv`` accepts an optional timeout: if no send matches in time the
  receiver resumes with :class:`~repro.faults.markers.RecvTimeout`.
* :meth:`SimTransport.drain_pair` fences a suspected-dead sender:
  its pending and future sends on the pair complete silently, so a
  *live* slave the master gave up on can never wedge the run with a
  stale rendezvous entry.

With no injector and no timeouts, none of these paths schedules an
event or consults a counter — a faultless run is byte-identical to one
on the pre-fault transport.
"""

from __future__ import annotations

import typing as t
from collections import deque

from repro.config import NetworkConfig
from repro.faults.markers import NodeDown, RecvTimeout
from repro.obs.events import TransportEvent
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simul.events import Event
from repro.simul.kernel import Simulator

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector


class CommStats(t.Protocol):
    """What the transport records against (duck-typed; implemented by
    :class:`~repro.core.metrics.CommAccount` and its subclasses)."""

    def record_comm(
        self, t0: float, t1: float, nbytes: int, sent: bool
    ) -> None: ...  # pragma: no cover

    def record_idle(self, t0: float, t1: float) -> None: ...  # pragma: no cover


class _Pending:
    """One posted (and not yet matched) send or recv."""

    __slots__ = ("event", "posted_at", "stats", "message", "src", "dst", "extra")

    def __init__(
        self,
        event: Event,
        posted_at: float,
        stats: CommStats | None,
        message: t.Any,
        src: int = -1,
        dst: int = -1,
        extra: float = 0.0,
    ) -> None:
        self.event = event
        self.posted_at = posted_at
        self.stats = stats
        self.message = message  # None for receivers
        #: Channel endpoints (trace spans only; -1 on receiver entries).
        self.src = src
        self.dst = dst
        #: Injected extra transfer seconds (delay faults).
        self.extra = extra


class _Pair:
    __slots__ = ("senders", "receivers")

    def __init__(self) -> None:
        self.senders: deque[_Pending] = deque()
        self.receivers: deque[_Pending] = deque()


class SimTransport:
    """All channels of one simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        network: NetworkConfig,
        tuple_bytes: int,
        tracer: Tracer = NULL_TRACER,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.sim = sim
        self.network = network.validated()
        self.tuple_bytes = tuple_bytes
        #: Span tracer for per-transfer events (high volume; the system
        #: layer only wires a live tracer when ``obs.trace_transport``).
        self.tracer = tracer
        #: Fault injector consulted per posted send (None = no faults).
        self.faults = faults
        self._pairs: dict[tuple[int, int], _Pair] = {}
        #: Nodes reaped by :meth:`kill_node`.
        self.dead: set[int] = set()
        #: Directed pairs fenced by :meth:`drain_pair`.
        self._draining: set[tuple[int, int]] = set()
        #: Total transfers completed (diagnostics).
        self.n_transfers = 0
        self.bytes_moved = 0
        #: Messages discarded (drops, dead destinations, drained pairs).
        self.messages_lost = 0

    def endpoint(self, node_id: int, stats: CommStats | None = None) -> "SimEndpoint":
        return SimEndpoint(self, node_id, stats)

    # -- internals -----------------------------------------------------------
    def _pair(self, src: int, dst: int) -> _Pair:
        key = (src, dst)
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = _Pair()
        return pair

    def _post_send(
        self, src: int, dst: int, message: t.Any, stats: CommStats | None
    ) -> Event:
        extra = 0.0
        if self.faults is not None:
            action = self.faults.send_action(src, dst, self.sim.now)
            if action is not None:
                kind, seconds = action
                if kind == "drop":
                    return self._complete_lost(src, dst, message, stats)
                extra = seconds
        if dst in self.dead or (src, dst) in self._draining:
            return self._complete_lost(src, dst, message, stats)
        event = self.sim.event(name=f"send:{src}->{dst}")
        pair = self._pair(src, dst)
        pair.senders.append(
            _Pending(event, self.sim.now, stats, message, src, dst, extra)
        )
        self._try_match(pair)
        return event

    def _post_recv(
        self,
        src: int,
        dst: int,
        stats: CommStats | None,
        timeout: float | None = None,
    ) -> Event:
        event = self.sim.event(name=f"recv:{src}->{dst}")
        if src in self.dead:
            # The peer is gone and can never send again: resume
            # immediately (the caller pays no modeled transfer time for
            # learning about a reaped connection).
            event.succeed(NodeDown(src))
            return event
        pair = self._pair(src, dst)
        entry = _Pending(event, self.sim.now, stats, None)
        pair.receivers.append(entry)
        self._try_match(pair)
        if timeout is not None and not event.triggered:
            timer = self.sim.timeout(timeout)
            timer.add_callback(
                lambda _t: self._expire_recv(pair, entry, timeout)
            )
        return event

    def _expire_recv(self, pair: _Pair, entry: _Pending, timeout: float) -> None:
        if entry.event.triggered:
            return  # matched (or resolved by kill_node) before the timer
        try:
            pair.receivers.remove(entry)
        except ValueError:  # pragma: no cover - defensive
            pass
        if entry.stats is not None:
            entry.stats.record_idle(entry.posted_at, self.sim.now)
        entry.event.succeed(RecvTimeout(timeout))

    def _complete_lost(
        self, src: int, dst: int, message: t.Any, stats: CommStats | None
    ) -> Event:
        """Complete a send whose message will never be delivered.

        The sender still pays the normal transfer time — it cannot know
        the remote end is gone — but the message is discarded.
        """
        event = self.sim.event(name=f"send:{src}->{dst}:lost")
        nbytes = self._message_bytes(message)
        duration = self.network.endpoint_overhead(
            nbytes
        ) + self.network.transfer_time(nbytes)
        if stats is not None:
            stats.record_comm(self.sim.now, self.sim.now + duration, nbytes, sent=True)
        self.messages_lost += 1
        event.succeed(None, delay=duration)
        return event

    def _try_match(self, pair: _Pair) -> None:
        while pair.senders and pair.receivers:
            send = pair.senders.popleft()
            recv = pair.receivers.popleft()
            self._transfer(send, recv)

    def _transfer(self, send: _Pending, recv: _Pending) -> None:
        now = self.sim.now
        nbytes = self._message_bytes(send.message)
        duration = (
            self.network.endpoint_overhead(nbytes)
            + self.network.transfer_time(nbytes)
            + send.extra
        )
        done = now + duration
        if send.stats is not None:
            send.stats.record_idle(send.posted_at, now)
            send.stats.record_comm(now, done, nbytes, sent=True)
        if recv.stats is not None:
            recv.stats.record_idle(recv.posted_at, now)
            recv.stats.record_comm(now, done, nbytes, sent=False)
        self.n_transfers += 1
        self.bytes_moved += nbytes
        if self.tracer.enabled:
            self.tracer.emit(
                TransportEvent(
                    t=now,
                    node=send.src,
                    dst=send.dst,
                    msg=type(send.message).__name__,
                    nbytes=nbytes,
                    duration=duration,
                )
            )
        send.event.succeed(None, delay=duration)
        recv.event.succeed(send.message, delay=duration)

    def _message_bytes(self, message: t.Any) -> int:
        wire = getattr(message, "wire_bytes", None)
        if wire is None:
            return 64
        return int(wire(self.tuple_bytes))

    # -- fault plane ---------------------------------------------------------
    def kill_node(self, node_id: int) -> None:
        """Reap a fail-stop crashed node.

        Pending entries posted *by* the dead node are discarded (its
        processes are being killed; their events must never fire into a
        live peer).  Live peers blocked receiving *from* it resume with
        :class:`NodeDown`; live peers sending *to* it complete after
        the normal transfer time with the message discarded.
        """
        self.dead.add(node_id)
        for (src, dst), pair in self._pairs.items():
            if src == node_id:
                # Senders here were posted by the dead node: discard.
                pair.senders.clear()
                # Receivers here are live nodes waiting on the dead one.
                for entry in pair.receivers:
                    if not entry.event.triggered:
                        if entry.stats is not None:
                            entry.stats.record_idle(entry.posted_at, self.sim.now)
                        entry.event.succeed(NodeDown(node_id))
                pair.receivers.clear()
            elif dst == node_id:
                # Senders here are live nodes sending to the dead one.
                for entry in pair.senders:
                    if not entry.event.triggered:
                        nbytes = self._message_bytes(entry.message)
                        duration = self.network.endpoint_overhead(
                            nbytes
                        ) + self.network.transfer_time(nbytes)
                        if entry.stats is not None:
                            entry.stats.record_comm(
                                self.sim.now,
                                self.sim.now + duration,
                                nbytes,
                                sent=True,
                            )
                        self.messages_lost += 1
                        entry.event.succeed(None, delay=duration)
                pair.senders.clear()
                # Receivers here were posted by the dead node: discard.
                pair.receivers.clear()

    def drain_pair(self, src: int, dst: int) -> None:
        """Fence *src*'s channel towards *dst*.

        Used by the master after declaring a slave dead on timeout: if
        the slave is actually alive and late, its pending and future
        sends on this pair complete silently instead of wedging the
        run with an unmatched rendezvous entry.
        """
        self._draining.add((src, dst))
        pair = self._pairs.get((src, dst))
        if pair is None:
            return
        for entry in pair.senders:
            if not entry.event.triggered:
                nbytes = self._message_bytes(entry.message)
                duration = self.network.endpoint_overhead(
                    nbytes
                ) + self.network.transfer_time(nbytes)
                if entry.stats is not None:
                    entry.stats.record_idle(entry.posted_at, self.sim.now)
                    entry.stats.record_comm(
                        self.sim.now, self.sim.now + duration, nbytes, sent=True
                    )
                self.messages_lost += 1
                entry.event.succeed(None, delay=duration)
        pair.senders.clear()

    def pending_summary(self) -> list[str]:
        """Human-readable pending send/recv endpoints per pair.

        Threaded into :class:`~repro.errors.DeadlockError` so a stuck
        run names the exact rendezvous that never completed.
        """
        out: list[str] = []
        for src, dst in sorted(self._pairs):
            pair = self._pairs[(src, dst)]
            sends = [
                type(e.message).__name__
                for e in pair.senders
                if not e.event.triggered
            ]
            recvs = sum(1 for e in pair.receivers if not e.event.triggered)
            if sends:
                out.append(
                    f"{src}->{dst}: {len(sends)} pending send"
                    f" ({', '.join(sends)})"
                )
            if recvs:
                out.append(f"{src}->{dst}: {recvs} pending recv")
        return out


class SimEndpoint:
    """One node's handle on the transport."""

    __slots__ = ("transport", "node_id", "stats")

    def __init__(
        self, transport: SimTransport, node_id: int, stats: CommStats | None
    ) -> None:
        self.transport = transport
        self.node_id = node_id
        self.stats = stats

    def send(self, dst: int, message: t.Any) -> Event:
        """Awaitable completing when *dst* has received *message*."""
        return self.transport._post_send(self.node_id, dst, message, self.stats)

    def recv(self, src: int, timeout: float | None = None) -> Event:
        """Awaitable completing with the next message from *src*.

        With a *timeout*, resumes with :class:`RecvTimeout` if no send
        matched within that many simulated seconds.
        """
        return self.transport._post_recv(src, self.node_id, self.stats, timeout)

    def drain(self, src: int) -> None:
        """Fence the channel from *src* to this node (see transport)."""
        self.transport.drain_pair(src, self.node_id)
