"""Blocking point-to-point endpoint.

The paper implements its prototype on mpiJava/LAM-MPI; here the
equivalent layer is :class:`Endpoint`, one node's handle on its
transport, expressed as awaitables and generators so it runs unchanged
on every runtime backend.  ``send``/``recv`` return awaitables to
``yield``; ``recv_expect`` is a generator function to ``yield from``.
There are no collectives: the paper's master distributes tuples by
serial point-to-point exchanges on a fixed schedule, which is what
creates the slot/ordering effects of Figures 12 and V-B.

Every transport — :class:`~repro.net.sim_transport.SimTransport`, and
:class:`~repro.net.proc_transport.ProcTransport` for the wall-clock
backends — hands out this one class, so a hook on every send and
receive of every backend is one edit here or in the transport's
``send``/``recv``.  The statistics both record against, and the modeled
message size they record, are defined here once.
"""

from __future__ import annotations

import typing as t

from repro.errors import ProtocolError
from repro.faults.markers import peer_silent


class CommStats(t.Protocol):
    """What a transport records against (duck-typed; implemented by
    :class:`~repro.core.metrics.CommAccount` and its subclasses)."""

    def record_comm(
        self, t0: float, t1: float, nbytes: int, sent: bool
    ) -> None: ...  # pragma: no cover

    def record_idle(self, t0: float, t1: float) -> None: ...  # pragma: no cover


class Transport(t.Protocol):
    """What an :class:`Endpoint` calls: one transfer direction per call,
    named by its directed pair."""

    def send(
        self, src: int, dst: int, message: t.Any, stats: CommStats | None
    ) -> t.Any: ...  # pragma: no cover

    def recv(
        self, src: int, dst: int, stats: CommStats | None, timeout: float | None
    ) -> t.Any: ...  # pragma: no cover

    def drain(self, src: int, dst: int) -> None: ...  # pragma: no cover


def message_bytes(message: t.Any, tuple_bytes: int) -> int:
    """The modeled wire size of *message*: its own ``wire_bytes`` at
    *tuple_bytes* per tuple, or 64 bytes for a payload that is not a
    protocol message.  Every backend records this size, so per-byte
    metrics compare across them."""
    wire = getattr(message, "wire_bytes", None)
    return 64 if wire is None else int(wire(tuple_bytes))


class Endpoint:
    """A node's communication interface: node *node_id*'s handle on
    *transport*, recording against *stats*."""

    __slots__ = ("transport", "node_id", "stats")

    def __init__(
        self, transport: Transport, node_id: int, stats: CommStats | None
    ) -> None:
        self.transport = transport
        self.node_id = node_id
        self.stats = stats

    def send(self, dst: int, message: t.Any) -> t.Any:
        """Awaitable: blocking send (rendezvous on the sim transport,
        buffered on the socket one)."""
        return self.transport.send(self.node_id, dst, message, self.stats)

    def recv(self, src: int, timeout: float | None = None) -> t.Any:
        """Awaitable: blocking receive from *src*.

        With a *timeout*, the awaitable resolves to a
        :class:`~repro.faults.markers.RecvTimeout` marker if the peer
        stays silent that long.
        """
        return self.transport.recv(src, self.node_id, self.stats, timeout)

    def recv_expect(
        self, src: int, *types: type, timeout: float | None = None
    ) -> t.Generator[t.Any, t.Any, t.Any]:
        """Receive from *src* and type-check against the fixed schedule.

        Usage: ``msg = yield from comm.recv_expect(src, Shipment, Halt)``.

        Fault markers (``NodeDown``/``RecvTimeout``) bypass the type
        check and are returned as-is: a silent peer is the caller's
        decision to make, not a protocol violation by a live one.
        """
        message = yield self.recv(src, timeout)
        if peer_silent(message):
            return message
        if types and not isinstance(message, types):
            names = " | ".join(tp.__name__ for tp in types)
            raise ProtocolError(
                f"protocol violation at node {self.node_id}: expected "
                f"{names} from peer {src}, got {type(message).__name__} "
                f"({message!r:.160s})"
            )
        return message

    def drain(self, src: int) -> None:
        """Fence the channel from *src*: pending and future sends by
        *src* to this node complete silently (see the transport)."""
        self.transport.drain(src, self.node_id)
