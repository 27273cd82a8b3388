"""Blocking point-to-point communicator.

``send``/``recv`` return awaitables to ``yield``; ``recv_expect`` is a
generator function to ``yield from``.  There are no collectives: the
paper's master distributes tuples by serial point-to-point exchanges
on a fixed schedule, which is what creates the slot/ordering effects
of Figures 12 and V-B.
"""

from __future__ import annotations

import typing as t

from repro.errors import ProtocolError
from repro.faults.markers import peer_silent


class Endpoint(t.Protocol):
    """What every transport backend's endpoint provides."""

    node_id: int

    def send(self, dst: int, message: t.Any) -> t.Any: ...  # pragma: no cover

    def recv(
        self, src: int, timeout: float | None = None
    ) -> t.Any: ...  # pragma: no cover

    def drain(self, src: int) -> None: ...  # pragma: no cover


class Communicator:
    """A node's communication interface."""

    def __init__(self, endpoint: Endpoint) -> None:
        self.endpoint = endpoint

    @property
    def node_id(self) -> int:
        return self.endpoint.node_id

    # -- point to point ------------------------------------------------------
    def send(self, dst: int, message: t.Any) -> t.Any:
        """Awaitable: blocking send (rendezvous)."""
        return self.endpoint.send(dst, message)

    def recv(self, src: int, timeout: float | None = None) -> t.Any:
        """Awaitable: blocking receive from *src*.

        With a *timeout*, the awaitable resolves to a
        :class:`~repro.faults.markers.RecvTimeout` marker if the peer
        stays silent that long.
        """
        return self.endpoint.recv(src, timeout)

    def recv_expect(
        self, src: int, *types: type, timeout: float | None = None
    ) -> t.Generator[t.Any, t.Any, t.Any]:
        """Receive from *src* and type-check against the fixed schedule.

        Usage: ``msg = yield from comm.recv_expect(src, Shipment, Halt)``.

        Fault markers (``NodeDown``/``RecvTimeout``) bypass the type
        check and are returned as-is: a silent peer is the caller's
        decision to make, not a protocol violation by a live one.
        """
        message = yield self.endpoint.recv(src, timeout)
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
        self.endpoint.drain(src)
