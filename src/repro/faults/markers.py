"""In-band failure markers synthesized by the transport layer.

These are *not* wire messages — no node ever sends one.  The transport
resolves a pending or future ``recv`` with a marker when the rendezvous
cannot complete, so node loops observe a failure as a value at their
usual ``yield`` point instead of blocking forever:

* :class:`NodeDown` — the peer is known dead (crashed and reaped);
* :class:`RecvTimeout` — the armed detection timeout elapsed with no
  matching send (the peer may be dead, wedged, or its message was
  lost).

``Endpoint.recv_expect`` returns markers unchecked (they can arrive
wherever a message was scheduled); callers on fault-aware paths test
with :func:`peer_silent`.
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

__all__ = ["NodeDown", "RecvTimeout", "peer_silent"]


@dataclass(frozen=True)
class NodeDown:
    """The transport knows the sender-side node is dead."""

    #: Node id of the dead peer.
    node: int


@dataclass(frozen=True)
class RecvTimeout:
    """A timed ``recv`` elapsed without a matching send."""

    #: The timeout that was armed, seconds.
    timeout: float = 0.0


def peer_silent(message: t.Any) -> bool:
    """True when *message* is a failure marker rather than a payload."""
    return isinstance(message, (NodeDown, RecvTimeout))
