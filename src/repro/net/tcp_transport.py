"""What TCP adds to the framed transport: obtaining the socket.

Once connected, a TCP pair is driven by exactly the code that drives an
inherited socketpair — :class:`~repro.net.proc_transport.ProcTransport`
(framing, FIFO, EOF → ``NodeDown``, dead-peer send → ``NodeDown``,
drain fencing, per-pair tallies), whose tallies a tcp node names with
the ``tcp`` series prefix.  This module only covers the part a ``fork``
gives the process backend for free:

* **an explicit connect handshake** — every connection opens with a
  fixed :data:`HELLO` struct carrying the wire ``MAGIC``, the
  ``WIRE_VERSION``, a connection kind (control vs. peer mesh) and the
  caller's node id.  A version or magic mismatch is rejected with
  :class:`~repro.errors.WireError` *before* any frame is exchanged, so
  a skewed build can never half-join a cluster.
* **bounded connect retry with deterministic backoff** — peers come up
  in arbitrary order, so :func:`connect_with_retry` retries refused
  connections on a capped exponential schedule whose jitter comes from
  a :class:`~repro.simul.rng.RngRegistry` substream (the schedule for
  a given ``(seed, src, dst)`` is reproducible).  Exhaustion raises
  :class:`~repro.errors.ConnectError` naming the peer and address.
"""

from __future__ import annotations

import select
import socket
import struct
import time

import numpy as np

from repro.errors import ConnectError, WireError
from repro.net.wire import MAGIC, WIRE_VERSION

#: Connect handshake: magic, wire version, connection kind, node id.
HELLO = struct.Struct("!2sBBq")
#: Handshake kind: a launcher's control-plane connection.
KIND_CONTROL = 0
#: Handshake kind: a peer-mesh data connection.
KIND_PEER = 1
#: Wall-second bound on completing one handshake exchange.
HANDSHAKE_TIMEOUT = 10.0
#: Default bounded-retry attempt count for :func:`connect_with_retry`.
CONNECT_ATTEMPTS = 8
#: First backoff step (doubles each attempt, capped).
BACKOFF_BASE_S = 0.05
#: Backoff cap — retries never sleep longer than ~1.5x this (jitter).
BACKOFF_CAP_S = 2.0


# -- handshake ---------------------------------------------------------------
def send_hello(sock: socket.socket, kind: int, node_id: int) -> None:
    """Write one handshake struct (blocking until buffered)."""
    sock.sendall(HELLO.pack(MAGIC, WIRE_VERSION, kind, node_id))


def _recv_exact(sock: socket.socket, nbytes: int, timeout: float) -> bytes:
    """Read exactly *nbytes* within *timeout* wall seconds."""
    deadline = time.monotonic() + timeout
    buf = bytearray()
    while len(buf) < nbytes:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ConnectError(
                f"handshake timed out after {timeout:g}s "
                f"({len(buf)}/{nbytes} bytes received)"
            )
        ready, _, _ = select.select([sock], [], [], remaining)
        if not ready:
            continue
        try:
            chunk = sock.recv(nbytes - len(buf))
        except OSError as error:
            raise ConnectError(f"handshake read failed: {error}") from error
        if not chunk:
            raise ConnectError(
                "peer closed the connection during the handshake"
            )
        buf += chunk
    return bytes(buf)


def read_hello(sock: socket.socket, timeout: float) -> tuple[int, int]:
    """Read and validate one handshake; returns ``(kind, node_id)``.

    Malformed identity (bad magic, version skew, unknown kind) raises
    :class:`WireError` — never resolvable by retrying.  A timeout, EOF
    or socket error raises :class:`ConnectError` — the peer may simply
    not be ready yet, so callers on the connect side retry those.
    """
    raw = _recv_exact(sock, HELLO.size, timeout)
    magic, version, kind, node_id = HELLO.unpack(raw)
    if magic != MAGIC:
        raise WireError(
            f"bad handshake magic {magic!r} (expected {MAGIC!r})"
        )
    if version != WIRE_VERSION:
        raise WireError(
            f"peer speaks wire version {version}, this build speaks "
            f"{WIRE_VERSION}: refusing the connection"
        )
    if kind not in (KIND_CONTROL, KIND_PEER):
        raise WireError(f"unknown handshake kind {kind}")
    return kind, node_id


# -- bounded retry -----------------------------------------------------------
def backoff_schedule(
    attempts: int,
    rng: np.random.Generator,
    base: float = BACKOFF_BASE_S,
    cap: float = BACKOFF_CAP_S,
) -> tuple[float, ...]:
    """The full jittered backoff schedule for one connect target.

    Capped exponential: attempt *k* sleeps ``min(cap, base * 2**k)``
    scaled by a jitter factor in ``[0.5, 1.5)`` drawn from *rng*.  The
    same RNG substream yields the same schedule, so retry timing is as
    reproducible as everything else keyed off the run seed.
    """
    delays = []
    for attempt in range(attempts):
        step = min(cap, base * (2.0 ** attempt))
        delays.append(step * (0.5 + float(rng.random())))
    return tuple(delays)


def connect_with_retry(
    address: tuple[str, int],
    kind: int,
    node_id: int,
    rng: np.random.Generator,
    expect_node: int | None = None,
    attempts: int = CONNECT_ATTEMPTS,
    base: float = BACKOFF_BASE_S,
    cap: float = BACKOFF_CAP_S,
) -> socket.socket:
    """Connect + handshake to *address*, retrying refused attempts.

    Sends our hello first, then waits for the acceptor's reply (a
    worker defers its reply until it knows its own node id, so the
    wait is bounded by :data:`HANDSHAKE_TIMEOUT`, not the TCP connect
    timeout).  Raises :class:`WireError` immediately on version skew
    and :class:`ConnectError` naming the peer once retries run out or
    the peer identifies as the wrong node.
    """
    host, port = address
    peer = f"node {expect_node}" if expect_node is not None else "worker"
    delays = backoff_schedule(attempts, rng, base, cap)
    last_error: Exception | None = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(delays[attempt - 1])
        try:
            sock = socket.create_connection(
                (host, port), timeout=HANDSHAKE_TIMEOUT
            )
        except OSError as error:
            last_error = error
            continue
        try:
            send_hello(sock, kind, node_id)
            _, peer_node = read_hello(sock, HANDSHAKE_TIMEOUT)
        except WireError:
            sock.close()
            raise
        except (ConnectError, OSError) as error:
            sock.close()
            last_error = error
            continue
        if expect_node is not None and peer_node != expect_node:
            sock.close()
            raise ConnectError(
                f"peer at {host}:{port} identified as node {peer_node}, "
                f"expected {peer}: check the --peers map"
            )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not an AF_INET socket (tests run over socketpairs)
        sock.settimeout(None)
        return sock
    raise ConnectError(
        f"could not connect to {peer} at {host}:{port} after "
        f"{attempts} attempts: {last_error}"
    )

