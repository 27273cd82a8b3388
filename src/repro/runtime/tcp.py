"""True multi-host TCP backend: one worker process per cluster node,
connected over real sockets.

``backend="tcp"`` is the process backend (:mod:`repro.runtime.process`
— same node body, control protocol, launcher, crash timers and result
assembly) with a different *connector*: the peer mesh and the control
connections are TCP sockets established with the
:mod:`repro.net.tcp_transport` handshake instead of socketpairs
inherited across a fork — so nodes can live on *different hosts*.
Topology:

* The launcher (``swjoin run --backend tcp``) knows every node's
  listen address.  Remote nodes come from the static ``--peers`` map
  (``NODE=HOST:PORT``, one ``swjoin worker --listen HOST:PORT`` per
  entry); every node *not* in the map is forked locally on an
  ephemeral loopback port, so the single-host default needs no setup
  and CI drives the whole topology over loopback.
* The launcher opens one **control** connection per node (handshake
  kind ``KIND_CONTROL``) and ships ``("job", NodeJob, addresses)`` —
  the node's job plus every node's listen address.
* Each worker then builds the **peer mesh**: it connects to every node
  with a *greater* id (bounded retry + deterministic backoff) and
  accepts from every lesser id, validating each handshake.  A peer
  connection arriving before the worker knows its own node id is
  stashed and answered once the job assigns it.
* From there on it is :func:`~repro.runtime.process.run_node`.  Locally
  forked workers share the launcher's ``time.monotonic()`` origin; a
  remote worker anchors ``t=0`` to its own clock (skew is bounded by
  control-message latency, and correctness never depends on clock
  agreement — the protocol is message-driven).

A crash fault SIGKILLs the (local) victim worker, its peers observe
EOF → ``NodeDown``, and the master's timeout/fencing/backup-replay
path restores the run losslessly under ``--replication
checkpoint+log``.  Crash faults that name a *remote* node are rejected
up front — the launcher can only signal processes it owns.

Each worker serves exactly one run and exits; ``swjoin worker`` is a
one-shot process by design (restart it per run, e.g. under a loop or a
supervisor), which keeps run isolation trivial.
"""

from __future__ import annotations

import socket
import threading
import typing as t

from repro.config import SystemConfig
from repro.core.cluster import MASTER_ID, slave_node_id
from repro.errors import ConfigError, ConnectError, WireError
from repro.net.tcp_transport import (
    HANDSHAKE_TIMEOUT,
    KIND_CONTROL,
    KIND_PEER,
    TcpTransport,
    connect_with_retry,
    read_hello,
    send_hello,
)
from repro.runtime.process import (
    SETUP_TIMEOUT,
    ControlConn,
    NodeJob,
    ProcessBackend,
    run_node,
)
from repro.simul.rng import RngRegistry

#: Listen backlog: the whole mesh may connect while a worker is busy.
_BACKLOG = 16

_Addresses = dict[int, tuple[str, int]]


def parse_hostport(addr: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (the CLI/--peers address syntax)."""
    host, sep, port = addr.rpartition(":")
    if not sep or not host or not port.isdigit() or not 0 <= int(port) < 65536:
        raise ConfigError(f"address must be HOST:PORT, got {addr!r}")
    return host, int(port)


# -- worker side -------------------------------------------------------------
def _await_control(
    listen_sock: socket.socket,
) -> tuple[ControlConn, dict[int, socket.socket]]:
    """Accept until the launcher's control connection arrives.

    Peer-mesh connections may land first (another node already got its
    job): they are stashed *unanswered* — the hello reply needs our
    node id, which only the job carries.  Garbage connections (port
    scans, wrong version) are dropped without killing the worker.
    """
    stash: dict[int, socket.socket] = {}
    while True:
        conn, _ = listen_sock.accept()
        try:
            kind, node_id = read_hello(conn, HANDSHAKE_TIMEOUT)
        except (WireError, ConnectError, OSError):
            conn.close()
            continue
        if kind == KIND_CONTROL:
            send_hello(conn, KIND_CONTROL, -1)
            conn.settimeout(None)
            return ControlConn(conn), stash
        old = stash.pop(node_id, None)
        if old is not None:
            old.close()  # the connector abandoned it and retried
        stash[node_id] = conn


def _establish_mesh(
    node_id: int,
    cfg: SystemConfig,
    addresses: _Addresses,
    listen_sock: socket.socket,
    stash: dict[int, socket.socket],
) -> dict[int, socket.socket]:
    """Build this node's full-mesh peer sockets.

    Mesh rule: the lower node id connects, the higher accepts — each
    pair gets exactly one connection with no simultaneous-open races.
    Backoff jitter comes from a per-directed-pair RNG substream, so
    the retry schedule is a pure function of ``(seed, src, dst)``.
    """
    lower = sorted(n for n in addresses if n < node_id)
    higher = sorted(n for n in addresses if n > node_id)
    peers: dict[int, socket.socket] = {}

    for nid, sock in list(stash.items()):
        if nid in lower and nid not in peers:
            try:
                send_hello(sock, KIND_PEER, node_id)
                sock.settimeout(None)
                peers[nid] = sock
                continue
            except OSError:
                pass  # connector gave up on this attempt; it will retry
        sock.close()

    accept_errors: list[BaseException] = []

    def accept_lower() -> None:
        want = set(lower) - set(peers)
        try:
            while want:
                listen_sock.settimeout(SETUP_TIMEOUT)
                conn, _ = listen_sock.accept()
                try:
                    kind, nid = read_hello(conn, HANDSHAKE_TIMEOUT)
                except (WireError, ConnectError, OSError):
                    conn.close()
                    continue
                if kind != KIND_PEER or nid not in want:
                    conn.close()
                    continue
                send_hello(conn, KIND_PEER, node_id)
                conn.settimeout(None)
                peers[nid] = conn
                want.discard(nid)
        except OSError as error:
            accept_errors.append(error)

    acceptor = threading.Thread(
        target=accept_lower, name=f"tcp-accept:n{node_id}", daemon=True
    )
    acceptor.start()

    rng = RngRegistry(cfg.seed)
    for nid in higher:
        peers[nid] = connect_with_retry(
            addresses[nid],
            KIND_PEER,
            node_id,
            rng=rng.get(f"tcp.backoff.{node_id}->{nid}"),
            expect_node=nid,
        )
    acceptor.join(timeout=SETUP_TIMEOUT)
    missing = sorted(set(lower) - set(peers))
    if acceptor.is_alive() or accept_errors or missing:
        raise ConnectError(
            f"node {node_id} never completed its peer mesh: waiting on "
            f"nodes {missing or sorted(lower)} ({accept_errors or 'timeout'})"
        )
    return peers


def _serve_node(listen_sock: socket.socket) -> None:
    """Serve exactly one cluster node over the listening *listen_sock*."""
    control, stash = _await_control(listen_sock)

    def connect() -> tuple[NodeJob, dict[int, socket.socket]]:
        msg = control.recv(timeout=SETUP_TIMEOUT)
        if msg[0] != "job":
            raise RuntimeError(f"expected a job, got {msg[0]!r}")
        _, job, addresses = msg
        return job, _establish_mesh(
            job.node_id, job.cfg, addresses, listen_sock, stash
        )

    run_node(control, connect, TcpTransport)


def serve_worker(host: str, port: int) -> int:
    """``swjoin worker`` entry: serve one run on ``host:port``, exit.

    Binding port 0 picks an ephemeral port; the bound address is
    announced on stdout either way so launch scripts can scrape it.
    """
    listen_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listen_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listen_sock.bind((host, port))
    # Listen before announcing: the banner is the "safe to connect"
    # signal for launch scripts scraping stdout.
    listen_sock.listen(_BACKLOG)
    bound_host, bound_port = listen_sock.getsockname()[:2]
    print(f"swjoin worker listening on {bound_host}:{bound_port}", flush=True)
    try:
        _serve_node(listen_sock)
    finally:
        listen_sock.close()
    return 0


def _local_worker(
    node_id: int, listeners: dict[int, socket.socket]
) -> None:
    """Forked-child entry for a node with no ``--peers`` entry."""
    own = listeners[node_id]
    # Leaked foreign listen fds would mask peer death: close them.
    for nid, sock in listeners.items():
        if nid != node_id:
            sock.close()
    try:
        _serve_node(own)
    finally:
        own.close()


# -- launcher side -----------------------------------------------------------
def _remote_addresses(cfg: SystemConfig, node_ids: list[int]) -> _Addresses:
    """The validated ``--peers`` map: node id -> listen address."""
    remote = {nid: parse_hostport(addr) for nid, addr in cfg.tcp_peers}
    unknown = sorted(set(remote) - set(node_ids))
    if unknown:
        raise ConfigError(
            f"--peers names nodes {unknown} outside this cluster "
            f"(valid node ids: {node_ids})"
        )
    for crash in cfg.faults.crashes:
        victim = (
            MASTER_ID if crash.targets_master else slave_node_id(crash.slave)
        )
        if victim in remote:
            raise ConfigError(
                f"crash fault targets remote node {victim}: the "
                "launcher can only SIGKILL local workers"
            )
    return remote


class TcpBackend(ProcessBackend):
    """One worker per cluster node over TCP (``backend="tcp"``): the
    process backend with handshaken TCP connections in place of
    fork-inherited socketpairs, so workers may live on other hosts."""

    name = "tcp"

    def _launch(
        self,
        ctx: t.Any,
        cfg: SystemConfig,
        jobs: dict[int, NodeJob],
        procs: dict[int, t.Any],
        controls: dict[int, ControlConn],
    ) -> None:
        addresses = _remote_addresses(cfg, list(jobs))
        # Every node without a --peers entry forks locally on an
        # ephemeral port.  Listen sockets are bound before the first
        # fork so the launcher can connect before a child reaches
        # accept (the kernel backlog holds the connection).
        local_ids = [nid for nid in jobs if nid not in addresses]
        listeners: dict[int, socket.socket] = {}
        try:
            for nid in local_ids:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listeners[nid] = sock
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((cfg.tcp_host, 0))
                sock.listen(_BACKLOG)
                addresses[nid] = sock.getsockname()[:2]
            for nid in local_ids:
                procs[nid] = ctx.Process(
                    target=_local_worker,
                    args=(nid, listeners),
                    name=f"swjoin-tcp-node{nid}",
                    daemon=True,
                )
                procs[nid].start()
        finally:
            for sock in listeners.values():
                sock.close()

        rng = RngRegistry(cfg.seed)
        for nid, job in jobs.items():
            controls[nid] = ControlConn(
                connect_with_retry(
                    addresses[nid],
                    KIND_CONTROL,
                    -1,
                    rng=rng.get(f"tcp.backoff.control->{nid}"),
                )
            )
            controls[nid].send(("job", job, addresses))
