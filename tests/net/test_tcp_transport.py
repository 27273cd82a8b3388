"""Unit suite for the TCP transport primitives.

Covers the connect handshake (version/magic/identity rejection), the
bounded retry with its deterministic RNG-substream backoff schedule,
dead-peer send resolving to ``NodeDown``, peer-EOF fail-stop, and the
per-pair byte/frame counters behind the node's metric series.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.protocol import Halt, MoveAck
from repro.errors import ConnectError, WireError
from repro.faults.markers import NodeDown
from repro.net.proc_transport import (
    FRAME_HEADER,
    FrameReader,
    ProcTransport,
    write_frame,
)
from repro.net.tcp_transport import (
    BACKOFF_CAP_S,
    HELLO,
    KIND_CONTROL,
    KIND_PEER,
    backoff_schedule,
    connect_with_retry,
    read_hello,
    send_hello,
)
from repro.net.wire import MAGIC, WIRE_VERSION, encode_message
from repro.runtime.wall import WallRuntime
from repro.simul.rng import RngRegistry


def make_pair(a=0, b=2, tuple_bytes=64):
    rt = WallRuntime()
    sa, sb = socket.socketpair()
    ta = ProcTransport(a, {b: sa}, tuple_bytes, rt, series_prefix="tcp")
    tb = ProcTransport(b, {a: sb}, tuple_bytes, rt, series_prefix="tcp")
    return ta, tb


def wait(transport, awaitable):
    """What *awaitable* resolves to, on the loop of *transport*'s runtime."""

    def proc():
        return (yield awaitable)

    handle = transport.runtime.spawn(proc())
    transport.runtime.run(30.0)
    assert not handle.is_alive, "loop ran out of budget"
    return handle.value


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


class TestHandshake:
    def test_roundtrip(self):
        sa, sb = socket.socketpair()
        send_hello(sa, KIND_PEER, 5)
        assert read_hello(sb, 5.0) == (KIND_PEER, 5)
        send_hello(sb, KIND_CONTROL, -1)
        assert read_hello(sa, 5.0) == (KIND_CONTROL, -1)
        sa.close(), sb.close()

    def test_version_mismatch_rejected_naming_both_versions(self):
        sa, sb = socket.socketpair()
        sa.sendall(HELLO.pack(MAGIC, WIRE_VERSION + 1, KIND_PEER, 3))
        with pytest.raises(WireError) as err:
            read_hello(sb, 5.0)
        assert str(WIRE_VERSION) in str(err.value)
        assert str(WIRE_VERSION + 1) in str(err.value)
        sa.close(), sb.close()

    def test_bad_magic_rejected(self):
        sa, sb = socket.socketpair()
        sa.sendall(HELLO.pack(b"ZZ", WIRE_VERSION, KIND_PEER, 3))
        with pytest.raises(WireError, match="magic"):
            read_hello(sb, 5.0)
        sa.close(), sb.close()

    def test_unknown_kind_rejected(self):
        sa, sb = socket.socketpair()
        sa.sendall(HELLO.pack(MAGIC, WIRE_VERSION, 9, 3))
        with pytest.raises(WireError, match="kind"):
            read_hello(sb, 5.0)
        sa.close(), sb.close()

    def test_eof_during_handshake_is_connect_error(self):
        sa, sb = socket.socketpair()
        sa.sendall(HELLO.pack(MAGIC, WIRE_VERSION, KIND_PEER, 3)[:4])
        sa.close()
        with pytest.raises(ConnectError, match="closed"):
            read_hello(sb, 5.0)
        sb.close()

    def test_handshake_timeout_is_connect_error(self):
        sa, sb = socket.socketpair()
        with pytest.raises(ConnectError, match="timed out"):
            read_hello(sb, 0.05)
        sa.close(), sb.close()


class TestBackoff:
    def test_schedule_is_deterministic_per_substream(self):
        key = "tcp.backoff.2->3"
        a = backoff_schedule(6, RngRegistry(7).get(key))
        b = backoff_schedule(6, RngRegistry(7).get(key))
        assert a == b

    def test_schedule_varies_with_seed_and_pair(self):
        a = backoff_schedule(6, RngRegistry(7).get("tcp.backoff.2->3"))
        b = backoff_schedule(6, RngRegistry(8).get("tcp.backoff.2->3"))
        c = backoff_schedule(6, RngRegistry(7).get("tcp.backoff.2->4"))
        assert a != b and a != c

    def test_schedule_is_capped_exponential_with_jitter(self):
        delays = backoff_schedule(8, RngRegistry(1).get("tcp.backoff.0->1"))
        assert len(delays) == 8
        assert all(0.0 < d <= BACKOFF_CAP_S * 1.5 for d in delays)
        # Jitter is bounded to [0.5, 1.5) of the exponential step, so
        # the first attempt is always much shorter than the last.
        assert delays[0] < delays[-1]


class TestConnectRetry:
    def test_exhaustion_names_peer_and_address(self):
        port = free_port()  # nothing listens here
        rng = RngRegistry(1).get("tcp.backoff.0->5")
        t0 = time.monotonic()
        with pytest.raises(ConnectError) as err:
            connect_with_retry(
                ("127.0.0.1", port), KIND_PEER, 0, rng,
                expect_node=5, attempts=3, base=0.001, cap=0.004,
            )
        assert time.monotonic() - t0 < 10.0
        message = str(err.value)
        assert "node 5" in message
        assert f"127.0.0.1:{port}" in message
        assert "3 attempts" in message

    def _serve_once(self, reply_version, reply_node, accepted):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)

        def serve():
            conn, _ = listener.accept()
            accepted.append(conn)
            read_hello(conn, 5.0)
            conn.sendall(
                HELLO.pack(MAGIC, reply_version, KIND_PEER, reply_node)
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener, listener.getsockname()[1]

    def test_success_path_returns_handshaken_socket(self):
        accepted: list[socket.socket] = []
        listener, port = self._serve_once(WIRE_VERSION, 3, accepted)
        rng = RngRegistry(1).get("tcp.backoff.0->3")
        sock = connect_with_retry(
            ("127.0.0.1", port), KIND_PEER, 0, rng, expect_node=3
        )
        # The returned socket is ready for framed traffic.
        payload = encode_message(Halt(4))
        write_frame(accepted[0], payload)
        assert FrameReader(sock).read_frame(5.0) == payload
        sock.close(), listener.close()

    def test_wrong_peer_identity_is_connect_error(self):
        accepted: list[socket.socket] = []
        listener, port = self._serve_once(WIRE_VERSION, 9, accepted)
        rng = RngRegistry(1).get("tcp.backoff.0->3")
        with pytest.raises(ConnectError, match="node 9"):
            connect_with_retry(
                ("127.0.0.1", port), KIND_PEER, 0, rng, expect_node=3
            )
        listener.close()

    def test_version_skew_fails_fast_without_retry(self):
        accepted: list[socket.socket] = []
        listener, port = self._serve_once(WIRE_VERSION + 1, 3, accepted)
        rng = RngRegistry(1).get("tcp.backoff.0->3")
        with pytest.raises(WireError, match="version"):
            connect_with_retry(
                ("127.0.0.1", port), KIND_PEER, 0, rng,
                expect_node=3, attempts=5,
            )
        # One connection only: skew never resolves by retrying.
        assert len(accepted) == 1
        listener.close()


class TestFailureSemantics:
    def test_send_to_dead_peer_resolves_to_node_down(self):
        ta, tb = make_pair()
        tb.close()
        ea = ta.endpoint(0)
        # The first send may land in the kernel buffer (None); once the
        # broken pipe is visible every send resolves to NodeDown — and
        # none of them raises (silent-completion model preserved).
        results = [wait(ta, ea.send(2, Halt(k))) for k in range(8)]
        assert NodeDown(2) in results
        assert set(results) <= {None, NodeDown(2)}
        ta.close()

    def test_peer_eof_maps_to_node_down(self):
        ta, tb = make_pair()
        ta.close()
        assert wait(tb, tb.endpoint(2).recv(0)) == NodeDown(0)
        tb.close()

    def test_buffered_frames_delivered_before_eof(self):
        ta, tb = make_pair()
        wait(ta, ta.endpoint(0).send(2, MoveAck(3, "supplier")))
        ta.close()
        eb = tb.endpoint(2)
        assert wait(tb, eb.recv(0)) == MoveAck(3, "supplier")
        assert wait(tb, eb.recv(0)) == NodeDown(0)
        tb.close()


class TestPairCounters:
    def test_tallies_track_frames_and_wire_bytes(self):
        ta, tb = make_pair()
        ea, eb = ta.endpoint(0), tb.endpoint(2)
        payloads = [encode_message(Halt(k)) for k in range(3)]
        for k in range(3):
            wait(ta, ea.send(2, Halt(k)))
        for _ in range(3):
            wait(tb, eb.recv(0))
        expected = sum(FRAME_HEADER.size + len(p) for p in payloads)
        assert ta.pair_stats()[2] == {
            "tx_frames": 3, "tx_bytes": expected,
            "rx_frames": 0, "rx_bytes": 0,
        }
        assert tb.pair_stats()[0] == {
            "tx_frames": 0, "tx_bytes": 0,
            "rx_frames": 3, "rx_bytes": expected,
        }
        ta.close(), tb.close()

    def test_registry_counters_mirror_tallies(self):
        ta, tb = make_pair()
        # The view is built from the tallies when asked for, so it
        # covers all traffic so far however late it is first read.
        wait(ta, ta.endpoint(0).send(2, Halt(0)))
        wait(tb, tb.endpoint(2).recv(0))
        assert tb.series()["tcp.rx_frames.from_n0"]["value"] == 1
        wait(ta, ta.endpoint(0).send(2, Halt(1)))
        wait(tb, tb.endpoint(2).recv(0))
        snapshot = tb.series()
        assert snapshot["tcp.rx_frames.from_n0"]["value"] == 2
        assert (
            snapshot["tcp.rx_bytes.from_n0"]["value"]
            == tb.pair_stats()[0]["rx_bytes"]
        )
        ta.close(), tb.close()
