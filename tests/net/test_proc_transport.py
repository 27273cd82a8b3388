"""Unit suite for the process-backend transport.

Covers the contract :mod:`repro.net.comm` relies on: framing across
partial reads and large frames, peer EOF mapping to ``NodeDown``,
recv timeouts, drain/fence semantics matching ``SimTransport``, and
the dead-peer-send marker and pair tallies it shares with the tcp
backend; and the thread backend's in-process mesh (share-nothing
delivery, fail-stop kills, frames larger than a socket buffer between
two nodes on one kernel).  Sends and receives are kernel events, driven
here by a :class:`~repro.runtime.wall.WallRuntime` loop.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.protocol import Halt, MoveAck, Shipment
from repro.data.tuples import TupleBatch
from repro.errors import WireError
from repro.faults.markers import NodeDown, RecvTimeout
from repro.net.proc_transport import (
    FRAME_HEADER,
    FrameReader,
    LocalMesh,
    ProcTransport,
    write_frame,
)
from repro.net.wire import encode_message
from repro.runtime.wall import WallRuntime


def make_pair(a=0, b=2, tuple_bytes=64, rt=None):
    rt = rt or WallRuntime()
    sa, sb = socket.socketpair()
    ta = ProcTransport(a, {b: sa}, tuple_bytes, rt)
    tb = ProcTransport(b, {a: sb}, tuple_bytes, rt)
    return ta, tb


def drive(rt, *generators, budget=30.0):
    """Run *generators* as processes on *rt*'s loop until all have
    finished; returns what each returned."""
    procs = [rt.spawn(gen) for gen in generators]
    rt.run(budget)
    assert not any(proc.is_alive for proc in procs), "loop ran out of budget"
    return [proc.value for proc in procs]


def wait(transport, awaitable, budget=30.0):
    """What *awaitable* resolves to, on the loop of *transport*'s runtime."""

    def proc():
        return (yield awaitable)

    [value] = drive(transport.runtime, proc(), budget=budget)
    return value


class TestFraming:
    def test_frame_split_across_many_partial_reads(self):
        sa, sb = socket.socketpair()
        payload = encode_message(Halt(7))
        frame = FRAME_HEADER.pack(len(payload)) + payload

        def dribble():
            # One byte at a time: the reader must reassemble across
            # arbitrarily fragmented reads.
            for i in range(len(frame)):
                sa.sendall(frame[i : i + 1])
                time.sleep(0.0005)

        writer = threading.Thread(target=dribble)
        writer.start()
        reader = FrameReader(sb, chunk_bytes=3)
        got = reader.read_frame(None)
        writer.join()
        assert got == payload
        sa.close(), sb.close()

    def test_several_frames_in_one_write(self):
        sa, sb = socket.socketpair()
        payloads = [encode_message(Halt(k)) for k in range(5)]
        blob = b"".join(
            FRAME_HEADER.pack(len(p)) + p for p in payloads
        )
        sa.sendall(blob)
        reader = FrameReader(sb)
        assert [reader.read_frame(None) for _ in range(5)] == payloads
        sa.close(), sb.close()

    def test_frame_larger_than_64kib(self):
        ta, tb = make_pair()
        ea, eb = ta.endpoint(0), tb.endpoint(2)
        n = 3000  # 3000 tuples * 25 B/tuple of columns >> 64 KiB payload
        batch = TupleBatch.build(
            np.linspace(0.0, 30.0, n), np.arange(n), stream=np.arange(n) % 2
        )
        shipment = Shipment(4, 0.0, 2.0, batch)
        payload = encode_message(shipment)
        assert len(payload) > 64 * 1024

        def receive():
            return (yield eb.recv(0))

        def send():
            yield ea.send(2, shipment)

        msg, _ = drive(ta.runtime, receive(), send())
        assert isinstance(msg, Shipment)
        assert np.array_equal(msg.batch.key, batch.key)
        ta.close(), tb.close()

    def test_torn_frame_is_eof_not_garbage(self):
        # Peer dies mid-frame: the partial payload must never reach the
        # codec; the receiver observes NodeDown.
        sa, sb = socket.socketpair()
        tb = ProcTransport(2, {0: sb}, 64, WallRuntime())
        payload = encode_message(Halt(1))
        sa.sendall(FRAME_HEADER.pack(len(payload)) + payload[: len(payload) // 2])
        sa.close()
        assert wait(tb, tb.endpoint(2).recv(0)) == NodeDown(0)
        tb.close()

    def test_absurd_length_header_rejected(self):
        sa, sb = socket.socketpair()
        sa.sendall(struct.pack("!I", 1 << 31))
        reader = FrameReader(sb)
        with pytest.raises(WireError, match="sanity"):
            reader.read_frame(None)
        sa.close(), sb.close()


class TestFailureSemantics:
    def test_peer_eof_maps_to_node_down(self):
        ta, tb = make_pair()
        ta.close()
        assert wait(tb, tb.endpoint(2).recv(0)) == NodeDown(0)
        # And again: the marker is sticky, like the sim transport's
        # dead-node fast path.
        assert wait(tb, tb.endpoint(2).recv(0)) == NodeDown(0)
        tb.close()

    def test_buffered_frames_delivered_before_eof(self):
        # A dying peer's already-sent frames still arrive (TCP-like),
        # then the stream ends in NodeDown.
        ta, tb = make_pair()
        ea, eb = ta.endpoint(0), tb.endpoint(2)
        wait(ta, ea.send(2, MoveAck(3, "supplier")))
        ta.close()
        assert wait(tb, eb.recv(0)) == MoveAck(3, "supplier")
        assert wait(tb, eb.recv(0)) == NodeDown(0)
        tb.close()

    def test_send_to_dead_peer_completes_silently(self):
        ta, tb = make_pair()
        tb.close()
        ea = ta.endpoint(0)
        # Repeated sends: first may succeed into the kernel buffer,
        # later ones hit EPIPE — all must complete without raising.
        for k in range(4):
            wait(ta, ea.send(2, Halt(k)))
        ta.close()

    def test_send_to_dead_peer_resolves_to_node_down(self):
        # Shared with the tcp backend: the first send may still land in
        # the kernel buffer (None); once the broken pipe is visible the
        # event says so instead of staying silent.
        ta, tb = make_pair()
        tb.close()
        ea = ta.endpoint(0)
        results = [wait(ta, ea.send(2, Halt(k))) for k in range(8)]
        assert NodeDown(2) in results
        assert set(results) <= {None, NodeDown(2)}
        ta.close()

    def test_recv_timeout_marker(self):
        ta, tb = make_pair()
        t0 = time.monotonic()
        got = wait(tb, tb.endpoint(2).recv(0, timeout=0.05))
        assert got == RecvTimeout(0.05)
        assert time.monotonic() - t0 < 5.0
        ta.close(), tb.close()

    def test_timeout_is_scaled_to_wall_clock(self):
        sa, sb = socket.socketpair()
        # 20 modeled seconds at time_scale=0.005 -> 100 ms wall.
        tb = ProcTransport(2, {0: sb}, 64, WallRuntime(time_scale=0.005))
        t0 = time.monotonic()
        got = wait(tb, tb.endpoint(2).recv(0, timeout=20.0))
        wall = time.monotonic() - t0
        assert got == RecvTimeout(20.0)
        assert 0.05 <= wall < 2.0
        sa.close(), tb.close()

    def test_frame_before_the_timeout_wins_and_the_timer_is_ignored(self):
        ta, tb = make_pair()
        rt = ta.runtime

        def late_send():
            yield rt.sleep(0.05)
            yield ta.endpoint(0).send(2, Halt(1))

        def receive():
            got = yield tb.endpoint(2).recv(0, timeout=0.5)
            yield rt.sleep(1.0)  # past the timer: it must not fire again
            return got

        got, _ = drive(rt, receive(), late_send())
        assert got == Halt(1)
        ta.close(), tb.close()


class TestDrain:
    def test_drained_pair_discards_and_never_blocks_sender(self):
        ta, tb = make_pair()
        ea, eb = ta.endpoint(0), tb.endpoint(2)
        eb.drain(0)
        # Push well past a socket buffer: without the loop discarding
        # the fenced peer's frames, the sender would wedge exactly like
        # an unmatched rendezvous.
        n = 2000
        batch = TupleBatch.build(np.linspace(0, 20, n), np.arange(n))

        def flood():
            for k in range(64):
                yield ea.send(2, Shipment(k, 0.0, 2.0, batch))
            return "done"

        assert drive(ta.runtime, flood()) == ["done"], "fenced sender blocked"
        ta.close(), tb.close()

    def test_recv_after_drain_is_node_down(self):
        ta, tb = make_pair()
        eb = tb.endpoint(2)
        eb.drain(0)
        assert wait(tb, eb.recv(0)) == NodeDown(0)
        ta.close(), tb.close()

    def test_drain_is_idempotent(self):
        ta, tb = make_pair()
        eb = tb.endpoint(2)
        eb.drain(0)
        eb.drain(0)
        # Fenced once: the channel stays registered, reading to discard.
        assert tb.runtime.selector.get_key(tb.channel(0).sock)
        assert wait(tb, eb.recv(0)) == NodeDown(0)
        ta.close(), tb.close()


class TestStats:
    class Stats:
        def __init__(self):
            self.comm = []
            self.idle = []

        def record_comm(self, t0, t1, nbytes, sent):
            self.comm.append((t0, t1, nbytes, sent))

        def record_idle(self, t0, t1):
            self.idle.append((t0, t1))

    def test_modeled_wire_bytes_recorded(self):
        ta, tb = make_pair()
        tx_stats, rx_stats = self.Stats(), self.Stats()
        ea, eb = ta.endpoint(0, tx_stats), tb.endpoint(2, rx_stats)
        batch = TupleBatch.build([1.0, 2.0], [5, 6])
        wait(ta, ea.send(2, Shipment(0, 0.0, 2.0, batch)))
        msg = wait(tb, eb.recv(0))
        assert isinstance(msg, Shipment)
        # Modeled size (64 B control + 2 * 64 B tuples), not the
        # serialized byte count: metrics stay comparable across backends.
        expected = Shipment(0, 0.0, 2.0, batch).wire_bytes(64)
        assert tx_stats.comm[0][2] == expected
        assert rx_stats.comm[0][2] == expected
        assert rx_stats.idle, "receiver wait must be recorded as idle"
        ta.close(), tb.close()

    def test_pair_stats_count_header_and_payload_bytes(self):
        ta, tb = make_pair()
        ea, eb = ta.endpoint(0), tb.endpoint(2)
        payloads = [encode_message(Halt(k)) for k in range(3)]
        for k in range(3):
            wait(ta, ea.send(2, Halt(k)))
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
        # The typed view reads the same tallies, whenever it is asked
        # for, under this transport's series prefix.
        wait(ta, ea.send(2, Halt(3)))
        wait(tb, eb.recv(0))
        snapshot = tb.series()
        assert snapshot["proc.rx_frames.from_n0"]["value"] == 4
        assert (
            snapshot["proc.rx_bytes.from_n0"]["value"]
            == tb.pair_stats()[0]["rx_bytes"]
        )
        ta.close(), tb.close()

    def test_foreign_endpoint_refuses(self):
        # A process builds only its own node: wiring another is an error.
        ta, _tb = make_pair()
        with pytest.raises(RuntimeError, match="another process"):
            ta.endpoint(2)


class TestLocalMesh:
    """The thread backend's channels: every node's transport over
    socket pairs inside one process, on one kernel."""

    def test_shipment_arrives_as_a_decoded_copy(self):
        rt = WallRuntime()
        mesh = LocalMesh([0, 2], 64, rt)
        batch = TupleBatch.build([1.0, 2.0, 3.0], [5, 6, 7], stream=[0, 1, 0])
        sent = Shipment(4, 0.0, 2.0, batch)

        def send():
            yield mesh.endpoint(0).send(2, sent)

        def receive():
            return (yield mesh.endpoint(2).recv(0))

        _, got = drive(rt, send(), receive())
        mesh.close()
        assert isinstance(got, Shipment) and got is not sent
        assert got.batch is not batch
        for name in ("ts", "key", "seq", "stream"):
            mine, theirs = getattr(got.batch, name), getattr(batch, name)
            assert np.array_equal(mine, theirs), name
            assert not np.shares_memory(mine, theirs), name

    def test_a_frame_larger_than_the_socket_buffer_crosses_one_kernel(self):
        """Sender and receiver share the loop: a blocking write of a
        1 MiB frame would never return, as nobody could read it."""
        rt = WallRuntime()
        mesh = LocalMesh([0, 2], 64, rt)
        n = 1 << 17  # 8 B/tuple of keys alone: 1 MiB
        batch = TupleBatch.build(np.linspace(0.0, 30.0, n), np.arange(n))
        sent = Shipment(4, 0.0, 2.0, batch)
        assert len(encode_message(sent)) > 1 << 20

        def send():
            return (yield mesh.endpoint(0).send(2, sent))

        def receive():
            return (yield mesh.endpoint(2).recv(0))

        sent_value, got = drive(rt, send(), receive())
        mesh.close()
        assert sent_value is None
        assert isinstance(got, Shipment)
        assert np.array_equal(got.batch.key, batch.key)

    def test_peer_recv_gets_buffered_frames_then_node_down(self):
        rt = WallRuntime(time_scale=0.01)
        mesh = LocalMesh([0, 2, 3], 64, rt)

        def receive():
            got = []
            while True:
                msg = yield mesh.endpoint(2).recv(3)
                got.append(msg)
                if isinstance(msg, NodeDown):
                    return got

        def victim():
            yield rt.sleep(5.0)  # the receiver is blocked on the victim
            yield mesh.endpoint(3).send(2, Halt(1))
            yield mesh.endpoint(3).send(2, Halt(2))
            mesh.kill_node(3)

        got, _ = drive(rt, receive(), victim())
        assert got == [Halt(1), Halt(2), NodeDown(3)]
        mesh.close()

    def test_send_to_killed_node_resolves_to_node_down(self):
        rt = WallRuntime()
        mesh = LocalMesh([0, 2], 64, rt)
        mesh.kill_node(2)

        def sends():
            results = []
            for k in range(3):
                results.append((yield mesh.endpoint(0).send(2, Halt(k))))
            return results

        assert drive(rt, sends()) == [[NodeDown(2)] * 3]
        mesh.close()

    def test_victims_blocked_recv_unwinds_without_node_down(self):
        rt = WallRuntime(time_scale=0.01)
        mesh = LocalMesh([0, 2], 64, rt)
        seen = []

        def victim():
            seen.append((yield mesh.endpoint(2).recv(0)))

        def crash(handle):
            yield rt.sleep(5.0)  # blocked in recv from a silent peer
            # Transport first, as the fault injector does: the victim's
            # own receive is dropped, never resolved with NodeDown ...
            mesh.kill_node(2)
            yield rt.sleep(5.0)
            assert handle.is_alive and seen == []
            # ... and the kill ends it.
            handle.kill("crash")

        handle = rt.spawn(victim())
        drive(rt, crash(handle))
        assert not handle.is_alive
        assert seen == []
        mesh.close()
