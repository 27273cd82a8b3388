"""The modeled rendezvous network."""

import pytest

from repro.config import NetworkConfig
from repro.core.metrics import MeasurementWindow, SlaveMetrics
from repro.net.comm import message_bytes
from repro.net.sim_transport import SimTransport
from repro.simul.kernel import Simulator


class Msg:
    def __init__(self, nbytes):
        self.nbytes = nbytes

    def wire_bytes(self, tuple_bytes):
        return self.nbytes


@pytest.fixture
def net():
    sim = Simulator()
    cfg = NetworkConfig(
        latency=0.01,
        bandwidth=1e6,
        per_message_overhead=0.1,
        per_byte_overhead=0.0,
    )
    return sim, SimTransport(sim, cfg, tuple_bytes=64)


class TestRendezvous:
    def test_message_delivered(self, net):
        sim, transport = net
        a, b = transport.endpoint(1), transport.endpoint(2)
        got = []

        def sender(sim):
            yield a.send(2, Msg(1000))

        def receiver(sim):
            msg = yield b.recv(1)
            got.append((msg.nbytes, sim.now))

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run(None)
        # duration = overhead 0.1 + latency 0.01 + 1000/1e6.
        assert got == [(1000, pytest.approx(0.111))]

    def test_sender_blocks_until_receiver_arrives(self, net):
        sim, transport = net
        a, b = transport.endpoint(1), transport.endpoint(2)
        sent_at = []

        def sender(sim):
            yield a.send(2, Msg(0))
            sent_at.append(sim.now)

        def receiver(sim):
            yield sim.timeout(5.0)
            yield b.recv(1)

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run(None)
        assert sent_at[0] == pytest.approx(5.11)

    def test_fifo_matching_per_pair(self, net):
        sim, transport = net
        a, b = transport.endpoint(1), transport.endpoint(2)
        got = []

        def sender(sim):
            yield a.send(2, "first")
            yield a.send(2, "second")

        def receiver(sim):
            got.append((yield b.recv(1)))
            got.append((yield b.recv(1)))

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run(None)
        assert got == ["first", "second"]

    def test_pairs_are_independent(self, net):
        sim, transport = net
        a, b, c = (transport.endpoint(i) for i in (1, 2, 3))
        got = []

        def s1(sim):
            yield sim.timeout(3.0)
            yield a.send(3, "from-1")

        def s2(sim):
            yield b.send(3, "from-2")

        def receiver(sim):
            # Waits for node 1 first even though node 2 is ready: the
            # fixed schedule decides, not arrival order.
            got.append((yield c.recv(1)))
            got.append((yield c.recv(2)))

        sim.process(s1(sim))
        sim.process(s2(sim))
        sim.process(receiver(sim))
        sim.run(None)
        assert got == ["from-1", "from-2"]

    def test_transfer_counters(self, net):
        sim, transport = net
        a, b = transport.endpoint(1), transport.endpoint(2)

        def sender(sim):
            yield a.send(2, Msg(500))

        def receiver(sim):
            yield b.recv(1)

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run(None)
        assert transport.n_transfers == 1
        assert transport.bytes_moved == 500


class TestAccounting:
    def test_idle_and_comm_recorded(self, net):
        sim, transport = net
        gate = MeasurementWindow(0.0)
        stats_a = SlaveMetrics(1, gate)
        stats_b = SlaveMetrics(2, gate)
        a = transport.endpoint(1, stats_a)
        b = transport.endpoint(2, stats_b)

        def sender(sim):
            yield sim.timeout(4.0)
            yield a.send(2, Msg(1000))

        def receiver(sim):
            yield b.recv(1)

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run(None)
        # Receiver posted at t=0, met at t=4: 4 s idle.
        assert stats_b.idle_time == pytest.approx(4.0)
        assert stats_a.idle_time == pytest.approx(0.0)
        duration = 0.1 + 0.01 + 1e-3
        assert stats_a.comm_time == pytest.approx(duration)
        assert stats_b.comm_time == pytest.approx(duration)
        assert stats_a.bytes_sent == 1000
        assert stats_b.bytes_received == 1000

    def test_default_size_for_unknown_messages(self, net):
        sim, transport = net
        assert message_bytes(object(), transport.tuple_bytes) == 64
