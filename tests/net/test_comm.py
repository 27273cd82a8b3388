"""The MPI-like communicator layer."""

import pytest

from repro.config import NetworkConfig
from repro.errors import ProtocolError
from repro.mp.comm import Communicator
from repro.net.sim_transport import SimTransport
from repro.simul.kernel import Simulator


@pytest.fixture
def cluster():
    sim = Simulator()
    transport = SimTransport(sim, NetworkConfig(), tuple_bytes=64)
    comms = {i: Communicator(transport.endpoint(i)) for i in range(4)}
    return sim, comms


class TestPointToPoint:
    def test_recv_expect_passes_matching_type(self, cluster):
        sim, comms = cluster
        got = []

        def sender(sim):
            yield comms[0].send(1, "hello")

        def receiver(sim):
            msg = yield from comms[1].recv_expect(0, str)
            got.append(msg)

        sim.process(sender(sim))
        sim.process(receiver(sim))
        sim.run(None)
        assert got == ["hello"]

    def test_recv_expect_raises_on_type_violation(self, cluster):
        sim, comms = cluster

        def sender(sim):
            yield comms[0].send(1, 12345)

        def receiver(sim):
            yield from comms[1].recv_expect(0, str)

        sim.process(sender(sim))
        p = sim.process(receiver(sim))
        with pytest.raises(ProtocolError, match="expected str"):
            sim.run(until=p)
