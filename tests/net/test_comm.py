"""The MPI-like endpoint layer."""

import socket

import pytest

from repro.config import NetworkConfig
from repro.core.protocol import Halt, Shipment
from repro.errors import ProtocolError
from repro.net.comm import Endpoint
from repro.net.proc_transport import LocalMesh, ProcTransport
from repro.net.sim_transport import SimTransport
from repro.runtime.wall import WallRuntime
from repro.simul.kernel import Simulator


@pytest.fixture
def cluster():
    sim = Simulator()
    transport = SimTransport(sim, NetworkConfig(), tuple_bytes=64)
    comms = {i: transport.endpoint(i) for i in range(4)}
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



class TestOneEndpoint:
    def test_every_transport_hands_out_the_one_endpoint(self):
        """Sim, socketpair and in-process mesh nodes all hold the same
        class, whose typed receive fails alike on either transport."""
        sim = Simulator()
        sim_net = SimTransport(sim, NetworkConfig(), tuple_bytes=64)
        rt = WallRuntime()
        a, b = socket.socketpair()
        wall = ProcTransport(0, {1: a}, 64, rt), ProcTransport(1, {0: b}, 64, rt)
        mesh = LocalMesh([0, 1], 64, rt)
        pairs = {
            "sim": (sim_net.endpoint(0), sim_net.endpoint(1)),
            "socketpair": (wall[0].endpoint(0), wall[1].endpoint(1)),
        }
        errors = {}
        try:
            held = [*pairs["sim"], *pairs["socketpair"], mesh.endpoint(0)]
            assert {type(end) for end in held} == {Endpoint}
            for name, (tx, rx) in pairs.items():

                def send():
                    yield tx.send(1, Halt(3))

                def receive():
                    yield from rx.recv_expect(0, Shipment)

                with pytest.raises(ProtocolError) as caught:
                    if name == "sim":
                        sim.process(send())
                        sim.process(receive())
                        sim.run(None)
                    else:
                        rt.spawn(send())
                        rt.spawn(receive())
                        rt.run(30.0)
                errors[name] = str(caught.value)
        finally:
            mesh.close()
            for transport in wall:
                transport.close()
        assert errors["sim"] == errors["socketpair"]
        assert "expected Shipment from peer 0, got Halt" in errors["sim"]
