"""Transport- and system-level fault mechanics.

Covers the channel fault plane in isolation (timeouts, crash reaping,
drops, delays, fencing) plus the two diagnostics this layer sharpened:
ProtocolError names the peer and expected types, DeadlockError lists
the pending channel operations of a stuck run.
"""

import pytest

from repro.config import SystemConfig
from repro.core.collector import CollectorNode
from repro.core.protocol import Halt, ReorgOrder, Shipment, SlaveSync
from repro.core.system import JoinSystem
from repro.data.tuples import TupleBatch
from repro.errors import DeadlockError, ProtocolError
from repro.faults.injector import FaultInjector
from repro.faults.markers import NodeDown, RecvTimeout, peer_silent
from repro.faults.plan import FaultPlan
from repro.net.sim_transport import SimTransport
from repro.simul.kernel import Simulator

from tests.faults.test_chaos import chaos_cfg

NET = SystemConfig.paper_defaults().network


def make_transport(sim, faults=None):
    return SimTransport(sim, NET, 64, faults=faults)


def make_injector(specs):
    return FaultInjector(FaultPlan.parse(specs))


class TestRecvTimeout:
    def test_silent_peer_resumes_with_marker(self):
        sim = Simulator()
        comm = make_transport(sim).endpoint(1)
        got = []

        def waiter():
            msg = yield comm.recv(0, timeout=0.5)
            got.append((msg, sim.now))

        sim.process(waiter())
        sim.run(None)
        assert got == [(RecvTimeout(0.5), 0.5)]
        assert peer_silent(got[0][0])

    def test_matched_message_beats_the_timer(self):
        sim = Simulator()
        transport = make_transport(sim)
        master = transport.endpoint(0)
        slave = transport.endpoint(1)
        got = []

        def sender():
            yield master.send(1, SlaveSync(0, None))

        def receiver():
            msg = yield slave.recv(0, timeout=5.0)
            got.append(msg)

        sim.process(sender())
        sim.process(receiver())
        sim.run(None)
        assert isinstance(got[0], SlaveSync)

    def test_delayed_transfer_does_not_false_trigger_timeout(self):
        """A matched-but-slow transfer is not a silent peer: the
        rendezvous happened, so the timer must never fire."""
        sim = Simulator()
        injector = make_injector(["delay:0->1@1+2s"])
        transport = make_transport(sim, faults=injector)
        master = transport.endpoint(0)
        slave = transport.endpoint(1)
        got = []

        def sender():
            yield master.send(1, SlaveSync(0, None))

        def receiver():
            msg = yield slave.recv(0, timeout=0.5)
            got.append((msg, sim.now))

        sim.process(sender())
        sim.process(receiver())
        sim.run(None)
        message, when = got[0]
        assert isinstance(message, SlaveSync)
        assert when >= 2.0  # the injected delay was served in full


class TestCrashReaping:
    def test_recv_from_dead_node_is_immediate(self):
        sim = Simulator()
        transport = make_transport(sim)
        comm = transport.endpoint(1)
        transport.kill_node(0)
        got = []

        def waiter():
            msg = yield comm.recv(0)
            got.append((msg, sim.now))

        sim.process(waiter())
        sim.run(None)
        assert got == [(NodeDown(0), 0.0)]

    def test_kill_wakes_blocked_receiver(self):
        sim = Simulator()
        transport = make_transport(sim)
        comm = transport.endpoint(1)
        got = []

        def waiter():
            msg = yield comm.recv(0)
            got.append((msg, sim.now))

        def killer():
            yield sim.timeout(1.0)
            transport.kill_node(0)

        sim.process(waiter())
        sim.process(killer())
        sim.run(None)
        assert got == [(NodeDown(0), 1.0)]

    def test_send_to_dead_node_completes_lost(self):
        """TCP-buffered-write model: the sender cannot tell the remote
        end is gone; it pays the transfer time, the message vanishes."""
        sim = Simulator()
        transport = make_transport(sim)
        comm = transport.endpoint(0)
        transport.kill_node(1)
        done = []

        def sender():
            yield comm.send(1, SlaveSync(0, None))
            done.append(sim.now)

        sim.process(sender())
        sim.run(None)
        assert done and done[0] > 0.0
        assert transport.messages_lost == 1


class TestMessageFaults:
    def test_drop_discards_exactly_the_kth_message(self):
        sim = Simulator()
        injector = make_injector(["drop:0->1@2"])
        transport = make_transport(sim, faults=injector)
        master = transport.endpoint(0)
        slave = transport.endpoint(1)
        got = []

        def sender():
            yield master.send(1, SlaveSync(0, "first"))
            yield master.send(1, SlaveSync(0, "second"))

        def receiver():
            got.append((yield slave.recv(0)))
            got.append((yield slave.recv(0, timeout=1.0)))

        sim.process(sender())
        sim.process(receiver())
        sim.run(None)
        assert isinstance(got[0], SlaveSync)
        assert isinstance(got[1], RecvTimeout)
        assert transport.messages_lost == 1
        assert [r["action"] for r in injector.injected] == ["drop"]

    def test_fence_releases_stale_sender(self):
        """drain: a sender the master gave up on completes
        silently instead of wedging the rendezvous channel."""
        sim = Simulator()
        transport = make_transport(sim)
        comm = transport.endpoint(0)
        done = []

        def stale():
            yield comm.send(1, SlaveSync(0, None))
            # Later sends on the fenced pair also complete silently.
            yield comm.send(1, SlaveSync(1, None))
            done.append(sim.now)

        def fencer():
            yield sim.timeout(1.0)
            transport.drain(0, 1)

        sim.process(stale())
        sim.process(fencer())
        sim.run(None)
        assert done  # the stale process ran to completion
        assert transport.messages_lost == 2

    def test_crash_charges_a_blocked_sender_its_wait_as_idle(self):
        """A send blocked from t=0 on a peer lost at t=1 is charged its
        wait as idle over (0, 1), whether the peer is fenced or killed:
        one rule for every lost blocked send."""

        class Stats:
            def __init__(self):
                self.idle = []

            def record_comm(self, t0, t1, nbytes, sent):
                pass

            def record_idle(self, t0, t1):
                self.idle.append((t0, t1))

        def blocked_send(lose):
            sim = Simulator()
            transport = make_transport(sim)
            stats = Stats()
            comm = transport.endpoint(0, stats)

            def sender():
                yield comm.send(1, SlaveSync(0, None))

            def loser():
                yield sim.timeout(1.0)
                lose(transport)

            sim.process(sender())
            sim.process(loser())
            sim.run(None)
            assert transport.messages_lost == 1
            return stats.idle

        fenced = blocked_send(lambda transport: transport.drain(0, 1))
        killed = blocked_send(lambda transport: transport.kill_node(1))
        assert fenced == [(0.0, 1.0)]
        assert killed == fenced


class TestSlowdowns:
    def test_scaled_cpu_applies_only_inside_the_interval(self):
        injector = make_injector(["slow:0x4@10-20s"])
        node = 2  # slave index 0
        assert injector.scaled_cpu(node, 9.9, 1.0) == 1.0
        assert injector.scaled_cpu(node, 10.0, 1.0) == 4.0
        assert injector.scaled_cpu(node, 19.9, 0.5) == 2.0
        assert injector.scaled_cpu(node, 20.0, 1.0) == 1.0
        assert injector.scaled_cpu(3, 15.0, 1.0) == 1.0  # other slave
        assert [r["action"] for r in injector.injected] == ["slow"]

    def test_slowdown_costs_cpu_without_degrading_the_run(self):
        base = JoinSystem(chaos_cfg(1)).run()
        slowed = JoinSystem(
            chaos_cfg(1, faults=FaultPlan.parse(["slow:0x4@6-12s"]))
        ).run()
        assert not slowed.degraded
        assert [r["action"] for r in slowed.injected_faults] == ["slow"]
        assert slowed.slaves[0]["cpu_total"] > base.slaves[0]["cpu_total"]


class TestSharpenedDiagnostics:
    def test_protocol_error_names_node_peer_and_types(self):
        sim = Simulator()
        transport = make_transport(sim)
        master = transport.endpoint(0)
        slave = transport.endpoint(1)

        def master_proc():
            yield master.send(1, Shipment(0, 0.0, 2.0, TupleBatch.empty()))

        def slave_proc():
            yield from slave.recv_expect(0, ReorgOrder, Halt)

        sim.process(master_proc())
        p = sim.process(slave_proc())
        with pytest.raises(ProtocolError) as exc:
            sim.run(until=p)
        message = str(exc.value)
        assert "protocol violation at node 1" in message
        assert "expected ReorgOrder | Halt from peer 0" in message
        assert "got Shipment" in message

    def test_pending_summary_names_endpoints(self):
        sim = Simulator()
        transport = make_transport(sim)
        comm0 = transport.endpoint(0)
        comm1 = transport.endpoint(1)

        def lonely_send():
            yield comm0.send(3, SlaveSync(0, None))

        def lonely_recv():
            yield comm1.recv(5)

        sim.process(lonely_send())
        sim.process(lonely_recv())
        sim.run(None)
        summary = transport.pending_summary()
        assert "0->3: 1 pending send (SlaveSync)" in summary
        assert "5->1: 1 pending recv" in summary

    def test_deadlock_error_lists_pending_channel_ops(
        self, tiny_cfg, monkeypatch
    ):
        """A stuck run's DeadlockError names the exact rendezvous that
        never completed, not just the stuck process names."""
        original = CollectorNode.processes

        def stuck(self):
            yield self.comm.recv(99)

        monkeypatch.setattr(
            CollectorNode,
            "processes",
            lambda self: [*original(self), stuck(self)],
        )
        with pytest.raises(DeadlockError) as exc:
            JoinSystem(tiny_cfg).run()
        message = str(exc.value)
        assert "pending channel ops" in message
        assert "99->1: 1 pending recv" in message


class TestFencedSlave:
    def test_dropped_control_message_degrades_but_completes(self):
        """Dropping a slave's first Shipment wedges it mid-epoch; the
        master times out on its sync, fences it, and the run completes
        (the fence Halt releases the slave's pending receive)."""
        cfg = chaos_cfg(1, faults=FaultPlan.parse(["drop:0->3@1"]))
        result = JoinSystem(cfg).run()
        assert result.degraded
        assert result.master["dead_slaves"] == [3]
        assert result.outputs > 0
