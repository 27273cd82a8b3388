"""Failure injection and edge-of-envelope behaviour."""

import numpy as np
import pytest

from repro import JoinSystem, SystemConfig
from repro.core.protocol import Halt, ReorgOrder, Shipment, SlaveSync
from repro.data.tuples import TupleBatch
from repro.errors import DeadlockError, ProtocolError
from repro.net.sim_transport import SimTransport
from repro.simul.kernel import Simulator
from repro.workload.traces import TraceReplayer


class TestProtocolViolations:
    def test_wrong_message_type_raises_protocol_error(self):
        """A slave receiving a Shipment when the schedule says
        ReorgOrder must fail loudly, not misbehave silently."""
        sim = Simulator()
        transport = SimTransport(
            sim, SystemConfig.paper_defaults().network, 64
        )
        master = transport.endpoint(0)
        slave = transport.endpoint(1)

        def master_proc(sim):
            yield master.send(1, Shipment(0, 0.0, 2.0, TupleBatch.empty()))

        def slave_proc(sim):
            yield from slave.recv_expect(0, ReorgOrder, Halt)

        sim.process(master_proc(sim))
        p = sim.process(slave_proc(sim))
        with pytest.raises(ProtocolError):
            sim.run(until=p)

    def test_missing_counterpart_deadlocks_detectably(self):
        """A send with no matching recv leaves the system blocked; the
        kernel reports it instead of hanging forever."""
        sim = Simulator()
        transport = SimTransport(
            sim, SystemConfig.paper_defaults().network, 64
        )
        comm = transport.endpoint(0)

        def lonely(sim):
            yield comm.send(1, SlaveSync(0, None))

        p = sim.process(lonely(sim))
        with pytest.raises(DeadlockError):
            sim.run(until=p)


class TestWorkloadEdges:
    def test_zero_arrivals_run(self, tiny_cfg):
        """Empty streams: the system runs and produces nothing."""
        empty = TraceReplayer(TupleBatch.empty())
        result = JoinSystem(tiny_cfg, workload=empty).run()
        assert result.outputs == 0
        assert result.avg_delay == 0.0

    def test_single_tuple_no_partner(self, tiny_cfg):
        lonely = TupleBatch.build(ts=[1.0], key=[7], seq=[0], stream=0)
        result = JoinSystem(
            tiny_cfg, collect_pairs=True, workload=TraceReplayer(lonely)
        ).run()
        assert result.outputs == 0
        assert len(result.pairs) == 0

    def test_burst_then_silence(self, tiny_cfg):
        """A single dense burst: all pairs found, then windows expire
        and the system idles to the end without issue."""
        n = 400
        rng = np.random.default_rng(0)
        burst = TupleBatch.build(
            ts=np.sort(rng.uniform(0.0, 0.5, n)),
            key=rng.integers(0, 20, n),
            seq=np.arange(n),
            stream=rng.integers(0, 2, n),
        )
        # Fix per-stream seqs for pair identity.
        s0 = burst.stream == 0
        seq = np.zeros(n, dtype=np.int64)
        seq[s0] = np.arange(int(s0.sum()))
        seq[~s0] = np.arange(int((~s0).sum()))
        burst = TupleBatch(burst.ts, burst.key, seq, burst.stream)

        from repro.reference import naive_window_join

        result = JoinSystem(
            tiny_cfg, collect_pairs=True, workload=TraceReplayer(burst)
        ).run()
        got = result.pairs
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        assert np.array_equal(
            got, naive_window_join(burst, tiny_cfg.window_seconds)
        )

    def test_all_tuples_one_key(self, tiny_cfg):
        """Degenerate hot-key workload: quadratic output, single
        unsplittable mini-group, still exact."""
        n = 150
        hot = TupleBatch.build(
            ts=np.linspace(0.0, 4.0, n),
            key=np.full(n, 42),
            seq=np.concatenate(
                [np.arange((n + 1) // 2), np.arange(n // 2)]
            ),
            stream=np.arange(n) % 2,
        )
        from repro.reference import naive_window_join

        result = JoinSystem(
            tiny_cfg, collect_pairs=True, workload=TraceReplayer(hot)
        ).run()
        expected = naive_window_join(hot, tiny_cfg.window_seconds)
        assert result.pairs is not None
        assert len(result.pairs) == len(expected)

    def test_window_longer_than_run(self, tiny_cfg):
        """Nothing ever expires; joins still exact."""
        cfg = tiny_cfg.with_(window_seconds=1000.0)
        result = JoinSystem(cfg).run()
        assert result.outputs > 0


class TestExtremePressure:
    def test_massive_overload_stays_correct_and_terminates(self, tiny_cfg):
        """10x capacity: the run finishes (bounded passes + halt), all
        invariants hold, delay reflects the backlog."""
        cfg = tiny_cfg.with_(num_slaves=1, rate=6000.0)
        result = JoinSystem(cfg).run()
        assert result.avg_delay > 1.0
        assert result.idle_times[0] == pytest.approx(0.0, abs=0.2)

    def test_tiny_epochs(self, tiny_cfg):
        cfg = tiny_cfg.with_(dist_epoch=0.1, reorg_epoch=1.0)
        result = JoinSystem(cfg).run()
        assert result.outputs > 0
        assert result.master["epochs"] > 50

    def test_many_subgroups(self, tiny_cfg):
        cfg = tiny_cfg.with_(num_slaves=4, num_subgroups=4)
        result = JoinSystem(cfg).run()
        assert result.outputs > 0
