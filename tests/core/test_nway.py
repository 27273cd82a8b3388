"""N-way composite joins: kernel, oracle, and full-cluster exactness."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JoinSystem, SystemConfig
from repro.core.nway import (
    MAX_COMBOS_PER_TUPLE,
    naive_multiway_join,
    probe_composites,
)
from repro.data.tuples import TupleBatch
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer
from tests.conftest import drain



def _window(rows):
    """rows: (ts, key, seq) -> key-sorted arrays."""
    rows = sorted(rows, key=lambda r: r[1])
    return (
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[0] for r in rows], dtype=np.float64),
        np.array([r[2] for r in rows], dtype=np.int64),
    )


class TestProbeComposites:
    def test_three_way_simple(self):
        k1, t1, s1 = _window([(1.0, 5, 100)])
        k2, t2, s2 = _window([(2.0, 5, 200)])
        result = probe_composites(
            0,
            np.array([3.0]),
            np.array([5], dtype=np.int64),
            np.array([0], dtype=np.int64),
            [(1, k1, t1, s1), (2, k2, t2, s2)],
            {0: 10.0, 1: 10.0, 2: 10.0},
            collect_members=True,
        )
        assert result.n_composites == 1
        assert result.newest_ts.tolist() == [3.0]
        assert result.members.tolist() == [[0, 100, 200]]

    def test_window_predicate_uses_per_stream_windows(self):
        # Member of stream 1 is 8 s older than the newest: valid for
        # W1=10 but not for W1=5.
        k1, t1, s1 = _window([(1.0, 5, 100)])
        k2, t2, s2 = _window([(8.0, 5, 200)])
        for w1, expected in ((10.0, 1), (5.0, 0)):
            result = probe_composites(
                0,
                np.array([9.0]),
                np.array([5], dtype=np.int64),
                np.array([0], dtype=np.int64),
                [(1, k1, t1, s1), (2, k2, t2, s2)],
                {0: 10.0, 1: w1, 2: 10.0},
            )
            assert result.n_composites == expected

    def test_newest_member_may_be_committed(self):
        # A committed member newer than the probe tuple defines t*.
        k1, t1, s1 = _window([(9.0, 5, 100)])
        k2, t2, s2 = _window([(1.0, 5, 200)])
        result = probe_composites(
            0,
            np.array([5.0]),
            np.array([5], dtype=np.int64),
            np.array([0], dtype=np.int64),
            [(1, k1, t1, s1), (2, k2, t2, s2)],
            {0: 10.0, 1: 10.0, 2: 10.0},
        )
        assert result.n_composites == 1
        assert result.newest_ts.tolist() == [9.0]

    def test_empty_other_stream_blocks_everything(self):
        k1, t1, s1 = _window([(1.0, 5, 100)])
        empty = _window([])
        result = probe_composites(
            0,
            np.array([2.0]),
            np.array([5], dtype=np.int64),
            np.array([0], dtype=np.int64),
            [(1, k1, t1, s1), (2, *empty)],
            {0: 10.0, 1: 10.0, 2: 10.0},
        )
        assert result.n_composites == 0

    def test_explosion_guard(self):
        n = 500
        hot = _window([(1.0 + i * 1e-4, 5, i) for i in range(n)])
        with pytest.raises(OverflowError, match="composite explosion"):
            probe_composites(
                0,
                np.array([2.0]),
                np.array([5], dtype=np.int64),
                np.array([0], dtype=np.int64),
                [(1, *hot), (2, *hot)],
                {0: 10.0, 1: 10.0, 2: 10.0},
            )
        assert n * n > MAX_COMBOS_PER_TUPLE


class TestNaiveMultiwayOracle:
    def test_degenerates_to_pairwise(self):
        from repro.reference import naive_window_join

        rng = np.random.default_rng(0)
        n = 60
        batch = TupleBatch.build(
            ts=np.sort(rng.uniform(0, 10, n)),
            key=rng.integers(0, 5, n),
            seq=np.concatenate(
                [np.arange((n + 1) // 2), np.arange(n // 2)]
            ),
            stream=np.arange(n) % 2,
        )
        two = naive_multiway_join(batch, [4.0, 4.0])
        ref = naive_window_join(batch, 4.0)
        assert np.array_equal(two, ref)

    def test_brute_force_three_way(self):
        batch = TupleBatch.build(
            ts=[1.0, 2.0, 3.0, 8.0],
            key=[5, 5, 5, 5],
            seq=[0, 0, 0, 1],
            stream=[0, 1, 2, 2],
        )
        rows = naive_multiway_join(batch, [10.0, 10.0, 10.0])
        assert rows.tolist() == [[0, 0, 0], [0, 0, 1]]
        # Tight windows exclude the late member of stream 2.
        rows = naive_multiway_join(batch, [10.0, 10.0, 2.0])
        # composite (0,0,1): t*=8, member2 ts=8 -> fine; member0 ts=1,
        # 8-1 <= W0=10 fine; member1 ts=2, 8-2 <= 10 fine -> stays.
        # composite (0,0,0): t*=3; all within -> stays.
        assert len(rows) == 2


@given(
    rows=st.lists(
        st.tuples(
            st.floats(0, 20),
            st.integers(0, 3),
            st.integers(0, 2),  # stream id among 3
        ),
        max_size=18,
    ),
    windows=st.tuples(
        st.floats(0.5, 25), st.floats(0.5, 25), st.floats(0.5, 25)
    ),
)
@settings(max_examples=100, deadline=None)
def test_probe_kernel_matches_oracle_three_way(rows, windows):
    """Simulate last-member-flush emission over an arbitrary arrival
    order and compare the union of probe results to the oracle."""
    per_stream_seq = {0: 0, 1: 0, 2: 0}
    tagged = []
    for ts, key, sid in sorted(rows):
        tagged.append((ts, key, sid, per_stream_seq[sid]))
        per_stream_seq[sid] += 1

    committed = {0: [], 1: [], 2: []}
    found = []
    for ts, key, sid, seq in tagged:  # arrival = flush order (1-tuple blocks)
        others = []
        for k in (0, 1, 2):
            if k == sid:
                continue
            others.append((k, *_window([(t, ky, sq) for t, ky, sq in committed[k]])))
        result = probe_composites(
            sid,
            np.array([ts]),
            np.array([key], dtype=np.int64),
            np.array([seq], dtype=np.int64),
            others,
            {0: windows[0], 1: windows[1], 2: windows[2]},
            collect_members=True,
        )
        if result.members is not None and len(result.members):
            found.extend(map(tuple, result.members.tolist()))
        committed[sid].append((ts, key, seq))

    batch = TupleBatch.build(
        ts=[r[0] for r in tagged],
        key=[r[1] for r in tagged],
        seq=[r[3] for r in tagged],
        stream=[r[2] for r in tagged],
    )
    expected = set(map(tuple, naive_multiway_join(batch, list(windows)).tolist()))
    assert set(found) == expected
    assert len(found) == len(expected)  # exactly-once


class TestModuleThreeWayFineTuned:
    def test_three_way_with_splits_matches_oracle(self):
        """Three streams through one join module with fine tuning on and
        a theta of three 4-tuple blocks, so mini-groups split while the
        run goes on.  The composite prober reads each other stream's
        *group* run, so its exactness rests — like the pairwise join's —
        on mini-groups being disjoint in key space."""
        from repro.core.costmodel import CostModel
        from repro.core.join_module import JoinModule
        from repro.core.metrics import MeasurementWindow, SlaveMetrics
        from repro.core.partition_group import JoinGeometry
        from repro.core.protocol import Shipment

        geometry = JoinGeometry(
            tuples_per_block=4,
            block_bytes=256,
            theta_bytes=768,
            window_seconds=3.0,
            fine_tuning=True,
            tuple_bytes=64,
            n_streams=3,
        )
        metrics = SlaveMetrics(0, MeasurementWindow(0.0))
        module = JoinModule(
            0,
            geometry,
            CostModel(SystemConfig.paper_defaults().cost),
            2,
            metrics,
            collect_pairs=True,
        )
        for pid in range(2):
            module.add_partition(pid)
        wl = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(11), 30.0, 0.7, 40, n_streams=3
        )
        trace = []
        for epoch in range(8):
            batch = wl.generate(float(epoch), float(epoch + 1))
            trace.append(batch)
            module.enqueue(Shipment(epoch, float(epoch), float(epoch + 1), batch))
            drain(module, float(epoch + 1))
        assert metrics.splits > 0
        assert max(g.n_mini_groups for g in module.groups.values()) > 1
        got = np.concatenate(metrics.pair_chunks())
        got = got[np.lexsort(tuple(got[:, c] for c in reversed(range(3))))]
        expected = naive_multiway_join(TupleBatch.concat(trace), [3.0] * 3)
        assert len(expected) > 0
        assert np.array_equal(got, expected)


class TestClusterThreeWay:
    def test_full_cluster_three_way_exact(self):
        cfg = (
            SystemConfig.paper_defaults()
            .scaled(0.01)
            .with_(
                n_streams=3,
                npart=8,
                num_slaves=2,
                rate=60.0,
                key_domain=40,
                run_seconds=12.0,
                warmup_seconds=6.0,
                window_seconds=3.0,
                reorg_epoch=4.0,
            )
        )
        wl = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(3), cfg.rate, cfg.b_skew, cfg.key_domain, n_streams=3
        )
        trace = wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)
        result = JoinSystem(
            cfg, collect_pairs=True, workload=TraceReplayer(trace)
        ).run()
        got = result.pairs
        got = got[np.lexsort(tuple(got[:, c] for c in reversed(range(3))))]
        expected = naive_multiway_join(trace, [cfg.window_seconds] * 3)
        assert len(expected) > 0
        assert np.array_equal(got, expected)

    def test_four_streams_supported(self):
        cfg = (
            SystemConfig.paper_defaults()
            .scaled(0.01)
            .with_(
                n_streams=4,
                npart=8,
                num_slaves=2,
                rate=40.0,
                key_domain=30,
                run_seconds=12.0,
                warmup_seconds=6.0,
                window_seconds=3.0,
                reorg_epoch=4.0,
            )
        )
        result = JoinSystem(cfg).run()
        assert result.outputs >= 0  # runs to completion

    def test_n_streams_validation(self):
        with pytest.raises(Exception):
            SystemConfig.paper_defaults().with_(n_streams=1)
