"""StreamWindow: head-block protocol, commit, dedup, expiry — and the
partition-group's key-sorted run that probes search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition_group import JoinGeometry, PartitionGroup
from repro.core.window import StreamWindow
from tests.conftest import commit_rows, flush_head, run_pass, tune


def make_window(stream_id=0, tpb=4):
    return StreamWindow(stream_id, tuples_per_block=tpb, block_bytes=tpb * 64)


def make_group(tpb=4, window_seconds=100.0, fine_tuning=False):
    return PartitionGroup(
        0,
        JoinGeometry(
            tuples_per_block=tpb,
            block_bytes=tpb * 64,
            theta_bytes=tpb * 64 * 3,
            window_seconds=window_seconds,
            fine_tuning=fine_tuning,
            tuple_bytes=64,
        ),
    )


class Pair:
    """Both streams' windows of a one-mini-group partition-group, with
    the flush a join-module unit performs on one head block."""

    def __init__(self, tpb=4, window_seconds=100.0):
        self.group = make_group(tpb, window_seconds)
        (bucket,) = self.group.directory.buckets()
        self.mini = bucket.payload
        self.w0, self.w1 = self.mini.windows

    def flush(self, sid, collect_pairs=False):
        return flush_head(self.group, self.mini, sid, collect_pairs)


def arrs(rows):
    ts = np.array([r[0] for r in rows], dtype=float)
    key = np.array([r[1] for r in rows], dtype=np.int64)
    seq = np.array([r[2] for r in rows], dtype=np.int64)
    return ts, key, seq


class TestHeadBlock:
    def test_head_space(self):
        w = make_window(tpb=4)
        assert w.head_space() == 4
        w.append_fresh(*arrs([(1.0, 5, 0)]))
        assert w.head_space() == 3
        assert w.n_fresh == 1

    def test_overflow_rejected(self):
        w = make_window(tpb=2)
        with pytest.raises(ValueError, match="head block overflow"):
            w.append_fresh(*arrs([(1.0, 1, 0), (2.0, 1, 1), (3.0, 1, 2)]))

    def test_flush_commits_fresh(self):
        w0 = make_window(0)
        w0.append_fresh(*arrs([(1.0, 5, 0), (2.0, 6, 1)]))
        w0.commit_fresh()
        assert w0.n_fresh == 0
        assert w0.n_committed == 2

    def test_bytes_used_counts_partial_head_block(self):
        w = make_window(tpb=4)
        w.append_fresh(*arrs([(1.0, 5, 0)]))
        assert w.bytes_used == 4 * 64  # one partial block

    def test_committed_bytes_is_block_granular(self):
        w0 = make_window(0, tpb=4)
        w0.append_fresh(*arrs([(1.0, 5, 0)]))
        w0.commit_fresh()
        assert w0.committed_blocks == 1
        assert w0.committed_bytes == 4 * 64


class TestFlushJoinSemantics:
    def test_flush_joins_against_opposite_committed(self):
        p = Pair()
        p.w1.append_fresh(*arrs([(1.0, 42, 100)]))
        p.flush(1)  # commit the stream-1 tuple
        p.w0.append_fresh(*arrs([(2.0, 42, 0)]))
        result = p.flush(0, collect_pairs=True)
        assert result.n_pairs == 1
        assert result.pairs.tolist() == [[0, 100]]

    def test_fresh_tuples_of_opposite_are_excluded(self):
        """The duplicate-elimination rule: a probe sees only committed
        tuples; the fresh/fresh pair appears when the second stream
        flushes."""
        p = Pair()
        p.w0.append_fresh(*arrs([(1.0, 42, 0)]))
        p.w1.append_fresh(*arrs([(1.5, 42, 100)]))
        first = p.flush(0, collect_pairs=True)
        assert first.n_pairs == 0  # w1's tuple still fresh
        second = p.flush(1, collect_pairs=True)
        assert second.n_pairs == 1  # now w0's tuple is committed

    def test_window_predicate_applied_at_flush(self):
        p = Pair(window_seconds=10.0)
        p.w1.append_fresh(*arrs([(0.0, 7, 100)]))
        p.flush(1)
        p.w0.append_fresh(*arrs([(50.0, 7, 0)]))
        result = p.flush(0, collect_pairs=True)
        assert result.n_pairs == 0  # 50 - 0 > W

    def test_empty_flush_is_noop(self):
        p = Pair()
        result = p.flush(0)
        assert result.n_pairs == 0
        assert result.offsets.tolist() == [0]


class TestExpiry:
    def test_expire_drops_old_committed(self):
        w0 = make_window(0)
        w0.append_fresh(*arrs([(1.0, 1, 0), (2.0, 2, 1), (9.0, 3, 2)]))
        w0.commit_fresh()
        assert w0.expire_before(5.0) == 2
        assert w0.n_committed == 1

    def test_fresh_never_expires(self):
        w = make_window(0)
        w.append_fresh(*arrs([(1.0, 1, 0)]))
        assert w.expire_before(100.0) == 0
        assert w.n_fresh == 1

    def test_probe_after_expiry_sees_survivors_only(self):
        p = Pair()
        p.w1.append_fresh(*arrs([(1.0, 9, 100), (8.0, 9, 101)]))
        p.flush(1)
        assert p.group.expire_before(5.0) == 1
        p.w0.append_fresh(*arrs([(9.0, 9, 0)]))
        result = p.flush(0, collect_pairs=True)
        assert result.pairs.tolist() == [[0, 101]]


class TestStateMovement:
    def test_extract_returns_committed_and_fresh(self):
        w0 = make_window(0)
        w0.append_fresh(*arrs([(1.0, 1, 0), (2.0, 2, 1)]))
        w0.commit_fresh()
        w0.append_fresh(*arrs([(3.0, 3, 2)]))
        committed, fresh = w0.extract_all()
        assert len(committed) == 2
        assert len(fresh) == 1
        assert w0.n_tuples == 0

    def test_install_committed_restores_probe_targets(self):
        src = Pair()
        src.w0.append_fresh(*arrs([(1.0, 7, 0)]))
        src.flush(0)
        state = src.group.extract_state()
        assert src.group.sorted_run(0)[0].tolist() == []  # cleared with it

        dst = Pair()
        dst.group.install_state(state)
        (bucket,) = dst.group.directory.buckets()
        assert bucket.payload.windows[0].n_committed == 1
        bucket.payload.windows[1].append_fresh(*arrs([(2.0, 7, 100)]))
        result = flush_head(dst.group, bucket.payload, 1)
        assert result.n_pairs == 1

    def test_fresh_status_preserved_across_move(self):
        """Moved fresh tuples must probe exactly once at the consumer."""
        src = Pair()
        src.w0.append_fresh(*arrs([(1.0, 7, 0)]))
        state = src.group.extract_state()
        assert state.groups[0].streams[0][0].ts.tolist() == []  # none committed

        dst = Pair()
        dst.w1.append_fresh(*arrs([(0.5, 7, 100)]))
        dst.flush(1)
        (_committed, fresh), _ = state.groups[0].streams
        dst.w0.append_fresh(fresh.ts, fresh.key, fresh.seq)
        result = dst.flush(0, collect_pairs=True)
        assert result.n_pairs == 1


# ---------------------------------------------------------------------------
# The group's key-sorted run: kept incrementally, equal to a fresh stable
# argsort of the group's commits in commit order.
# ---------------------------------------------------------------------------
class RunDriver:
    """Feeds stream 0 of a fine-tuned partition-group tuples with a
    monotone clock and unique seqs, and logs what it commits, in commit
    order (the reference the run is checked against)."""

    def __init__(self, tpb=4):
        self.group = make_group(tpb, fine_tuning=True)
        self.clock = 0
        self.log = []  # live committed (ts, key, seq) rows, commit order

    def columns(self, keys):
        n = len(keys)
        ts = np.arange(self.clock, self.clock + n, dtype=float)
        seq = np.arange(self.clock, self.clock + n, dtype=np.int64)
        self.clock += n
        return ts, np.asarray(keys, dtype=np.int64), seq

    def windows(self):
        return [b.payload.windows[0] for b in self.group.directory.buckets()]

    def check(self):
        """The run equals, column by column, a from-scratch stable
        argsort of the commit log (unique seqs pin the order of ties),
        and holds exactly what the mini-groups' windows hold."""
        key, ts, seq = self.group.sorted_run(0)
        log_ts, log_key, log_seq = arrs(self.log)
        order = np.argsort(log_key, kind="stable")
        np.testing.assert_array_equal(key, log_key[order])
        np.testing.assert_array_equal(ts, log_ts[order])
        np.testing.assert_array_equal(seq, log_seq[order])
        held = np.concatenate([w.committed.seq for w in self.windows()])
        assert sorted(held.tolist()) == sorted(seq.tolist())

    def commit_heads(self):
        for bucket in self.group.directory.buckets():
            window = bucket.payload.windows[0]
            if window.n_fresh:
                self.log.extend(zip(*(c.tolist() for c in window.fresh_view())))
                flush_head(self.group, bucket.payload, 0)

    def apply(self, op, arg):
        group = self.group
        if op == "fresh":  # each key to its mini-group's head, if it fits
            for k in arg:
                key = np.array([k], dtype=np.int64)
                patterns, buckets = group.route(key)
                window = buckets[int(patterns[0])].payload.windows[0]
                if window.head_space():
                    window.append_fresh(*self.columns([k]))
        elif op == "commit":
            self.commit_heads()
        elif op == "expire":  # arg == 0 empties the windows
            cutoff = float(self.clock - arg)
            group.expire_before(cutoff)
            self.log = [r for r in self.log if r[0] >= cutoff]
        elif op == "extract":
            group.extract_state()
            self.log = []
        elif op == "probe":
            self.check()
        elif op == "install":  # a state move: the run is rebuilt by a sort
            state = group.extract_state()
            group.install_state(state)
            self.log = [
                row
                for g in state.groups
                for row in zip(*(c.tolist() for c in (
                    g.streams[0][0].ts, g.streams[0][0].key, g.streams[0][0].seq
                )))
            ]
        elif op == "tune":  # splits and merges re-label the run, no more
            tune(group)
        else:
            # Wholesale commits land behind any fresh tuples' timestamps,
            # so (like split/merge) they run on empty head blocks.
            self.commit_heads()
            ts, key, seq = self.columns(arg)
            commit_rows(group, 0, ts, key, seq)
            self.log.extend(zip(ts.tolist(), key.tolist(), seq.tolist()))


# Eight keys: duplicates straddle old and new tuples all the time, and
# there is something for a split to separate.
_keys = st.lists(st.integers(0, 7), min_size=0, max_size=9)
_run_ops = st.lists(
    st.one_of(
        st.tuples(st.just("fresh"), _keys),
        st.tuples(st.just("commit"), st.none()),
        st.tuples(st.just("expire"), st.integers(0, 12)),
        st.tuples(st.just("extract"), st.none()),
        st.tuples(st.just("probe"), st.none()),
        st.tuples(st.just("install"), st.none()),
        st.tuples(st.just("tune"), st.none()),
        st.tuples(st.just("append"), _keys),
    ),
    max_size=40,
)


class TestSortedRun:
    @given(ops=_run_ops)
    @settings(max_examples=300, deadline=None)
    def test_equals_fresh_stable_argsort_after_any_interleaving(self, ops):
        driver = RunDriver(tpb=2)
        for op, arg in ops:
            driver.apply(op, arg)
        driver.check()

    def test_duplicate_keys_straddling_old_and_new(self):
        driver = RunDriver()
        driver.apply("append", [2, 1, 2, 1])
        driver.apply("probe", None)
        driver.apply("fresh", [1, 2, 0, 2])
        driver.apply("commit", None)
        key, _ts, seq = driver.group.sorted_run(0)
        assert key.tolist() == [0, 1, 1, 1, 2, 2, 2, 2]
        assert seq.tolist() == [6, 1, 3, 4, 0, 2, 5, 7]

    def test_expiry_that_empties_the_window_then_append(self):
        driver = RunDriver()
        driver.apply("append", [3, 1, 2])
        driver.apply("probe", None)
        driver.apply("expire", 0)
        assert driver.group.n_tuples == 0
        driver.apply("probe", None)
        driver.apply("fresh", [2, 1])
        driver.apply("commit", None)
        driver.apply("probe", None)
        assert driver.group.sorted_run(0)[0].tolist() == [1, 2]

    def test_several_commits_and_an_expiry_between_two_probes(self):
        driver = RunDriver()
        driver.apply("append", [1, 0, 1, 0, 1])
        driver.apply("probe", None)
        for keys in ([0, 1], [1, 1, 0], [0]):
            driver.apply("fresh", keys)
            driver.apply("commit", None)
        driver.apply("expire", 8)  # drops the three oldest
        driver.apply("probe", None)
        assert driver.group.n_tuples == 8

    def test_splits_and_merges_leave_the_run_alone(self):
        driver = RunDriver(tpb=2)
        driver.apply("append", list(range(8)) * 3)
        before = [col.copy() for col in driver.group.sorted_run(0)]
        driver.apply("tune", None)
        assert driver.group.n_mini_groups > 1
        for col, kept in zip(driver.group.sorted_run(0), before):
            np.testing.assert_array_equal(col, kept)
        driver.apply("expire", 5)
        driver.apply("tune", None)  # undersized now: merges
        assert driver.group.n_mini_groups == 1
        driver.apply("probe", None)

    def test_steady_path_never_sorts_the_window(self, monkeypatch):
        """Commit a head block into a large window, expire one, probe,
        repeat: after the first build no ``argsort`` may see more than
        the newly committed tuples."""
        n, block = 50_000, 64
        rng = np.random.default_rng(7)
        p = Pair(tpb=block, window_seconds=float(n))
        commit_rows(
            p.group,
            0,
            np.arange(n, dtype=float),
            rng.integers(0, n // 8, n),
            np.arange(n, dtype=np.int64),
        )
        p.group.sorted_run(0)  # the one full sort

        sorted_sizes = []
        real_argsort = np.argsort

        def spy(a, *args, **kwargs):
            sorted_sizes.append(len(a))
            return real_argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        clock = n
        for _ in range(12):
            ts = np.arange(clock, clock + block, dtype=float)
            key = rng.integers(0, n // 8, block)
            seq = np.arange(clock, clock + block, dtype=np.int64)
            clock += block
            p.w0.append_fresh(ts, key, seq)
            p.flush(0)
            p.group.expire_before(float(clock - n))
            p.w1.append_fresh(ts, key, seq)
            p.flush(1, collect_pairs=True)
        monkeypatch.undo()

        assert p.w0.n_committed == n
        assert sorted_sizes and max(sorted_sizes) <= block
        soa = p.w0.committed
        order = np.argsort(soa.key, kind="stable")
        key, ts, seq = p.group.sorted_run(0)
        np.testing.assert_array_equal(key, soa.key[order])
        np.testing.assert_array_equal(ts, soa.ts[order])
        np.testing.assert_array_equal(seq, soa.seq[order])


def test_perf_kernel_probe_span_still_sees_every_probe(
    monkeypatch, geometry, metrics, cost_model
):
    """perf/ is outside tier-1, so pin here the lookup perf/spans.py uses
    for its ``kernel.probe`` span (``_resolve``): it must name the
    function every match of the two-stream join comes out of — once per
    step of a pass, four steps.  Fails if the probe is inlined past that
    function or the lookup stops resolving."""
    from repro.config import SystemConfig
    from repro.core.join_module import JoinModule
    from repro.core.kernels import get_kernel
    from repro.core.protocol import Shipment
    from repro.data.tuples import TupleBatch

    cls = get_kernel(SystemConfig.paper_defaults().kernel)
    owner = next(c for c in cls.__mro__ if "probe" in vars(c))
    original = vars(owner)["probe"]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, "probe", counted)

    module = JoinModule(0, geometry, cost_model, 1, metrics)
    module.add_partition(0)
    # Five tuples a stream, four to a block: a full and a partial block
    # of each stream, so all four steps have something to probe.
    batch = TupleBatch.build(
        ts=np.arange(10.0), key=np.full(10, 5), stream=np.arange(10) % 2
    )
    module.enqueue(Shipment(0, 0.0, 10.0, batch))
    kinds = [kind for kind, _cost in run_pass(module, 10.0)]
    assert kinds.count("probe") == 4
    assert len(calls) == 4
    assert metrics.outputs_emitted == 25
