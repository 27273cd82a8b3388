"""StreamWindow: head-block protocol, flush, dedup, expiry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import StreamWindow
from repro.data.tuples import TupleBatch


def make_window(stream_id=0, tpb=4):
    return StreamWindow(stream_id, tuples_per_block=tpb, block_bytes=tpb * 64)


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
        w0, w1 = make_window(0), make_window(1)
        w0.append_fresh(*arrs([(1.0, 5, 0), (2.0, 6, 1)]))
        w0.flush(w1, window_seconds=100.0)
        assert w0.n_fresh == 0
        assert w0.n_committed == 2

    def test_bytes_used_counts_partial_head_block(self):
        w = make_window(tpb=4)
        w.append_fresh(*arrs([(1.0, 5, 0)]))
        assert w.bytes_used(64) == 4 * 64  # one partial block

    def test_committed_bytes_is_block_granular(self):
        w0, w1 = make_window(0, tpb=4), make_window(1, tpb=4)
        w0.append_fresh(*arrs([(1.0, 5, 0)]))
        w0.flush(w1, 100.0)
        assert w0.committed_blocks == 1
        assert w0.committed_bytes == 4 * 64


class TestFlushJoinSemantics:
    def test_flush_joins_against_opposite_committed(self):
        w0, w1 = make_window(0), make_window(1)
        w1.append_fresh(*arrs([(1.0, 42, 100)]))
        w1.flush(w0, 100.0)  # commit the stream-1 tuple
        w0.append_fresh(*arrs([(2.0, 42, 0)]))
        result = w0.flush(w1, 100.0, collect_pairs=True)
        assert result.n_pairs == 1
        assert result.pairs.tolist() == [[0, 100]]

    def test_fresh_tuples_of_opposite_are_excluded(self):
        """The duplicate-elimination rule: a probe sees only committed
        tuples; the fresh/fresh pair appears when the second stream
        flushes."""
        w0, w1 = make_window(0), make_window(1)
        w0.append_fresh(*arrs([(1.0, 42, 0)]))
        w1.append_fresh(*arrs([(1.5, 42, 100)]))
        first = w0.flush(w1, 100.0, collect_pairs=True)
        assert first.n_pairs == 0  # w1's tuple still fresh
        second = w1.flush(w0, 100.0, collect_pairs=True)
        assert second.n_pairs == 1  # now w0's tuple is committed

    def test_window_predicate_applied_at_flush(self):
        w0, w1 = make_window(0), make_window(1)
        w1.append_fresh(*arrs([(0.0, 7, 100)]))
        w1.flush(w0, 100.0)
        w0.append_fresh(*arrs([(50.0, 7, 0)]))
        result = w0.flush(w1, window_seconds=10.0, collect_pairs=True)
        assert result.n_pairs == 0  # 50 - 0 > W

    def test_empty_flush_is_noop(self):
        w0, w1 = make_window(0), make_window(1)
        result = w0.flush(w1, 100.0)
        assert result.n_pairs == 0


class TestExpiry:
    def test_expire_drops_old_committed(self):
        w0, w1 = make_window(0), make_window(1)
        w0.append_fresh(*arrs([(1.0, 1, 0), (2.0, 2, 1), (9.0, 3, 2)]))
        w0.flush(w1, 100.0)
        assert w0.expire_before(5.0) == 2
        assert w0.n_committed == 1

    def test_fresh_never_expires(self):
        w = make_window(0)
        w.append_fresh(*arrs([(1.0, 1, 0)]))
        assert w.expire_before(100.0) == 0
        assert w.n_fresh == 1

    def test_probe_after_expiry_sees_survivors_only(self):
        w0, w1 = make_window(0), make_window(1)
        w1.append_fresh(*arrs([(1.0, 9, 100), (8.0, 9, 101)]))
        w1.flush(w0, 100.0)
        w1.expire_before(5.0)
        w0.append_fresh(*arrs([(9.0, 9, 0)]))
        result = w0.flush(w1, 100.0, collect_pairs=True)
        assert result.pairs.tolist() == [[0, 101]]


class TestStateMovement:
    def test_extract_returns_committed_and_fresh(self):
        w0, w1 = make_window(0), make_window(1)
        w0.append_fresh(*arrs([(1.0, 1, 0), (2.0, 2, 1)]))
        w0.flush(w1, 100.0)
        w0.append_fresh(*arrs([(3.0, 3, 2)]))
        committed, fresh = w0.extract_all()
        assert len(committed) == 2
        assert len(fresh) == 1
        assert w0.n_tuples == 0

    def test_install_committed_restores_probe_targets(self):
        src0, src1 = make_window(0), make_window(1)
        src0.append_fresh(*arrs([(1.0, 7, 0)]))
        src0.flush(src1, 100.0)
        committed, _ = src0.extract_all()

        dst0, dst1 = make_window(0), make_window(1)
        dst0.install_committed(committed)
        dst1.append_fresh(*arrs([(2.0, 7, 100)]))
        result = dst1.flush(dst0, 100.0, collect_pairs=True)
        assert result.n_pairs == 1

    def test_fresh_status_preserved_across_move(self):
        """Moved fresh tuples must probe exactly once at the consumer."""
        src0, src1 = make_window(0), make_window(1)
        src0.append_fresh(*arrs([(1.0, 7, 0)]))
        committed, fresh = src0.extract_all()
        assert len(committed) == 0

        dst0, dst1 = make_window(0), make_window(1)
        dst1.append_fresh(*arrs([(0.5, 7, 100)]))
        dst1.flush(dst0, 100.0)
        dst0.append_fresh(fresh.ts, fresh.key, fresh.seq)
        result = dst0.flush(dst1, 100.0, collect_pairs=True)
        assert result.n_pairs == 1


# ---------------------------------------------------------------------------
# The key-sorted run: kept incrementally, equal to a fresh stable argsort.
# ---------------------------------------------------------------------------
def assert_run_is_stable_argsort(w):
    """``sorted_view`` equals, column by column, a from-scratch stable
    argsort of the committed SoA (unique seqs pin the order of ties)."""
    soa = w.committed
    order = np.argsort(soa.key, kind="stable")
    key, ts, seq = w.sorted_view(need_seq=True)
    np.testing.assert_array_equal(key, soa.key[order])
    np.testing.assert_array_equal(ts, soa.ts[order])
    np.testing.assert_array_equal(seq, soa.seq[order])
    assert w.sorted_view()[2] is None


class RunDriver:
    """Feeds a window tuples with a monotone clock and unique seqs."""

    def __init__(self, tpb=4):
        self.w = make_window(tpb=tpb)
        self.clock = 0

    def columns(self, keys):
        n = len(keys)
        ts = np.arange(self.clock, self.clock + n, dtype=float)
        seq = np.arange(self.clock, self.clock + n, dtype=np.int64)
        self.clock += n
        return ts, np.asarray(keys, dtype=np.int64), seq

    def apply(self, op, arg):
        w = self.w
        if op == "fresh":
            w.append_fresh(*self.columns(arg[: w.head_space()]))
        elif op == "commit":
            w.commit_fresh()
        elif op == "expire":  # arg == 0 empties the window
            w.expire_before(float(self.clock - arg))
        elif op == "extract":
            w.extract_all()
        elif op == "probe":
            assert_run_is_stable_argsort(w)
        else:
            # Wholesale paths append behind any fresh tuples' timestamps,
            # so (like split/merge) they run on an empty head block.
            w.commit_fresh()
            ts, key, seq = self.columns(arg)
            if op == "install":
                w.install_committed(TupleBatch(ts, key, seq, np.zeros(len(ts))))
            else:  # the split/merge children's direct append
                w.committed.append(ts, key, seq)


# Four keys: duplicates straddle old and new tuples all the time.
_keys = st.lists(st.integers(0, 3), min_size=0, max_size=9)
_run_ops = st.lists(
    st.one_of(
        st.tuples(st.just("fresh"), _keys),
        st.tuples(st.just("commit"), st.none()),
        st.tuples(st.just("expire"), st.integers(0, 12)),
        st.tuples(st.just("extract"), st.none()),
        st.tuples(st.just("probe"), st.none()),
        st.tuples(st.just("install"), _keys),
        st.tuples(st.just("append"), _keys),
    ),
    max_size=40,
)


class TestSortedRun:
    @given(ops=_run_ops)
    @settings(max_examples=300, deadline=None)
    def test_equals_fresh_stable_argsort_after_any_interleaving(self, ops):
        driver = RunDriver()
        for op, arg in ops:
            driver.apply(op, arg)
        assert_run_is_stable_argsort(driver.w)

    def test_duplicate_keys_straddling_old_and_new(self):
        driver = RunDriver()
        driver.apply("append", [2, 1, 2, 1])
        driver.apply("probe", None)
        driver.apply("fresh", [1, 2, 0, 2])
        driver.apply("commit", None)
        key, _ts, seq = driver.w.sorted_view(need_seq=True)
        assert key.tolist() == [0, 1, 1, 1, 2, 2, 2, 2]
        assert seq.tolist() == [6, 1, 3, 4, 0, 2, 5, 7]

    def test_expiry_that_empties_the_window_then_append(self):
        driver = RunDriver()
        driver.apply("append", [3, 1, 2])
        driver.apply("probe", None)
        driver.apply("expire", 0)
        assert driver.w.n_committed == 0
        driver.apply("probe", None)
        driver.apply("fresh", [2, 1])
        driver.apply("commit", None)
        driver.apply("probe", None)
        assert driver.w.sorted_view()[0].tolist() == [1, 2]

    def test_several_commits_and_an_expiry_between_two_probes(self):
        driver = RunDriver()
        driver.apply("append", [1, 0, 1, 0, 1])
        driver.apply("probe", None)
        for keys in ([0, 1], [1, 1, 0], [0]):
            driver.apply("fresh", keys)
            driver.apply("commit", None)
        driver.apply("expire", 8)  # drops the three oldest
        driver.apply("probe", None)
        assert driver.w.n_committed == 8

    def test_steady_path_never_sorts_the_window(self, monkeypatch):
        """Commit a head block into a large window, expire one, probe,
        repeat: after the first build no ``argsort`` may see more than
        the newly committed tuples."""
        n, block = 50_000, 64
        rng = np.random.default_rng(7)
        w0, w1 = make_window(0, tpb=block), make_window(1, tpb=block)
        w0.committed.append(
            np.arange(n, dtype=float),
            rng.integers(0, n // 8, n),
            np.arange(n, dtype=np.int64),
        )
        w0.sorted_view()  # the one full sort

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
            w0.append_fresh(ts, key, seq)
            w0.commit_fresh()
            w0.expire_before(float(clock - n))
            w1.append_fresh(ts, key, seq)
            w1.flush(w0, window_seconds=float(n), collect_pairs=True)
        monkeypatch.undo()

        assert w0.n_committed == n
        assert sorted_sizes and max(sorted_sizes) <= block
        assert_run_is_stable_argsort(w0)


def test_perf_kernel_probe_span_still_sees_every_probe(monkeypatch, geometry):
    """perf/ is outside tier-1, so pin here the lookup perf/spans.py uses
    for its ``kernel.probe`` span (``_resolve``): it must name a function
    that every flush calls exactly once.  Fails if the probe is inlined
    past that function or the lookup stops resolving."""
    from repro.config import SystemConfig
    from repro.core.kernels import get_kernel
    from repro.core.partition_group import MiniGroup

    cls = get_kernel(SystemConfig.paper_defaults().kernel)
    owner = next(c for c in cls.__mro__ if "probe" in vars(c))
    original = vars(owner)["probe"]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, "probe", counted)

    w0, w1 = make_window(0), make_window(1)
    w0.append_fresh(*arrs([(1.0, 5, 0)]))
    w0.flush(w1, window_seconds=100.0)
    assert len(calls) == 1

    mini = MiniGroup(geometry)
    mini.windows[1].append_fresh(*arrs([(2.0, 5, 100)]))
    mini.flush_stream(1)
    assert len(calls) == 2
