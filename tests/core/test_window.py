"""One stream's window inside a partition-group: the head-block
protocol, commit, dedup, expiry, state movement — and the group's run,
which is every window's only store."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costmodel import CostModel
from repro.core.hashing import bit_reverse, directory_hash, key_of, run_key
from repro.core.join_module import JoinModule
from repro.core.metrics import MeasurementWindow, SlaveMetrics
from repro.core.partition_group import (
    GroupState,
    JoinGeometry,
    PartitionGroup,
    PartitionGroupState,
)
from repro.core.protocol import Shipment
from repro.config import SystemConfig
from repro.data.tuples import TupleBatch
from tests.conftest import commit_rows, drain, flush_head, run_pass, tune


def make_geometry(tpb=4, window_seconds=100.0, fine_tuning=False):
    return JoinGeometry(
        tuples_per_block=tpb,
        block_bytes=tpb * 64,
        theta_bytes=tpb * 64 * 3,
        window_seconds=window_seconds,
        fine_tuning=fine_tuning,
        tuple_bytes=64,
    )


def make_group(tpb=4, window_seconds=100.0, fine_tuning=False):
    return PartitionGroup(0, make_geometry(tpb, window_seconds, fine_tuning))


def make_module(tpb=4, collect_pairs=True):
    metrics = SlaveMetrics(0, MeasurementWindow(0.0))
    module = JoinModule(
        0,
        make_geometry(tpb),
        CostModel(SystemConfig.paper_defaults().cost),
        1,
        metrics,
        collect_pairs=collect_pairs,
    )
    module.add_partition(0)
    return module, metrics


def arrs(rows):
    ts = np.array([r[0] for r in rows], dtype=float)
    key = np.array([r[1] for r in rows], dtype=np.int64)
    seq = np.array([r[2] for r in rows], dtype=np.int64)
    return ts, key, seq


def batch(rows, sid):
    ts, key, seq = arrs(rows)
    return TupleBatch(ts, key, seq, np.full(len(ts), sid, dtype=np.uint8))


def state_with(committed=((), ()), fresh=((), ())):
    """A one-mini-group state: per stream, committed and head rows."""
    streams = tuple(
        (batch(c, sid), batch(f, sid))
        for sid, (c, f) in enumerate(zip(committed, fresh))
    )
    return PartitionGroupState(0, 0, (GroupState(0, 0, streams),))


class Pair:
    """Both streams' windows of a one-mini-group partition-group, with
    the flush a join-module unit performs on one head block."""

    def __init__(self, tpb=4, window_seconds=100.0):
        self.group = make_group(tpb, window_seconds)

    def flush(self, sid, rows, collect_pairs=False):
        return flush_head(self.group, sid, *arrs(rows), collect_pairs=collect_pairs)


class TestHeadBlock:
    def test_head_space(self):
        """A head block takes arrivals up to one block: a full one is
        probed as it fills, a partial one only once the buffer drains."""
        cost_model = CostModel(SystemConfig.paper_defaults().cost)
        for n, fresh in ((3, [3]), (4, [4]), (5, [4, 1])):
            module, _ = make_module(tpb=4)
            rows = [(float(i), 5, i) for i in range(n)]
            module.enqueue(Shipment(0, 0.0, 10.0, batch(rows, 0)))
            probes = [cost for kind, cost in run_pass(module, 10.0) if kind == "probe"]
            assert probes == [cost_model.probe_cost(f, 0) for f in fresh]

    def test_flush_commits_fresh(self):
        module, _ = make_module()
        module.enqueue(Shipment(0, 0.0, 2.0, batch([(1.0, 5, 0), (2.0, 6, 1)], 0)))
        drain(module, 10.0)
        committed, head = module.window_counts(0)
        assert committed[:, 0].tolist() == [2]
        assert head.tolist() == [[0, 0]]

    def test_bytes_used_counts_partial_head_block(self):
        group = make_group(tpb=4)
        group.install_state(state_with(fresh=([(1.0, 5, 0)], ())))
        assert group.bytes_used == group.total_bytes == 4 * 64  # one partial block
        assert group.counts()[1].tolist() == [[1, 0]]

    def test_committed_bytes_is_block_granular(self):
        group = make_group(tpb=4)
        commit_rows(group, 0, *arrs([(1.0, 5, 0)]))
        (bucket,) = group.directory.buckets()
        assert group.committed_bytes(bucket, 0) == 4 * 64
        assert group.committed_bytes(bucket, 1) == 0


class TestFlushJoinSemantics:
    def test_flush_joins_against_opposite_committed(self):
        p = Pair()
        p.flush(1, [(1.0, 42, 100)])  # commit the stream-1 tuple
        result = p.flush(0, [(2.0, 42, 0)], collect_pairs=True)
        assert result.n_pairs == 1
        assert result.pairs.tolist() == [[0, 100]]

    def test_fresh_tuples_of_opposite_are_excluded(self):
        """The duplicate-elimination rule: a probe sees only committed
        tuples; the fresh/fresh pair appears when the second stream
        flushes."""
        p = Pair()
        first = p.flush(0, [(1.0, 42, 0)], collect_pairs=True)
        assert first.n_pairs == 0  # stream 1's tuple still in its head
        second = p.flush(1, [(1.5, 42, 100)], collect_pairs=True)
        assert second.n_pairs == 1  # now stream 0's tuple is committed

    def test_window_predicate_applied_at_flush(self):
        p = Pair(window_seconds=10.0)
        p.flush(1, [(0.0, 7, 100)])
        result = p.flush(0, [(50.0, 7, 0)], collect_pairs=True)
        assert result.n_pairs == 0  # 50 - 0 > W

    def test_empty_flush_is_noop(self):
        p = Pair()
        result = p.flush(0, [])
        assert result.n_pairs == 0
        assert result.offsets.tolist() == [0]
        assert p.group.n_tuples == 0


class TestExpiry:
    def test_expire_drops_old_committed(self):
        group = make_group()
        commit_rows(group, 0, *arrs([(1.0, 1, 0), (2.0, 2, 1), (9.0, 3, 2)]))
        assert group.count_before(5.0) == 2
        assert group.expire_before(5.0) == 2
        assert group.counts()[0].tolist() == [[1, 0]]

    def test_fresh_never_expires(self):
        group = make_group()
        group.install_state(state_with(fresh=([(1.0, 1, 0)], ())))
        assert group.count_before(100.0) == 0
        assert group.expire_before(100.0) == 0
        assert group.counts()[1].tolist() == [[1, 0]]

    def test_probe_after_expiry_sees_survivors_only(self):
        p = Pair()
        p.flush(1, [(1.0, 9, 100), (8.0, 9, 101)])
        assert p.group.expire_before(5.0) == 1
        result = p.flush(0, [(9.0, 9, 0)], collect_pairs=True)
        assert result.pairs.tolist() == [[0, 101]]


class TestStateMovement:
    def test_extract_returns_committed_and_fresh(self):
        group = make_group()
        group.install_state(
            state_with(committed=([(1.0, 1, 0), (2.0, 2, 1)], ()), fresh=([(3.0, 3, 2)], ()))
        )
        (mini,) = group.extract_state().groups
        committed, fresh = mini.streams[0]
        assert committed.seq.tolist() == [0, 1]
        assert fresh.seq.tolist() == [2]
        assert group.n_tuples == 0

    def test_install_committed_restores_probe_targets(self):
        src = Pair()
        src.flush(0, [(1.0, 7, 0)])
        state = src.group.extract_state()
        assert src.group.sorted_run(0)[0].tolist() == []  # cleared with it

        dst = Pair()
        dst.group.install_state(state)
        assert dst.group.counts()[0].tolist() == [[1, 0]]
        result = dst.flush(1, [(2.0, 7, 100)])
        assert result.n_pairs == 1

    def test_fresh_status_preserved_across_move(self):
        """Moved head-block tuples must probe exactly once at the
        consumer: after the committed tuples they were never probed
        against, and not twice."""
        src, _ = make_module()
        src.extract_partition(0)
        src.install_partition(
            0, state_with(fresh=([(1.0, 7, 0)], ())), TupleBatch.empty()
        )
        state, _buffered = src.extract_partition(0)
        (mini,) = state.groups
        assert mini.streams[0][0].ts.tolist() == []  # none committed
        assert mini.streams[0][1].seq.tolist() == [0]  # still fresh

        dst, metrics = make_module()
        dst.extract_partition(0)
        state = PartitionGroupState(
            0, 0, (GroupState(0, 0, (mini.streams[0], (batch([(0.5, 7, 100)], 1), batch([], 1)))),)
        )
        # One arrival so that a pass visits the partition.
        dst.install_partition(0, state, batch([(2.0, 8, 101)], 1))
        drain(dst, 10.0)
        assert np.concatenate(metrics.pair_chunks()).tolist() == [[0, 100]]


# ---------------------------------------------------------------------------
# The group's run: kept incrementally, equal to a fresh stable argsort by
# run key of the group's commits in commit order.
# ---------------------------------------------------------------------------
class RunDriver:
    """Feeds stream 0 of a fine-tuned partition-group tuples with a
    monotone clock and unique seqs, and logs what it commits, in commit
    order (the reference the run is checked against).  Head blocks are
    the driver's: rows per mini-group pattern, committed when flushed."""

    def __init__(self, tpb=4):
        self.tpb = tpb
        self.group = make_group(tpb, fine_tuning=True)
        self.clock = 0
        self.log = []  # live committed (ts, key, seq) rows, commit order
        self.heads = {}  # pattern -> head rows

    def columns(self, keys):
        n = len(keys)
        ts = np.arange(self.clock, self.clock + n, dtype=float)
        seq = np.arange(self.clock, self.clock + n, dtype=np.int64)
        self.clock += n
        return ts, np.asarray(keys, dtype=np.int64), seq

    def check(self):
        """The run equals, column by column, a from-scratch stable
        argsort by run key of the commit log (unique seqs pin the order
        of ties), and its mini-groups' slices hold all of it."""
        rkey, ts, seq = self.group.sorted_run(0)
        log_ts, log_key, log_seq = arrs(self.log)
        order = np.argsort(run_key(log_key), kind="stable")
        np.testing.assert_array_equal(key_of(bit_reverse(rkey)), log_key[order])
        np.testing.assert_array_equal(ts, log_ts[order])
        np.testing.assert_array_equal(seq, log_seq[order])
        assert int(self.group.counts()[0][:, 0].sum()) == len(self.log)

    def commit_heads(self):
        for pattern in sorted(self.heads):
            rows = self.heads.pop(pattern)
            self.log.extend(rows)
            flush_head(self.group, 0, *arrs(rows))

    def apply(self, op, arg):
        group = self.group
        if op == "fresh":  # each key to its mini-group's head, if it fits
            for k in arg:
                g = int(directory_hash(np.array([k]))[0])
                head = self.heads.setdefault(group.directory.bucket_for(g).pattern, [])
                if len(head) < self.tpb:
                    ts, key, seq = self.columns([k])
                    head.append((float(ts[0]), k, int(seq[0])))
        elif op == "commit":
            self.commit_heads()
        elif op == "expire":  # arg == 0 empties the windows
            cutoff = float(self.clock - arg)
            group.expire_before(cutoff)
            self.log = [r for r in self.log if r[0] >= cutoff]
        elif op == "extract":
            group.extract_state()
            self.log, self.heads = [], {}
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
            tune(group, busy={p for p, rows in self.heads.items() if rows})
        else:
            # Wholesale commits land behind any head tuples' timestamps,
            # so (like split/merge) they run on empty head blocks.
            self.commit_heads()
            ts, key, seq = self.columns(arg)
            commit_rows(group, 0, ts, key, seq)
            self.log.extend(zip(ts.tolist(), key.tolist(), seq.tolist()))

    def seqs_of(self, key):
        rkey, _ts, seq = self.group.sorted_run(0)
        return seq[rkey == run_key(np.array([key]))[0]].tolist()


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
        driver.check()
        assert driver.seqs_of(0) == [6]
        assert driver.seqs_of(1) == [1, 3, 4]
        assert driver.seqs_of(2) == [0, 2, 5, 7]

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
        rkey = driver.group.sorted_run(0)[0]
        assert sorted(key_of(bit_reverse(rkey)).tolist()) == [1, 2]

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
        log = [(np.arange(n, dtype=float), rng.integers(0, n // 8, n), np.arange(n))]
        commit_rows(p.group, 0, *log[0])
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
            flush_head(p.group, 0, ts, key, seq, collect_pairs=False)
            log.append((ts, key, seq))
            p.group.expire_before(float(clock - n))
            flush_head(p.group, 1, ts, key, seq)
        monkeypatch.undo()

        assert p.group.counts()[0][0, 0] == n
        assert sorted_sizes and max(sorted_sizes) <= block
        ts, key, seq = (np.concatenate(cols) for cols in zip(*log))
        live = ts >= clock - n
        order = np.argsort(run_key(key[live]), kind="stable")
        rkey, run_ts, run_seq = p.group.sorted_run(0)
        np.testing.assert_array_equal(rkey, run_key(key[live])[order])
        np.testing.assert_array_equal(run_ts, ts[live][order])
        np.testing.assert_array_equal(run_seq, seq[live][order])


def test_perf_kernel_probe_span_still_sees_every_probe(
    monkeypatch, geometry, cost_model
):
    """perf/ is outside tier-1, so pin here the lookup perf/spans.py uses
    for its ``kernel.probe`` span (``_resolve``): it must name the
    function every match comes out of — once a pass, for all ``2n``
    kinds of block, with two, three or four streams.  Fails if the probe
    is inlined past that function or the lookup stops resolving."""
    from repro.core.kernels import get_kernel

    cls = get_kernel(SystemConfig.paper_defaults().kernel)
    owner = next(c for c in cls.__mro__ if "probe" in vars(c))
    original = vars(owner)["probe"]
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, "probe", counted)

    for n in (2, 3, 4):
        calls.clear()
        metrics = SlaveMetrics(0, MeasurementWindow(0.0))
        module = JoinModule(0, geometry._replace(n_streams=n), cost_model, 1, metrics)
        module.add_partition(0)
        # Five tuples a stream, four to a block: a full and a partial
        # block of each stream, so all 2n steps have something to probe.
        shipment = TupleBatch.build(
            ts=np.arange(5.0 * n) * 2 / n, key=np.full(5 * n, 5), stream=np.arange(5 * n) % n
        )
        module.enqueue(Shipment(0, 0.0, 10.0, shipment))
        kinds = [kind for kind, _cost in run_pass(module, 10.0)]
        assert kinds.count("probe") == 2 * n
        assert len(calls) == 1, n
        assert metrics.outputs_emitted == 5**n
