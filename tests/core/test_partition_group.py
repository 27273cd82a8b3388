"""Partition-groups: routing, fine-tuning policy, state movement, and
the run layout that makes every mini-group one slice of it."""

import numpy as np
import pytest
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
from tests.conftest import commit_rows, tune


def ingest(group, sid, rows):
    """Commit ``(ts, key, seq)`` rows of stream *sid* to *group*."""
    commit_rows(group, sid, *zip(*rows))


def fill(group, n, sid=0, t0=0.0):
    ingest(group, sid, [(t0 + i * 0.01, i * 31 + sid, i) for i in range(n)])


def split_all(group):
    while group.oversized_buckets():
        group.split_bucket(group.oversized_buckets()[0])


class TestRouting:
    def test_route_groups_by_bucket_not_slot(self, geometry):
        """After one split at depth < global depth, several slots alias
        one bucket; routing must name the bucket, not a slot."""
        group = PartitionGroup(0, geometry)
        fill(group, 64)
        group.split_bucket(group.directory.slots[0])
        group.split_bucket(group.directory.bucket_for(0))
        assert len(group.directory.slots) == 4 and group.n_mini_groups == 3
        keys = np.arange(500, dtype=np.int64)
        at, _g = group.route(keys)
        assert set(np.unique(at).tolist()) == set(range(group.n_mini_groups))

    def test_route_matches_directory_lookup(self, geometry):
        group = PartitionGroup(0, geometry)
        fill(group, 200)
        split_all(group)
        keys = np.arange(300, dtype=np.int64)
        at, gvals = group.route(keys)
        np.testing.assert_array_equal(gvals, directory_hash(keys))
        buckets = group.directory.buckets()
        for g, index in zip(gvals.tolist(), at.tolist()):
            assert group.directory.bucket_for(g) is buckets[index]


class TestFineTuningPolicy:
    def test_oversized_detection(self, geometry):
        group = PartitionGroup(0, geometry)
        # theta = 3 blocks of 4 tuples -> oversized needs > 24 tuples
        # of 64 B across both streams (2*theta = 1536 B = 6 blocks).
        fill(group, 64)
        assert group.oversized_buckets()

    def test_split_reduces_max_bucket(self, geometry):
        group = PartitionGroup(0, geometry)
        fill(group, 128)
        before = max(group.bytes_of(b) for b in group.directory.buckets())
        split_all(group)
        after = max(group.bytes_of(b) for b in group.directory.buckets())
        assert after < before
        assert group.n_mini_groups > 1

    def test_split_conserves_tuples(self, geometry):
        group = PartitionGroup(0, geometry)
        fill(group, 100)
        total = group.n_tuples
        run = [col.copy() for col in group.sorted_run(0)]
        split_all(group)
        assert group.n_tuples == total
        for col, kept in zip(group.sorted_run(0), run):
            np.testing.assert_array_equal(col, kept)  # a relabelling

    def test_merge_conserves_tuples_and_order(self, geometry):
        group = PartitionGroup(0, geometry)
        fill(group, 100)
        split_all(group)
        total = group.n_tuples
        # Expire most tuples to force undersized buckets.
        group.expire_before(0.9)
        merged_any = False
        for bucket in list(group.directory.buckets()):
            if group.directory.bucket_for(bucket.pattern) is bucket:
                if group.try_merge_bucket(bucket):
                    merged_any = True
        assert merged_any
        assert group.n_tuples <= total
        for committed, _fresh in (
            s for g in group.snapshot_state().groups for s in g.streams
        ):
            assert np.all(np.diff(committed.ts) >= 0)

    def test_merge_respects_size_cap(self, geometry):
        group = PartitionGroup(0, geometry)
        fill(group, 128)
        split_all(group)
        # All buckets still hold data; merging two would exceed 2*theta
        # unless their combined size is small.
        for bucket in group.directory.buckets():
            buddy = group.directory.buddy_of(bucket)
            if buddy is None:
                continue
            combined = group.bytes_of(bucket) + group.bytes_of(buddy)
            if combined >= 2 * geometry.theta_bytes:
                assert group.try_merge_bucket(bucket) == 0


class TestStateMovement:
    def test_extract_install_roundtrip(self, geometry):
        src = PartitionGroup(3, geometry)
        fill(src, 150)
        split_all(src)
        n_tuples = src.n_tuples
        n_groups = src.n_mini_groups
        run = [col.copy() for col in src.sorted_run(0)]
        assert len(run[0]) == n_tuples

        state = src.extract_state()
        assert src.n_tuples == 0
        assert len(src.sorted_run(0)[0]) == 0  # the run goes with it
        assert state.pid == 3
        assert state.n_tuples == n_tuples

        dst = PartitionGroup(3, geometry)
        dst.install_state(state)
        assert dst.n_tuples == n_tuples
        assert dst.n_mini_groups == n_groups
        dst.directory.check_invariants()
        # ... and is rebuilt, element for element, where it lands.
        for rebuilt, lived in zip(dst.sorted_run(0), run):
            np.testing.assert_array_equal(rebuilt, lived)

    def test_install_preserves_routing(self, geometry):
        """After a move, every key routes to a bucket actually holding
        that key's tuples."""
        src = PartitionGroup(0, geometry)
        rows = [(i * 0.01, i * 13, i) for i in range(120)]
        ingest(src, 0, rows)
        split_all(src)
        state = src.extract_state()
        dst = PartitionGroup(0, geometry)
        dst.install_state(state)
        keys = np.array([r[1] for r in rows], dtype=np.int64)
        at, _g = dst.route(keys)
        held = [set(g.streams[0][0].key.tolist()) for g in state.groups]
        for key, index in zip(keys.tolist(), at.tolist()):
            assert key in held[index]

    def test_install_into_nonempty_rejected(self, geometry):
        src = PartitionGroup(0, geometry)
        fill(src, 32)
        state = src.extract_state()
        dst = PartitionGroup(0, geometry)
        fill(dst, 8)
        with pytest.raises(ValueError, match="non-empty"):
            dst.install_state(state)

    def test_payload_bytes(self, geometry):
        src = PartitionGroup(0, geometry)
        fill(src, 32)
        state = src.extract_state()
        assert state.payload_bytes(64) == 32 * 64


class TestTotalBytes:
    """``total_bytes`` is ``bytes_used`` without the count: every group
    operation that changes a window's tuple count keeps it in step."""

    def test_follows_every_operation(self, geometry):
        group = PartitionGroup(0, geometry)
        assert group.total_bytes == 0
        rows = [(i * 0.01, i * 31, i) for i in range(150)]
        for chunk in (rows[:2], rows[2:]):
            ingest(group, 0, chunk)
            assert group.total_bytes == group.bytes_used
        ingest(group, 1, [(1.5 + t, k, s) for t, k, s in rows[:70]])
        assert group.total_bytes == group.bytes_used > 0
        while group.oversized_buckets():  # splits round each half up
            group.split_bucket(group.oversized_buckets()[0])
            assert group.total_bytes == group.bytes_used
        assert group.n_mini_groups > 1
        group.expire_before(1.0)  # drops most of stream 0, none of stream 1
        assert group.total_bytes == group.bytes_used
        merged = 0
        for bucket in group.directory.buckets():
            if group.directory.bucket_for(bucket.pattern) is bucket:
                merged += bool(group.try_merge_bucket(bucket))
                assert group.total_bytes == group.bytes_used
        assert merged
        held = group.total_bytes
        state = group.extract_state()
        assert group.total_bytes == group.bytes_used == 0
        other = PartitionGroup(0, geometry)
        other.install_state(state)
        assert other.total_bytes == other.bytes_used == held

    def test_absorb_is_a_pass_of_append_and_commit_per_block(self, geometry):
        """A step's full-block units retired at once admit and commit
        what filling and committing their blocks one unit at a time
        does — with the head already holding 0, 1 or a whole block of
        installed tuples when the arrivals come."""
        tpb = geometry.tuples_per_block
        cost_model = CostModel(SystemConfig.paper_defaults().cost)
        for n_held in (0, 1, tpb):
            seen = []
            for prefix in (1, 10**6):
                metrics = SlaveMetrics(0, MeasurementWindow(0.0))
                module = JoinModule(0, geometry, cost_model, 1, metrics)
                module.add_partition(0)
                if n_held:
                    module.groups[0].extract_state()
                    del module.groups[0]
                    module.install_partition(0, _held_state(n_held), TupleBatch.empty())
                batch = TupleBatch.build(
                    ts=np.arange(11.0), key=np.full(11, 3), seq=np.arange(11), stream=0
                )
                module.enqueue(Shipment(0, 0.0, 11.0, batch))
                steps = module.steps()
                # The expiry, then the probe step's full-block units.
                for step, n in ((next(steps), 1), (next(steps), (n_held + 11) // tpb)):
                    for lo in range(0, n, prefix):
                        hi = min(n, lo + prefix)
                        step.retire(lo, hi, np.full(hi - lo, 20.0))
                committed, head = module.window_counts(0)
                seen.append(
                    (committed.tolist(), head.tolist(), module.groups[0].total_bytes,
                     module.pending_bytes, module.metrics.tuples_processed)
                )
                assert head[0, 0] == (n_held + 11) % tpb
            assert seen[0] == seen[1]


def _held_state(n_held):
    fresh = TupleBatch.build(
        ts=np.zeros(n_held), key=np.full(n_held, 3), seq=np.arange(100, 100 + n_held),
        stream=0,
    )
    empty = TupleBatch.empty()
    return PartitionGroupState(0, 0, (GroupState(0, 0, ((empty, fresh), (empty, empty))),))


# ---------------------------------------------------------------------------
# The layout: the run is ordered by the bit-reversed directory hash, so a
# bucket is a slice of it.
# ---------------------------------------------------------------------------
_int64 = st.integers(-(2**63), 2**63 - 1)


@given(keys=st.lists(_int64, max_size=50))
@settings(max_examples=100, deadline=None)
def test_hash_inverts_and_reversal_is_an_involution(keys):
    keys = np.array(keys + [0, -1, 1, -(2**63), 2**63 - 1], dtype=np.int64)
    g = directory_hash(keys)
    np.testing.assert_array_equal(key_of(g), keys)
    np.testing.assert_array_equal(bit_reverse(bit_reverse(g)), g)
    for value, reversed_ in zip(g.tolist(), bit_reverse(g).tolist()):
        assert f"{value:064b}"[::-1] == f"{reversed_:064b}"


_layout_ops = st.lists(
    st.one_of(
        st.tuples(st.just("split"), st.integers(0, 2**16)),
        st.tuples(st.just("merge"), st.integers(0, 2**16)),
    ),
    max_size=40,
)


@given(keys=st.lists(st.integers(-(10**12), 10**12), max_size=80), ops=_layout_ops)
@settings(max_examples=150, deadline=None)
def test_every_bucket_is_the_slice_of_its_hash_pattern(keys, ops):
    """Under any split/merge sequence each bucket's slice of the run is
    exactly the rows with ``g & (2**d - 1) == p``, and the slices tile
    the run in order."""
    # A theta no pair of buddies reaches: every merge asked for happens.
    group = PartitionGroup(0, _geometry()._replace(theta_bytes=10**9))
    keys = np.array(keys, dtype=np.int64)
    commit_rows(group, 0, np.zeros(len(keys)), keys, np.arange(len(keys)))
    directory = group.directory
    for op, g in ops:
        bucket = directory.bucket_for(g)
        if op == "split" and directory.can_split(bucket):
            group.split_bucket(bucket)
        elif op == "merge":
            group.try_merge_bucket(bucket)
    rkey, _ts, seq = group.sorted_run(0)
    g = bit_reverse(rkey)
    # In run-key order (by their first run keys) the buckets' kept
    # counts cut the run into consecutive slices that tile it.
    buckets = directory.buckets()
    in_key_order = sorted(
        range(len(buckets)),
        key=lambda i: int(f"{buckets[i].pattern:064b}"[::-1], 2),
    )
    ends = np.cumsum(group.counts()[0][in_key_order, 0]).tolist()
    assert ends[-1] == len(rkey)
    for i, a, b in zip(in_key_order, [0, *ends], ends):
        bucket = buckets[i]
        mask = (g & np.uint64((1 << bucket.local_depth) - 1)) == bucket.pattern
        assert np.flatnonzero(mask).tolist() == list(range(a, b))
    assert group.total_bytes == group.bytes_used


_order_ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.lists(st.integers(0, 5), max_size=8)),
        st.tuples(st.just("expire"), st.integers(0, 10)),
        st.tuples(st.just("tune"), st.none()),
        st.tuples(st.just("move"), st.none()),
    ),
    max_size=30,
)


@given(ops=_order_ops)
@settings(max_examples=150, deadline=None)
def test_rows_of_one_key_stay_in_commit_order(ops):
    """Whatever commits, expiries, splits, merges and moves interleave,
    the rows of one key are adjacent in the run and in commit order."""
    group = PartitionGroup(0, _geometry())
    clock, live = 0, []  # live: (ts, key, seq) in commit order
    for op, arg in ops:
        if op == "commit" and arg:
            ts = np.arange(clock, clock + len(arg), dtype=float)
            seq = np.arange(clock, clock + len(arg))
            clock += len(arg)
            commit_rows(group, 0, ts, arg, seq)
            live += list(zip(ts.tolist(), arg, seq.tolist()))
        elif op == "expire":
            cutoff = float(clock - arg)
            group.expire_before(cutoff)
            live = [r for r in live if r[0] >= cutoff]
        elif op == "tune":
            tune(group)
        elif op == "move":
            moved = PartitionGroup(0, _geometry())
            moved.install_state(group.extract_state())
            group = moved
        rkey, _ts, seq = group.sorted_run(0)
        for key in {r[1] for r in live}:
            mine = np.flatnonzero(rkey == run_key(np.array([key]))[0])
            assert len(mine) == 0 or mine[-1] - mine[0] == len(mine) - 1
            assert seq[mine].tolist() == [r[2] for r in live if r[1] == key]
        assert len(seq) == len(live)


def _geometry():
    return JoinGeometry(
        tuples_per_block=2,
        block_bytes=128,
        theta_bytes=256,
        window_seconds=10.0,
        fine_tuning=True,
        tuple_bytes=64,
    )
