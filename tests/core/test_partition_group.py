"""Partition-groups: routing, fine-tuning policy, state movement."""

import numpy as np

from repro.core.hashing import directory_hash
from repro.core.partition_group import JoinGeometry, PartitionGroup
from repro.data.tuples import TupleBatch
from tests.conftest import flush_head


def ingest(group, sid, rows):
    """Directly append committed tuples through the head-block path."""
    batch = TupleBatch.build(
        ts=[r[0] for r in rows],
        key=[r[1] for r in rows],
        seq=[r[2] for r in rows],
        stream=sid,
    )
    patterns, buckets = group.route(batch.key)
    for pattern in sorted(buckets):
        mini = buckets[pattern].payload
        idx = np.flatnonzero(patterns == pattern)
        sub = batch.take(idx)
        window = mini.windows[sid]
        pos = 0
        while pos < len(sub):
            take = min(window.head_space(), len(sub) - pos)
            chunk = sub.slice(pos, pos + take)
            window.append_fresh(chunk.ts, chunk.key, chunk.seq)
            pos += take
            if window.head_space() == 0:
                flush_head(group, mini, sid)
    for bucket in group.directory.buckets():
        for k in range(group.geometry.n_streams):
            flush_head(group, bucket.payload, k)


def fill(group, n, sid=0, t0=0.0):
    ingest(group, sid, [(t0 + i * 0.01, i * 31 + sid, i) for i in range(n)])


class TestRouting:
    def test_route_groups_by_bucket_not_slot(self, geometry):
        """After one split at depth < global depth, several slots alias
        one bucket; routing must return one segment per bucket."""
        group = PartitionGroup(0, geometry)
        fill(group, 64)
        while group.oversized_buckets():
            group.split_bucket(group.oversized_buckets()[0])
        keys = np.arange(500, dtype=np.int64)
        patterns, buckets = group.route(keys)
        assert set(np.unique(patterns)) == set(buckets)
        ids = [id(b) for b in buckets.values()]
        assert len(ids) == len(set(ids))  # distinct buckets only

    def test_route_matches_directory_lookup(self, geometry):
        group = PartitionGroup(0, geometry)
        fill(group, 200)
        while group.oversized_buckets():
            group.split_bucket(group.oversized_buckets()[0])
        keys = np.arange(300, dtype=np.int64)
        patterns, buckets = group.route(keys)
        for key, pattern in zip(keys, patterns):
            expected = group.directory.bucket_for(int(directory_hash(
                np.array([key], dtype=np.int64))[0]))
            assert buckets[int(pattern)] is expected


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
        before = max(b.payload.bytes_used for b in group.directory.buckets())
        while group.oversized_buckets():
            group.split_bucket(group.oversized_buckets()[0])
        after = max(b.payload.bytes_used for b in group.directory.buckets())
        assert after < before
        assert group.n_mini_groups > 1

    def test_split_conserves_tuples(self, geometry):
        group = PartitionGroup(0, geometry)
        fill(group, 100)
        total = group.n_tuples
        while group.oversized_buckets():
            group.split_bucket(group.oversized_buckets()[0])
        assert group.n_tuples == total

    def test_merge_conserves_tuples_and_order(self, geometry):
        group = PartitionGroup(0, geometry)
        fill(group, 100)
        while group.oversized_buckets():
            group.split_bucket(group.oversized_buckets()[0])
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
        for bucket in group.directory.buckets():
            for window in bucket.payload.windows:
                assert np.all(np.diff(window.committed.ts) >= 0)

    def test_merge_respects_size_cap(self, geometry):
        group = PartitionGroup(0, geometry)
        fill(group, 128)
        while group.oversized_buckets():
            group.split_bucket(group.oversized_buckets()[0])
        # All buckets still hold data; merging two would exceed 2*theta
        # unless their combined size is small.
        for bucket in group.directory.buckets():
            buddy = group.directory.buddy_of(bucket)
            if buddy is None:
                continue
            combined = bucket.payload.bytes_used + buddy.payload.bytes_used
            if combined >= 2 * geometry.theta_bytes:
                assert group.try_merge_bucket(bucket) == 0


class TestStateMovement:
    def test_extract_install_roundtrip(self, geometry):
        src = PartitionGroup(3, geometry)
        fill(src, 150)
        while src.oversized_buckets():
            src.split_bucket(src.oversized_buckets()[0])
        n_tuples = src.n_tuples
        n_groups = src.n_mini_groups
        run = [col.copy() for col in src.sorted_run(0)]
        assert len(run[0]) == n_tuples

        state = src.extract_state()
        assert src.n_tuples == 0
        assert len(src.sorted_run(0)[0]) == 0  # derived state goes with it
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
        while src.oversized_buckets():
            src.split_bucket(src.oversized_buckets()[0])
        state = src.extract_state()
        dst = PartitionGroup(0, geometry)
        dst.install_state(state)
        keys = np.array([r[1] for r in rows], dtype=np.int64)
        patterns, buckets = dst.route(keys)
        for key, pattern in zip(keys, patterns):
            window = buckets[int(pattern)].payload.windows[0]
            assert key in set(window.committed.key)

    def test_install_into_nonempty_rejected(self, geometry):
        src = PartitionGroup(0, geometry)
        fill(src, 32)
        state = src.extract_state()
        dst = PartitionGroup(0, geometry)
        fill(dst, 8)
        import pytest

        with pytest.raises(ValueError, match="non-empty"):
            dst.install_state(state)

    def test_payload_bytes(self, geometry):
        src = PartitionGroup(0, geometry)
        fill(src, 32)
        state = src.extract_state()
        assert state.payload_bytes(64) == 32 * 64


class TestTotalBytes:
    """``total_bytes`` is ``bytes_used`` without the walk: every group
    operation that changes a window's tuple count keeps it in step."""

    @staticmethod
    def admit(group, sid, rows, blocks_committed=True):
        """Admit *rows* through ``PartitionGroup.admit`` the way a
        join-module step does: per mini-group, whole blocks committed
        (or not), the remainder left in the head block."""
        tpb = group.geometry.tuples_per_block
        batch = TupleBatch.build(
            ts=[r[0] for r in rows],
            key=[r[1] for r in rows],
            seq=[r[2] for r in rows],
            stream=sid,
        )
        patterns, buckets = group.route(batch.key)
        for pattern, bucket in buckets.items():
            sub = batch.take(np.flatnonzero(patterns == pattern))
            window = bucket.payload.windows[sid]
            whole = (window.n_fresh + len(sub)) // tpb * tpb
            group.admit(
                window, sub.ts, sub.key, sub.seq, whole if blocks_committed else 0
            )
            assert group.total_bytes == group.bytes_used

    def test_follows_every_operation(self, geometry):
        group = PartitionGroup(0, geometry)
        assert group.total_bytes == 0
        rows = [(i * 0.01, i * 31, i) for i in range(150)]
        self.admit(group, 0, rows[:2], blocks_committed=False)  # heads only
        self.admit(group, 0, rows[2:])
        self.admit(group, 1, [(1.5 + t, k, s) for t, k, s in rows[:70]])
        assert group.total_bytes == group.bytes_used > 0
        for bucket in group.directory.buckets():  # empty the head blocks
            for window in bucket.payload.windows:
                window.commit_fresh()
        assert group.total_bytes == group.bytes_used
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
        """``StreamWindow.absorb`` leaves what filling and committing the
        head block one block at a time leaves."""
        tpb = geometry.tuples_per_block
        ts = np.arange(11, dtype=float)
        key = np.arange(11, dtype=np.int64) * 3
        seq = np.arange(11, dtype=np.int64)
        for held in (0, 1, tpb):
            fast = PartitionGroup(0, geometry).directory.buckets()[0].payload.windows[0]
            slow = PartitionGroup(0, geometry).directory.buckets()[0].payload.windows[0]
            for window in (fast, slow):
                window.append_fresh(ts[:held] - 20, key[:held], seq[:held] + 100)
            whole = (held + len(ts)) // tpb * tpb
            fast.absorb(ts, key, seq, whole)
            pos = 0
            while pos < len(ts):
                if slow.head_space() == 0:
                    slow.commit_fresh()
                take = min(slow.head_space(), len(ts) - pos)
                slow.append_fresh(ts[pos:pos + take], key[pos:pos + take], seq[pos:pos + take])
                pos += take
            if slow.head_space() == 0:
                slow.commit_fresh()
            assert (fast.n_committed, fast.n_fresh) == (slow.n_committed, slow.n_fresh)
            for a, b in zip(
                (fast.committed.ts, fast.committed.key, fast.committed.seq, *fast.fresh_view()),
                (slow.committed.ts, slow.committed.key, slow.committed.seq, *slow.fresh_view()),
            ):
                np.testing.assert_array_equal(a, b)
