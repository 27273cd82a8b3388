"""Extendible-hash directory: splits, merges, buddies, invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exthash import ExtendibleDirectory
from repro.errors import SimulationError


def values_of(directory, bucket, values):
    """The hash values among *values* that *bucket* holds."""
    return {v for v in values if directory.bucket_for(v) is bucket}


class TestDirectoryGrowth:
    def test_initial_state(self):
        d = ExtendibleDirectory()
        assert d.global_depth == 0
        assert d.n_buckets == 1
        d.check_invariants()

    def test_split_at_global_depth_doubles_directory(self):
        d = ExtendibleDirectory()
        d.split(d.slots[0])
        assert d.global_depth == 1
        assert len(d.slots) == 2
        assert d.n_buckets == 2
        d.check_invariants()

    def test_split_distributes_by_bit(self):
        d = ExtendibleDirectory()
        low, high = d.split(d.slots[0])
        assert values_of(d, low, range(8)) == {0, 2, 4, 6}
        assert values_of(d, high, range(8)) == {1, 3, 5, 7}

    def test_split_below_global_depth_keeps_size(self):
        d = ExtendibleDirectory()
        d.split(d.slots[0])           # depth 0 -> 1, doubles
        d.split(d.bucket_for(0))      # depth 1 -> 2, doubles
        size = len(d.slots)
        # bucket at pattern 1 still has depth 1 < global 2: no doubling.
        d.split(d.bucket_for(1))
        assert len(d.slots) == size
        d.check_invariants()

    def test_lookup_routes_by_lsb(self):
        d = ExtendibleDirectory()
        d.split(d.slots[0])
        d.split(d.bucket_for(0))
        for g in range(16):
            bucket = d.bucket_for(g)
            mask = (1 << bucket.local_depth) - 1
            assert g & mask == bucket.pattern

    def test_depth_limit_enforced(self):
        d = ExtendibleDirectory(max_global_depth=1)
        d.split(d.slots[0])
        with pytest.raises(SimulationError):
            d.split(d.bucket_for(0))
        assert not d.can_split(d.bucket_for(0))


class TestBuddyMerge:
    def test_buddy_is_msb_flip_of_pattern(self):
        d = ExtendibleDirectory()
        d.split(d.slots[0])
        low, high = d.bucket_for(0), d.bucket_for(1)
        assert d.buddy_of(low) is high
        assert d.buddy_of(high) is low

    def test_merge_restores_single_bucket(self):
        d = ExtendibleDirectory()
        d.split(d.slots[0])
        merged = d.merge(d.bucket_for(0))
        assert merged is not None
        assert values_of(d, merged, range(8)) == set(range(8))
        assert d.n_buckets == 1
        d.check_invariants()

    def test_no_buddy_at_depth_zero(self):
        d = ExtendibleDirectory()
        assert d.buddy_of(d.slots[0]) is None

    def test_unequal_depths_block_merge(self):
        d = ExtendibleDirectory()
        d.split(d.slots[0])          # buckets at depth 1
        d.split(d.bucket_for(0))     # pattern 00/10 at depth 2
        # pattern 1 (depth 1) has no same-depth buddy now.
        assert d.buddy_of(d.bucket_for(1)) is None

    def test_split_then_merge_roundtrip_preserves_content(self):
        values = set(range(32))
        d = ExtendibleDirectory()
        d.split(d.slots[0])
        d.split(d.bucket_for(0))
        d.split(d.bucket_for(1))
        d.merge(d.bucket_for(0))
        d.merge(d.bucket_for(1))
        total = []
        for bucket in d.buckets():
            total += values_of(d, bucket, values)
        assert sorted(total) == sorted(values)
        d.check_invariants()


@given(
    ops=st.lists(st.integers(0, 63), min_size=1, max_size=40),
    merges=st.lists(st.integers(0, 63), max_size=20),
)
@settings(max_examples=100, deadline=None)
def test_random_split_merge_keeps_invariants(ops, merges):
    """Arbitrary split/merge sequences preserve directory invariants,
    and every hash value lies in exactly one bucket, the one whose
    pattern its low bits match."""
    values = set(range(64))
    d = ExtendibleDirectory(max_global_depth=6)
    for g in ops:
        bucket = d.bucket_for(g)
        if d.can_split(bucket):
            d.split(bucket)
            d.check_invariants()
    for g in merges:
        bucket = d.bucket_for(g)
        d.merge(bucket)
        d.check_invariants()
    seen: list[int] = []
    for bucket in d.buckets():
        mine = values_of(d, bucket, values)
        seen.extend(mine)
        mask = (1 << bucket.local_depth) - 1
        for v in mine:
            assert v & mask == bucket.pattern
    assert sorted(seen) == sorted(values)
