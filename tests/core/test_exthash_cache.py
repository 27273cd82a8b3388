"""The directory's derived caches — the slot->pattern table and the
distinct-bucket list — must track structural changes."""

import numpy as np

from repro.core.exthash import ExtendibleDirectory


def expected_table(directory):
    return np.array([b.pattern for b in directory.slots], dtype=np.int64)


def expected_buckets(directory):
    seen = {}
    for bucket in directory.slots:
        seen.setdefault(id(bucket), bucket)
    return list(seen.values())


def assert_fresh(directory):
    assert np.array_equal(directory.pattern_table(), expected_table(directory))
    assert directory.buckets() == expected_buckets(directory)
    assert directory.n_buckets == len(expected_buckets(directory))


class TestPatternTableCache:
    def test_initial(self):
        d = ExtendibleDirectory()
        assert_fresh(d)

    def test_invalidated_by_split(self):
        d = ExtendibleDirectory()
        d.pattern_table()  # warm the caches
        d.buckets()
        d.split(d.slots[0])
        assert_fresh(d)
        d.split(d.bucket_for(0))
        assert_fresh(d)

    def test_invalidated_by_merge(self):
        d = ExtendibleDirectory()
        d.split(d.slots[0])
        d.pattern_table()
        d.buckets()
        d.merge(d.bucket_for(0))
        assert_fresh(d)

    def test_cache_is_reused_when_clean(self):
        d = ExtendibleDirectory()
        d.split(d.slots[0])
        assert d.pattern_table() is d.pattern_table()
        assert d.buckets() is d.buckets()

    def test_random_structure_stays_consistent(self):
        rng = np.random.default_rng(0)
        d = ExtendibleDirectory(max_global_depth=6)
        for _ in range(40):
            g = int(rng.integers(0, 64))
            bucket = d.bucket_for(g)
            if rng.random() < 0.6 and d.can_split(bucket):
                d.split(bucket)
            else:
                d.merge(bucket)
            assert_fresh(d)
            d.check_invariants()

    def test_buckets_are_in_pattern_order(self):
        d = ExtendibleDirectory()
        d.split(d.slots[0])
        d.split(d.bucket_for(1))
        assert [b.pattern for b in d.buckets()] == [0, 1, 3]
