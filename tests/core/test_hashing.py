"""Partition and directory hashes, bit reversal and small-label sorts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import (
    bit_reverse,
    directory_hash,
    directory_index,
    key_of,
    partition_of,
    run_key,
    small_int_order,
    split_by,
)


class TestPartitionOf:
    def test_range(self):
        keys = np.arange(10_000, dtype=np.int64)
        pids = partition_of(keys, 60)
        assert pids.min() >= 0
        assert pids.max() < 60

    def test_deterministic(self):
        keys = np.arange(100, dtype=np.int64)
        assert np.array_equal(partition_of(keys, 60), partition_of(keys, 60))

    def test_roughly_uniform(self):
        keys = np.arange(60_000, dtype=np.int64)
        counts = np.bincount(partition_of(keys, 60), minlength=60)
        assert counts.min() > 800
        assert counts.max() < 1200

    def test_negative_keys_handled(self):
        pids = partition_of(np.array([-5, -1], dtype=np.int64), 60)
        assert np.all((0 <= pids) & (pids < 60))

    def test_single_partition(self):
        assert np.all(partition_of(np.arange(100), 1) == 0)


class TestDirectoryHash:
    def test_independent_of_partition_hash(self):
        """Keys in the same partition must spread over directory bits —
        fine tuning could not split a partition otherwise."""
        keys = np.arange(200_000, dtype=np.int64)
        same_part = keys[partition_of(keys, 60) == 7]
        bits = directory_index(directory_hash(same_part), 3)
        counts = np.bincount(bits, minlength=8)
        assert counts.min() > 0.8 * len(same_part) / 8

    def test_directory_index_depth_zero(self):
        idx = directory_index(directory_hash(np.arange(10)), 0)
        assert np.all(idx == 0)

    def test_directory_index_masks_lsb(self):
        g = directory_hash(np.arange(1000, dtype=np.int64))
        idx = directory_index(g, 4)
        assert idx.max() < 16
        assert np.array_equal(idx, (g & np.uint64(15)).astype(np.int64))

    def test_deterministic(self):
        keys = np.arange(50, dtype=np.int64)
        assert np.array_equal(directory_hash(keys), directory_hash(keys))


def _reversed_by_string(value: int) -> int:
    return int(f"{value:064b}"[::-1], 2)


_uint64 = st.integers(0, 2**64 - 1)


class TestBitReverse:
    @given(words=st.lists(_uint64, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_is_an_involution(self, words):
        x = np.array(words, dtype=np.uint64)
        np.testing.assert_array_equal(bit_reverse(bit_reverse(x)), x)

    def test_agrees_with_reversing_the_binary_string(self):
        words = [0, 1, 2**63, 2**64 - 1] + [1 << i for i in range(64)]
        words += np.random.default_rng(0).integers(
            0, 2**64 - 1, 500, dtype=np.uint64, endpoint=True
        ).tolist()
        got = bit_reverse(np.array(words, dtype=np.uint64)).tolist()
        assert got == [_reversed_by_string(w) for w in words]

    @given(keys=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_undoes_run_key_back_to_the_key(self, keys):
        keys = np.array(keys, dtype=np.int64)
        np.testing.assert_array_equal(key_of(bit_reverse(run_key(keys))), keys)

    def test_int64_views_and_strided_inputs_give_uint64(self):
        words = np.random.default_rng(1).integers(
            0, 2**64 - 1, 64, dtype=np.uint64, endpoint=True
        )
        kept = words.copy()
        signed = words.view(np.int64)
        for view, unsigned in (
            (signed, words),
            (words[::2], words[::2]),
            (signed[1::3], words[1::3]),
            (words[::-1], words[::-1]),
        ):
            out = bit_reverse(view)
            assert out.dtype == np.uint64
            assert out.tolist() == [_reversed_by_string(w) for w in unsigned.tolist()]
        np.testing.assert_array_equal(words, kept)  # reversed a copy


class TestSmallIntegerSorts:
    @pytest.mark.parametrize("bound", [1, 2, 256, 257, 2**16, 2**16 + 1, 10**6])
    def test_order_is_the_stable_argsort(self, bound):
        labels = np.random.default_rng(bound).integers(0, bound, 3000)
        np.testing.assert_array_equal(
            small_int_order(labels, bound), np.argsort(labels, kind="stable")
        )

    @pytest.mark.parametrize("bound, bits", [(60, 8), (256, 8), (257, 16), (2**16, 16)])
    def test_sorts_at_the_narrowest_width(self, monkeypatch, bound, bits):
        widths = []
        real_argsort = np.argsort

        def spy(a, *args, **kwargs):
            widths.append(a.dtype.itemsize * 8)
            return real_argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        small_int_order(np.arange(bound)[::-1].copy(), bound)
        assert widths == [bits]

    def test_split_by_gives_each_label_its_rows_in_order(self):
        labels = np.array([3, 0, 3, 3, 1, 0, 3])
        assert [(label, rows.tolist()) for label, rows in split_by(labels, 4)] == [
            (0, [1, 5]),
            (1, [4]),
            (3, [0, 2, 3, 6]),
        ]
        assert list(split_by(labels[:0], 4)) == []
