"""The vectorized probe kernel, cross-checked against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import run_key
from repro.core.probe import probe_sorted
from tests.conftest import brute_force_pairs


def run_probe(probe, window_rows, window, collect_pairs=True):
    """probe/window_rows: lists of (ts, key, seq)."""
    p_ts = np.array([r[0] for r in probe], dtype=float)
    p_key = np.array([r[1] for r in probe], dtype=np.int64)
    p_seq = np.array([r[2] for r in probe], dtype=np.int64)
    w = sorted(window_rows, key=lambda r: r[1])
    w_ts = np.array([r[0] for r in w], dtype=float)
    w_key = np.array([r[1] for r in w], dtype=np.int64)
    w_seq = np.array([r[2] for r in w], dtype=np.int64)
    return probe_sorted(
        p_ts, p_key, p_seq, w_key, w_ts, w_seq, window, collect_pairs
    )


class TestProbeBasics:
    def test_simple_match(self):
        result = run_probe([(5.0, 1, 0)], [(4.0, 1, 10)], window=10.0)
        assert result.n_pairs == 1
        assert list(result.newer_ts) == [5.0]
        assert result.pairs.tolist() == [[0, 10]]

    def test_key_mismatch(self):
        result = run_probe([(5.0, 1, 0)], [(4.0, 2, 10)], window=10.0)
        assert result.n_pairs == 0

    def test_window_excludes_old_tuples(self):
        result = run_probe([(100.0, 1, 0)], [(4.0, 1, 10)], window=10.0)
        assert result.n_pairs == 0

    def test_window_boundary_inclusive(self):
        result = run_probe([(14.0, 1, 0)], [(4.0, 1, 10)], window=10.0)
        assert result.n_pairs == 1

    def test_newer_ts_picks_the_later_side(self):
        result = run_probe(
            [(5.0, 1, 0)], [(4.0, 1, 10), (6.0, 1, 11)], window=10.0
        )
        assert sorted(result.newer_ts.tolist()) == [5.0, 6.0]

    def test_empty_inputs(self):
        assert run_probe([], [(1.0, 1, 0)], 10.0).n_pairs == 0
        assert run_probe([(1.0, 1, 0)], [], 10.0).n_pairs == 0

    def test_duplicate_keys_produce_all_pairs(self):
        result = run_probe(
            [(5.0, 1, 0), (5.5, 1, 1)],
            [(4.0, 1, 10), (4.5, 1, 11)],
            window=10.0,
        )
        assert result.n_pairs == 4

    def test_collect_pairs_requires_seq(self):
        with pytest.raises(ValueError):
            probe_sorted(
                np.array([1.0]),
                np.array([1], dtype=np.int64),
                np.array([0], dtype=np.int64),
                np.array([1], dtype=np.int64),
                np.array([0.5]),
                None,
                10.0,
                collect_pairs=True,
            )


@given(
    probe=st.lists(
        st.tuples(
            st.floats(0, 100),
            st.integers(0, 8),
        ),
        max_size=30,
    ),
    window_rows=st.lists(
        st.tuples(
            st.floats(0, 100),
            st.integers(0, 8),
        ),
        max_size=60,
    ),
    window=st.floats(0.1, 150),
)
@settings(max_examples=200, deadline=None)
def test_probe_matches_brute_force(probe, window_rows, window):
    probe = [(ts, key, i) for i, (ts, key) in enumerate(probe)]
    window_rows = [
        (ts, key, 1000 + i) for i, (ts, key) in enumerate(window_rows)
    ]
    result = run_probe(probe, window_rows, window)
    expected = brute_force_pairs(
        np.array([r[0] for r in probe]),
        np.array([r[1] for r in probe]),
        np.array([r[2] for r in probe]),
        np.array([r[0] for r in window_rows]),
        np.array([r[1] for r in window_rows]),
        np.array([r[2] for r in window_rows]),
        window,
    )
    got = set(map(tuple, result.pairs.tolist())) if result.pairs is not None else set()
    assert got == expected
    assert result.n_pairs == len(expected)


_rows = st.lists(st.tuples(st.floats(0, 100), st.integers(0, 5)), max_size=50)


@given(block=_rows, committed=_rows, window=st.floats(0.1, 150))
@settings(max_examples=300, deadline=None)
def test_searching_in_key_order_gives_the_same_rows_in_the_same_order(
    block, committed, window
):
    """The join path searches a block's run keys in sorted order and
    scatters the answers back: every row, offset and pair comes out
    where probing the block as it is puts it.  Six keys over up to 50
    rows a side: duplicates inside the block and across both sides."""
    p_ts = np.array([r[0] for r in block], dtype=float)
    p_rkey = run_key(np.array([r[1] for r in block], dtype=np.int64))
    p_seq = np.arange(len(block), dtype=np.int64)
    w_rkey = run_key(np.array([r[1] for r in committed], dtype=np.int64))
    order = np.argsort(w_rkey, kind="stable")
    w_ts = np.array([r[0] for r in committed], dtype=float)[order]
    w_seq = 1000 + order.astype(np.int64)
    w_rkey = w_rkey[order]

    def probe(key_order):
        return probe_sorted(
            p_ts, p_rkey, p_seq, w_rkey, w_ts, w_seq, window, True, key_order
        )

    plain = probe(None)
    searched = probe(np.argsort(p_rkey, kind="stable"))
    assert searched.n_pairs == plain.n_pairs
    np.testing.assert_array_equal(searched.offsets, plain.offsets)
    np.testing.assert_array_equal(searched.newer_ts, plain.newer_ts)
    np.testing.assert_array_equal(searched.pairs, plain.pairs)
