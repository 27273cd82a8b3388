"""The naive-join oracle itself, cross-checked against brute force and
against itself over splits of stream 0 and block sizes."""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tuples import TupleBatch
from repro.reference import naive_join, naive_window_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from tests.conftest import brute_force_pairs

HOT_WINDOW = 1.0


def build_batch(rows):
    """rows: list of (ts, key, stream)."""
    if not rows:
        return TupleBatch.empty()
    per_stream_seq = {0: 0, 1: 0}
    ts, key, seq, stream = [], [], [], []
    for t, k, s in rows:
        ts.append(t)
        key.append(k)
        stream.append(s)
        seq.append(per_stream_seq[s])
        per_stream_seq[s] += 1
    return TupleBatch.build(ts=ts, key=key, seq=seq, stream=stream)


class TestNaiveJoin:
    def test_simple(self):
        batch = build_batch([(1.0, 5, 0), (2.0, 5, 1)])
        pairs = naive_window_join(batch, 10.0)
        assert pairs.tolist() == [[0, 0]]

    def test_window_excludes(self):
        batch = build_batch([(1.0, 5, 0), (50.0, 5, 1)])
        assert len(naive_window_join(batch, 10.0)) == 0

    def test_no_same_stream_pairs(self):
        batch = build_batch([(1.0, 5, 0), (2.0, 5, 0)])
        assert len(naive_window_join(batch, 10.0)) == 0

    def test_sorted_output(self):
        batch = build_batch(
            [(1.0, 5, 0), (1.5, 5, 0), (2.0, 5, 1), (2.5, 5, 1)]
        )
        pairs = naive_window_join(batch, 10.0)
        assert pairs.tolist() == sorted(pairs.tolist())

    def test_empty_stream(self):
        batch = build_batch([(1.0, 5, 0)])
        assert len(naive_window_join(batch, 10.0)) == 0


@given(
    rows=st.lists(
        st.tuples(
            st.floats(0, 50),
            st.integers(0, 5),
            st.integers(0, 1),
        ),
        max_size=40,
    ),
    window=st.floats(0.1, 80),
    block=st.integers(1, 16) | st.just(naive_join.CANDIDATES),
)
@settings(max_examples=200, deadline=None)
def test_naive_join_matches_brute_force(rows, window, block):
    batch = build_batch(rows)
    with mock.patch.object(naive_join, "CANDIDATES", block):
        pairs = naive_window_join(batch, window)
    s0, s1 = batch.by_stream(0), batch.by_stream(1)
    expected = brute_force_pairs(
        s0.ts, s0.key, s0.seq, s1.ts, s1.key, s1.seq, window
    )
    assert set(map(tuple, pairs.tolist())) == expected
    assert len(pairs) == len(expected)


def candidates(batch):
    """Equal-key pairs across the whole batch, before the window test."""
    keys0, n0 = np.unique(batch.by_stream(0).key, return_counts=True)
    keys1, n1 = np.unique(batch.by_stream(1).key, return_counts=True)
    _, i0, i1 = np.intersect1d(keys0, keys1, return_indices=True)
    return int((n0[i0] * n1[i1]).sum())


@functools.lru_cache(maxsize=None)
def hot_trace():
    """Two 100 t/s streams for 20 s over 64 b-model keys (b = 0.8)."""
    workload = TwoStreamWorkload.poisson_bmodel(RngRegistry(7), 100.0, 0.8, 64)
    return workload.generate(0.0, 20.0)


class TestBlocks:
    def test_hot_trace_is_several_blocks_long(self):
        assert candidates(hot_trace()) > 4 * naive_join.CANDIDATES

    @pytest.mark.parametrize("size", [1, 7, 1000, 1 << 30])
    def test_block_size_does_not_change_the_bytes(self, size, monkeypatch):
        expected = naive_window_join(hot_trace(), HOT_WINDOW)
        monkeypatch.setattr(naive_join, "CANDIDATES", size)
        got = naive_window_join(hot_trace(), HOT_WINDOW)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()

    def test_scratch_is_input_and_output_sized_not_candidate_sized(self):
        """A long horizon with a small window: ~1.2 M equal-key pairs,
        ~2 500 of them in the window.  Filtering all candidates at once
        needs ~18 × input + output here."""
        rng = np.random.default_rng(0)
        n = 120_000
        stream = rng.integers(0, 2, n).astype(np.uint8)
        seq = np.empty(n, dtype=np.int64)
        for sid in (0, 1):
            seq[stream == sid] = np.arange(np.count_nonzero(stream == sid))
        batch = TupleBatch(
            np.sort(rng.uniform(0.0, 1000.0, n)),
            rng.integers(0, 3000, n),
            seq,
            stream,
        )
        tracemalloc.start()
        try:
            pairs = naive_window_join(batch, HOT_WINDOW)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert candidates(batch) > 100 * len(pairs) > 0
        size = sum(c.nbytes for c in (batch.ts, batch.key, batch.seq, batch.stream))
        assert peak < 4 * (size + pairs.nbytes)


@given(parts=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_join_is_the_union_over_any_split_of_stream_0(parts, seed):
    """Each stream-0 tuple's pairs depend on it and stream 1 alone."""
    trace = hot_trace()
    labels = np.random.default_rng(seed).integers(0, parts, len(trace))
    pieces = [
        naive_window_join(
            trace.select((trace.stream == 1) | (labels == part)), HOT_WINDOW
        )
        for part in range(parts)
    ]
    union = np.concatenate(pieces)
    union = union[np.lexsort((union[:, 1], union[:, 0]))]
    assert np.array_equal(union, naive_window_join(trace, HOT_WINDOW))
