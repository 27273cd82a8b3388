"""The naive-join oracle itself, cross-checked against brute force and
against itself over splits of stream 0 and block sizes."""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.tuples import TupleBatch
from repro.reference import naive_join, naive_window_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from tests.conftest import brute_force_pairs

HOT_WINDOW = 1.0


def build_batch(rows, offsets=(0, 0)):
    """rows: list of (ts, key, stream); stream s's seqs count up from
    offsets[s]."""
    if not rows:
        return TupleBatch.empty()
    per_stream_seq = dict(enumerate(offsets))
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


#: Seconds on a grid of halves: differences are exact, so pairs with
#: ``|a.ts - b.ts| == W`` occur and must join.
on_grid = st.integers(0, 20).map(lambda i: i / 2)
seq_offsets = st.sampled_from([-(2**40), -7, 0, 3, 2**40 + 5])


@given(
    rows=st.lists(
        st.tuples(
            st.floats(0, 50) | on_grid,
            st.integers(0, 5),
            st.integers(0, 1),
        ),
        max_size=40,
    ),
    window=st.floats(0.1, 80) | on_grid.filter(bool),
    block=st.integers(1, 16) | st.just(naive_join.CANDIDATES),
    offsets=st.tuples(seq_offsets, seq_offsets),
)
@example(rows=[(1.0, 5, 0), (3.5, 5, 1), (6.0, 5, 0)], window=2.5, block=1, offsets=(0, 0))
@settings(max_examples=200, deadline=None)
def test_naive_join_matches_brute_force(rows, window, block, offsets):
    batch = build_batch(rows, offsets)
    with mock.patch.object(naive_join, "CANDIDATES", block):
        pairs = naive_window_join(batch, window)
    s0, s1 = batch.by_stream(0), batch.by_stream(1)
    expected = brute_force_pairs(
        s0.ts, s0.key, s0.seq, s1.ts, s1.key, s1.seq, window
    )
    expected = np.array(sorted(expected), dtype=np.int64).reshape(-1, 2)
    assert pairs.dtype == np.int64 and pairs.flags.c_contiguous
    assert pairs.shape == expected.shape
    assert pairs.tobytes() == expected.tobytes()


def test_seq_spans_too_wide_for_one_int64_are_rejected():
    """``(span a + 1) * (span b + 1)`` pair codes must stay below 2**63."""
    batch = TupleBatch.build(
        ts=[0.0, 0.0, 0.0, 0.0],
        key=[1, 2, 1, 2],
        seq=[0, 2**40, 0, 2**23],
        stream=[0, 0, 1, 1],
    )
    with pytest.raises(ValueError, match="seq spans"):
        naive_window_join(batch, 1.0)
    narrower = TupleBatch.build(
        ts=batch.ts, key=batch.key, seq=[0, 2**40, 0, 2**23 - 2], stream=batch.stream
    )
    assert naive_window_join(narrower, 1.0).tolist() == [[0, 0], [2**40, 2**23 - 2]]


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


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_row_order_does_not_change_the_bytes(seed):
    trace = hot_trace()
    shuffled = trace.take(np.random.default_rng(seed).permutation(len(trace)))
    expected = naive_window_join(trace, HOT_WINDOW)
    assert naive_window_join(shuffled, HOT_WINDOW).tobytes() == expected.tobytes()


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
