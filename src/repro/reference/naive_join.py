"""The textbook tuple-at-a-time sliding-window equi-join.

Semantics (Section II of the paper): tuples ``a`` from stream 0 and
``b`` from stream 1 join iff ``a.key == b.key`` and each was inside the
other's window when the later of the two arrived — i.e.
``|a.ts - b.ts| <= W``.

This oracle is deliberately simple (no window blocks, no partitions, no
parallelism) and is used by property-based tests to check that the full
master/slaves pipeline produces exactly the same multiset of join
pairs under hash partitioning, head-block batching, fine-tuning
splits/merges, repartitioning moves, and declustering changes.

:func:`naive_multiway_join` is the n-stream oracle: within each key it
enumerates every combination of one tuple per stream and keeps those
whose members are all inside their windows at the newest member's
arrival.

The two-stream oracle is a sort-merge join: each stream is sorted by key, so the
equal-key range of every stream-0 tuple is found by binary searches
over ascending needles.  Each surviving pair is then coded as one
int64, ``(a - min a) * m + (b - min b)`` with ``m`` stream 1's seq span
plus one, and a single integer sort puts the codes in the
lexicographic order of ``(a, b)``.  That order is total, so neither the
key sorts' tie order nor the blocking below can reach the output bytes.

Memory: every equal-key pair across the whole horizon is a candidate,
and on a long trace they far outnumber the pairs inside a window.  The
candidates are therefore found and filtered one block of stream-0
tuples at a time, each block holding at most :data:`CANDIDATES` of them,
so the scratch is a small multiple of the input and the output plus one
block, never the candidates' count.
"""

from __future__ import annotations

import itertools
import typing as t

import numpy as np
import numpy.typing as npt

from repro.data.tuples import IndexArray, KeyArray, SeqArray, TsArray, TupleBatch

#: Candidates (equal-key pairs, before the window test) filtered at
#: once.  Each costs ~50 B of index and timestamp scratch, so a block is
#: ~3 MiB whatever the horizon; only a stream-0 tuple with more equal
#: keys than this (at most all of stream 1) is a larger block of its own.
CANDIDATES: t.Final = 1 << 16

Int64Array = npt.NDArray[np.int64]


def naive_window_join(batch: TupleBatch, window_seconds: float) -> Int64Array:
    """All join pairs of a two-stream batch.

    Returns an ``(n, 2)`` int64 array of ``(stream-0 seq, stream-1 seq)``
    pairs, sorted lexicographically (deterministic for comparisons).
    Raises :class:`ValueError` if the two streams' seq spans are too
    wide to code a pair as one int64; seqs are dense per stream, so no
    batch the program builds comes near that.
    """
    ts0, key0, seq0 = _by_key(batch, 0)
    ts1, key1, seq1 = _by_key(batch, 1)
    if not len(seq0) or not len(seq1):
        return np.empty((0, 2), dtype=np.int64)
    base = np.array([seq0.min(), seq1.min()])
    m = int(seq1.max()) - int(base[1]) + 1
    if (int(seq0.max()) - int(base[0]) + 1) * m >= 1 << 63:
        raise ValueError("seq spans too wide to code a pair as one int64")
    # The codes' two terms, in the scratch _by_key made for them.
    seq0 -= base[0]
    seq0 *= m
    seq1 -= base[1]
    # Each stream-0 tuple's equal-key range of stream 1.  The keys are
    # not needed past it: their scratch goes before the candidates come.
    lo = np.searchsorted(key1, key0, side="left")
    counts = np.searchsorted(key1, key0, side="right")
    counts -= lo
    del key0, key1
    codes = _window_codes(ts0, seq0, ts1, seq1, lo, counts, window_seconds)
    codes.sort()
    pairs = np.empty((len(codes), 2), dtype=np.int64)
    np.divmod(codes, m, out=(pairs[:, 0], pairs[:, 1]))
    pairs += base
    return pairs


def _by_key(
    batch: TupleBatch, stream_id: int
) -> tuple[TsArray, KeyArray, SeqArray]:
    """The ts, key and seq of one stream's tuples, sorted by key (in no
    particular order among equal keys)."""
    rows = np.flatnonzero(batch.stream == stream_id)
    rows = rows[np.argsort(batch.key[rows])]
    return batch.ts[rows], batch.key[rows], batch.seq[rows]


def _window_codes(
    ts0: TsArray,
    code0: Int64Array,
    ts1: TsArray,
    code1: Int64Array,
    lo: IndexArray,
    counts: IndexArray,
    window_seconds: float,
) -> Int64Array:
    """``code0[i] + code1[j]`` of every join pair ``(i, j)``, unsorted,
    where stream-0 tuple *i*'s candidates are stream 1's rows
    ``lo[i] : lo[i] + counts[i]``."""
    ends = np.cumsum(counts)
    codes: list[Int64Array] = [np.empty(0, dtype=np.int64)]
    start = 0
    while start < len(lo):
        # The longest run of stream-0 tuples, one at least, whose
        # candidates fit in a block.
        limit = ends[start] - counts[start] + CANDIDATES
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        block = slice(start, stop)
        owner = np.repeat(np.arange(start, stop), counts[block])
        first = ends[block] - counts[block]
        positions = np.arange(first[0], ends[stop - 1]) + np.repeat(
            lo[block] - first, counts[block]
        )
        valid = np.abs(ts1[positions] - ts0[owner]) <= window_seconds
        codes.append(code0[owner[valid]] + code1[positions[valid]])
        start = stop
    return np.concatenate(codes)


def naive_multiway_join(
    batch: TupleBatch, windows: t.Sequence[float]
) -> npt.NDArray[np.int64]:
    """Brute-force n-way windowed equi-join oracle.

    Enumerates candidate combinations *within each join key* (a full
    cross-product over all tuples would be infeasible even at test
    sizes) and applies the newest-member window predicate to each.
    Returns an array of member-seq rows (one column per stream, ordered
    by stream id), sorted lexicographically.
    """
    n = len(windows)
    streams = [batch.by_stream(sid) for sid in range(n)]
    if any(len(s) == 0 for s in streams):
        return np.empty((0, n), dtype=np.int64)

    by_key: list[dict[int, list[int]]] = []
    for s in streams:
        groups: dict[int, list[int]] = {}
        for i, key in enumerate(s.key.tolist()):
            groups.setdefault(key, []).append(i)
        by_key.append(groups)

    shared = set(by_key[0])
    for groups in by_key[1:]:
        shared &= set(groups)

    rows: list[list[int]] = []
    for key in shared:
        candidate_lists = [groups[key] for groups in by_key]
        for combo in itertools.product(*candidate_lists):
            ts = [float(streams[k].ts[combo[k]]) for k in range(n)]
            t_star = max(ts)
            if all(t_star - ts[k] <= windows[k] for k in range(n)):
                rows.append(
                    [int(streams[k].seq[combo[k]]) for k in range(n)]
                )
    if not rows:
        return np.empty((0, n), dtype=np.int64)
    out = np.array(rows, dtype=np.int64)
    ordered: npt.NDArray[np.int64] = out[
        np.lexsort(tuple(out[:, c] for c in reversed(range(n))))
    ]
    return ordered
