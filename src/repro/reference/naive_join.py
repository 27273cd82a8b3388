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

Memory: every equal-key pair across the whole horizon is a candidate,
and on a long trace they far outnumber the pairs inside a window.  The
candidates are therefore found and filtered one block of stream-0
tuples at a time, each block holding at most :data:`CANDIDATES` of them,
so the scratch is a small multiple of the input and the output plus one
block, never the candidates' count.  A block's pairs come out in the
order the whole-horizon pass had them, and the one final lexsort sees
the same rows, so the output bytes do not depend on the blocking.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.data.tuples import TupleBatch

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
    """
    a, b = _window_pairs(batch, window_seconds)
    pairs = np.empty((len(a), 2), dtype=np.int64)
    sort = np.lexsort((b, a))
    np.take(a, sort, out=pairs[:, 0])
    np.take(b, sort, out=pairs[:, 1])
    return pairs


def _window_pairs(
    batch: TupleBatch, window_seconds: float
) -> tuple[Int64Array, Int64Array]:
    """The stream-0 and stream-1 seqs of every join pair, unsorted.

    Its input-sized scratch is freed on return, before the final sort.
    """
    s0 = batch.by_stream(0)
    s1 = batch.by_stream(1)
    s1 = s1.take(np.argsort(s1.key, kind="stable"))
    lo = np.searchsorted(s1.key, s0.key, side="left")
    counts = np.searchsorted(s1.key, s0.key, side="right") - lo
    ends = np.cumsum(counts)
    left: list[Int64Array] = [np.empty(0, dtype=np.int64)]
    right: list[Int64Array] = [np.empty(0, dtype=np.int64)]
    start = 0
    while start < len(s0):
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
        valid = np.abs(s1.ts[positions] - s0.ts[owner]) <= window_seconds
        left.append(s0.seq[owner[valid]])
        right.append(s1.seq[positions[valid]])
        start = stop
    return np.concatenate(left), np.concatenate(right)
