"""The vectorized equi-join probe kernel.

A *probe* joins a small batch of fresh tuples against the committed
contents of the opposite stream's window inside one mini-partition-group
(the paper's block nested-loop join).  We compute the *exact* match set
— equal key AND timestamps within the sliding window — via a sorted-key
index of the committed side, so production-delay metrics come from real
output tuples while the simulated CPU time charged for the probe follows
the block-NLJ cost model (:mod:`repro.core.costmodel`).

The window predicate is symmetric: tuples ``a`` and ``b`` join iff
``a.key == b.key`` and ``|a.ts - b.ts| <= W`` — i.e. each tuple was in
the other's window when the later of the two arrived (Section II).

The probe keys may come in any order: a probe tuple's rows do not
depend on the others.  :func:`probe_sorted` searches the window for
them, in sorted order if given one (``key_order``): numpy's
``searchsorted`` starts each binary search from where the one before it
ended when the needles ascend, and one scatter of the answers
(:func:`key_ranges`) keeps every row where an unsorted probe would put
it.

The join module knows the ranges without searching: a pass's new rows
go into the one run of the store with one merge, whose own search, over
the sorted new keys, says where each row and the first row of its key
are (:meth:`~repro.core.partition_group.WindowStore.splice`).  A store's
run holds every stream, so a probe keeps the candidates of the stream it
matches (:meth:`Candidates.where`); dropping a candidate keeps the
others in their order.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.data.tuples import KeyArray, SeqArray, TsArray

#: What a probe searches by: join keys, or keys equal exactly where the
#: join keys are (a partition-group's run keys).
SortKeys = t.Union[KeyArray, npt.NDArray[np.uint64]]
Indexes = npt.NDArray[np.intp]


class ProbeResult(t.NamedTuple):
    """Outcome of probing fresh tuples against a committed window."""

    #: Number of output (joined) tuples produced.
    n_pairs: int
    #: For each output pair, the timestamp of the *newer* joining tuple
    #: (production delay is ``emit_time - newer_ts``).
    newer_ts: TsArray
    #: Identity of the pairs as ``(probe_seq, window_seq)``; filled only
    #: when ``collect_pairs=True`` (testing against the oracle).
    pairs: npt.NDArray[np.int64] | None
    #: Output rows are grouped by probe tuple, in probe order: tuple
    #: ``i`` produced rows ``[offsets[i], offsets[i + 1])``, so a caller
    #: that probed several head blocks at once can cut the result back
    #: into one slice per block.
    offsets: npt.NDArray[np.intp]


_EMPTY_TS: TsArray = np.empty(0, dtype=np.float64)
_EMPTY_PAIRS: npt.NDArray[np.int64] = np.empty((0, 2), dtype=np.int64)


def _no_pairs(n_probe: int, collect_pairs: bool) -> ProbeResult:
    return ProbeResult(
        0,
        _EMPTY_TS,
        _EMPTY_PAIRS if collect_pairs else None,
        np.zeros(n_probe + 1, dtype=np.intp),
    )


def key_ranges(
    sorted_key: SortKeys,
    probe_key: SortKeys,
    key_order: Indexes | None = None,
) -> tuple[Indexes, Indexes]:
    """Per probe key, the ``[lo, hi)`` slice of *sorted_key* equal to it.

    *key_order*, a permutation that sorts *probe_key*, makes the
    searches run over ascending keys; their answers are scattered back
    to the keys' own places."""
    if key_order is None:
        lo = np.searchsorted(sorted_key, probe_key, side="left")
        hi = np.searchsorted(sorted_key, probe_key, side="right")
        return lo, hi
    ascending = probe_key[key_order]
    lo, hi = np.empty((2, len(ascending)), dtype=np.intp)
    lo[key_order] = np.searchsorted(sorted_key, ascending, side="left")
    hi[key_order] = np.searchsorted(sorted_key, ascending, side="right")
    return lo, hi


class Candidates(t.NamedTuple):
    """Per probe tuple, rows of a run: tuple ``i``'s at ascending
    ``positions[ends[i] : ends[i + 1]]``, each with its ``owner``, ``i``."""

    positions: Indexes
    owner: Indexes
    ends: Indexes

    def where(self, keep: npt.NDArray[np.bool_]) -> Candidates:
        """The candidates for which *keep* holds, in their order."""
        owner = self.owner[keep]
        ends = np.zeros_like(self.ends)
        np.cumsum(np.bincount(owner, minlength=len(ends) - 1), out=ends[1:])
        return Candidates(self.positions[keep], owner, ends)


def candidates(lo: Indexes, hi: Indexes) -> Candidates:
    """Per probe tuple ``i`` the rows ``[lo[i], hi[i])`` of a run."""
    counts = hi - lo
    ends = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=ends[1:])
    positions = np.repeat(lo - ends[:-1], counts) + np.arange(ends[-1])
    return Candidates(positions, np.repeat(np.arange(len(counts)), counts), ends)


def probe_sorted(
    probe_ts: TsArray,
    probe_key: SortKeys,
    probe_seq: SeqArray,
    sorted_key: SortKeys,
    sorted_ts: TsArray,
    sorted_seq: SeqArray | None,
    window: float,
    collect_pairs: bool = False,
    key_order: Indexes | None = None,
) -> ProbeResult:
    """Join *probe* tuples against a committed window sorted by key.

    ``sorted_key``/``sorted_ts`` (and ``sorted_seq`` when pairs are
    collected) are the committed window contents ordered by key.
    *key_order*, when given, sorts *probe_key* and the searches run in
    that order (:func:`key_ranges`); the result is the same.
    """
    if len(probe_key) == 0 or len(sorted_key) == 0:
        return _no_pairs(len(probe_key), collect_pairs)
    if collect_pairs and sorted_seq is None:
        raise ValueError("collect_pairs=True requires sorted_seq")
    found = candidates(*key_ranges(sorted_key, probe_key, key_order))
    cand_seq = t.cast(SeqArray, sorted_seq)[found.positions] if collect_pairs else None
    return matches(
        probe_ts, probe_seq, found, sorted_ts[found.positions], cand_seq, window,
        collect_pairs,
    )


def matches(
    probe_ts: TsArray,
    probe_seq: SeqArray,
    found: Candidates,
    cand_ts: TsArray,
    cand_seq: SeqArray | None,
    window: float,
    collect_pairs: bool = False,
) -> ProbeResult:
    """The candidates *found*, with timestamps *cand_ts* and seqs
    *cand_seq* (needed only to collect pairs), that are within *window*
    of their probe tuples, as rows grouped by probe tuple, each tuple's
    in its candidates' order."""
    n_probe = len(probe_ts)
    total = int(found.ends[-1])
    if total == 0:
        return _no_pairs(n_probe, collect_pairs)

    owner = found.owner
    own_ts = probe_ts[owner]
    valid = np.abs(cand_ts - own_ts) <= window
    # Valid candidates before each slot; read at the slot boundaries it
    # is the row offset of every probe tuple.
    rows_before = np.zeros(total + 1, dtype=np.intp)
    np.cumsum(valid, out=rows_before[1:])
    n_pairs = int(rows_before[-1])
    if n_pairs == 0:
        return _no_pairs(n_probe, collect_pairs)
    offsets = np.zeros(n_probe + 1, dtype=np.intp)
    offsets[1:] = rows_before[found.ends[1:]]

    newer = np.maximum(cand_ts[valid], own_ts[valid])
    pairs: npt.NDArray[np.int64] | None = None
    if collect_pairs:
        pairs = np.column_stack(
            (probe_seq[owner[valid]], t.cast(SeqArray, cand_seq)[valid])
        ).astype(np.int64, copy=False)
    return ProbeResult(n_pairs, newer, pairs, offsets)
