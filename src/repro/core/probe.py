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
depend on the others.  The join path nevertheless searches them in
sorted order (``key_order``): numpy's ``searchsorted`` starts each
binary search from where the one before it ended when the needles
ascend, which makes a block of a few thousand keys against a run ten
times its size about three times cheaper to search.  The join module
sorts each block anyway, to commit it, and one scatter of the searches'
answers (:func:`key_ranges`) keeps every row where an unsorted probe
would put it.

A probe may be told to skip rows of the run (``hidden``): the join
module splices a pass's partial blocks into a run with its full ones,
ahead of the probes that must not see them yet
(:class:`~repro.core.join_module._Pass`).  Dropping a candidate keeps
the others in their order, so the rows are those of a probe of the run
without the hidden rows.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.data.tuples import KeyArray, SeqArray, TsArray

#: What a probe searches by: join keys, or keys equal exactly where the
#: join keys are (a partition-group's run keys).
SortKeys = t.Union[KeyArray, npt.NDArray[np.uint64]]


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
    key_order: npt.NDArray[np.intp] | None = None,
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
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


def candidates(
    sorted_key: SortKeys,
    probe_key: SortKeys,
    key_order: npt.NDArray[np.intp] | None = None,
    hidden: npt.NDArray[np.intp] | None = None,
) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
    """Per probe key the ascending positions of the rows of *sorted_key*
    equal to it, less those at the ascending positions *hidden*:
    ``(positions, ends)``, key ``i``'s at ``positions[ends[i] :
    ends[i + 1]]``.  A hidden row is found by one search of all the
    candidates' positions."""
    lo, hi = key_ranges(sorted_key, probe_key, key_order)
    counts = hi - lo
    ends = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=ends[1:])
    positions = np.repeat(lo - ends[:-1], counts) + np.arange(ends[-1])
    if hidden is not None and len(hidden):
        at = np.minimum(np.searchsorted(hidden, positions), len(hidden) - 1)
        shown = hidden[at] != positions
        owner = np.repeat(np.arange(len(counts)), counts)
        np.cumsum(np.bincount(owner[shown], minlength=len(counts)), out=ends[1:])
        positions = positions[shown]
    return positions, ends


def probe_sorted(
    probe_ts: TsArray,
    probe_key: SortKeys,
    probe_seq: SeqArray,
    sorted_key: SortKeys,
    sorted_ts: TsArray,
    sorted_seq: SeqArray | None,
    window: float,
    collect_pairs: bool = False,
    key_order: npt.NDArray[np.intp] | None = None,
    hidden: npt.NDArray[np.intp] | None = None,
) -> ProbeResult:
    """Join *probe* tuples against a committed window sorted by key.

    ``sorted_key``/``sorted_ts`` (and ``sorted_seq`` when pairs are
    collected) are the committed window contents ordered by key.
    *key_order*, when given, sorts *probe_key* and the searches run in
    that order (:func:`key_ranges`); the result is the same.  The rows
    at the ascending positions *hidden* are not matched: the result is
    that of the window without them, row for row.
    """
    n_probe = len(probe_key)
    if n_probe == 0 or len(sorted_key) == 0:
        return _no_pairs(n_probe, collect_pairs)

    # Candidate j of probe i is slot ends[i] + j and sits at sorted
    # position positions[ends[i] + j].
    positions, ends = candidates(sorted_key, probe_key, key_order, hidden)
    total = int(ends[-1])
    if total == 0:
        return _no_pairs(n_probe, collect_pairs)

    owner = np.repeat(np.arange(n_probe), np.diff(ends))
    cand_ts = sorted_ts[positions]
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
    offsets[1:] = rows_before[ends[1:]]

    newer = np.maximum(cand_ts[valid], own_ts[valid])
    pairs: npt.NDArray[np.int64] | None = None
    if collect_pairs:
        if sorted_seq is None:
            raise ValueError("collect_pairs=True requires sorted_seq")
        pairs = np.column_stack(
            (probe_seq[owner[valid]], sorted_seq[positions[valid]])
        ).astype(np.int64, copy=False)
    return ProbeResult(n_pairs, newer, pairs, offsets)
