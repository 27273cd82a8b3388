"""Independent reference probers that the store's one prober is held to.

:func:`probe_sorted` joins probe tuples pairwise against one stream's
key-sorted window; :func:`probe_composites` enumerates the n-way
composites of each probe tuple with a ``meshgrid`` of its candidates,
one tuple at a time, with a window per stream.  Neither shares an
enumeration with :meth:`repro.core.partition_group.WindowStore.probe`:
they share only the candidate ranges (:func:`repro.core.probe.candidates`).
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.core.probe import (
    MAX_COMBOS_PER_TUPLE,
    Candidates,
    ProbeResult,
    SortKeys,
    candidates,
)
from repro.data.tuples import SeqArray, TsArray

Indexes = npt.NDArray[np.intp]

_EMPTY_TS: TsArray = np.empty(0, dtype=np.float64)
_EMPTY_PAIRS: npt.NDArray[np.int64] = np.empty((0, 2), dtype=np.int64)


def _no_pairs(n_probe: int, collect_pairs: bool) -> ProbeResult:
    return ProbeResult(
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
    that order (:func:`key_ranges`); the result is the same.  Pairs come
    out as ``(probe seq, window seq)``.
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
    return ProbeResult(newer, pairs, offsets)


#: Per other stream: ``(stream id, sort keys, ts, seq)``, ordered by the
#: sort key (equal keys adjacent); ``seq`` may be None unless members
#: are collected.
Others = t.Sequence[
    tuple[int, npt.NDArray[t.Any], TsArray, SeqArray | None]
]


class CompositeResult(t.NamedTuple):
    """Outcome of probing fresh tuples for n-way composites."""

    n_composites: int
    #: Per composite: the newest member's timestamp.
    newest_ts: TsArray
    #: Per composite: member seqs ordered by stream id; None unless
    #: collected (testing).
    members: npt.NDArray[np.int64] | None
    #: Composites are grouped by probe tuple, in probe order: tuple
    #: ``i`` completed rows ``[offsets[i], offsets[i + 1])``.
    offsets: npt.NDArray[np.intp]


def probe_composites(
    probe_stream: int,
    probe_ts: TsArray,
    probe_key: npt.NDArray[t.Any],
    probe_seq: SeqArray,
    others: Others,
    windows_by_stream: t.Mapping[int, float],
    collect_members: bool = False,
) -> CompositeResult:
    """Find all composites completed by the *probe* tuples.

    ``others`` lists, per other stream: ``(stream_id, sorted_key,
    ts_sorted, seq_sorted)`` — the committed window contents of that
    stream sorted by a key that is equal exactly when join keys are
    (a partition-group's run key, :func:`repro.core.hashing.run_key`),
    which *probe_key* gives for the probe tuples.  ``windows_by_stream[k]``
    is ``Wk``.  The windows are laid end to end as one run for
    :func:`composites`.
    """
    # Streams by id, renumbered densely: members come out in that order.
    sids = sorted([probe_stream, *(o[0] for o in others)])
    found = [_none(len(probe_ts))] * len(sids)
    at = 0
    for sid, key, _ts, _seq in others:
        lo, hi = key_ranges(key, probe_key)
        found[sids.index(sid)] = candidates(lo + at, hi + at)
        at += len(key)
    ts = np.concatenate([o[2] for o in others])
    seqs = [o[3] for o in others]
    seq = None
    if all(s is not None for s in seqs):
        seq = np.concatenate(t.cast(list[SeqArray], seqs))
    windows = [windows_by_stream[sid] for sid in sids]
    streams = np.full(len(probe_ts), sids.index(probe_stream), dtype=np.intp)
    return composites(
        streams, probe_ts, probe_seq, found, ts, seq, windows, collect_members
    )


def composites(
    probe_stream: npt.NDArray[np.intp],
    probe_ts: TsArray,
    probe_seq: SeqArray,
    found: t.Sequence[Candidates],
    ts: TsArray,
    seq: SeqArray | None,
    windows: t.Sequence[float],
    collect_members: bool = False,
) -> CompositeResult:
    """Find all composites completed by the *probe* tuples, tuple ``i``
    of stream ``probe_stream[i]``.  ``found[k]`` gives each probe
    tuple's candidates of stream ``k`` among the rows ``(ts, seq)``, in
    the stream's commit order (those of a tuple's own stream are not
    read); ``windows[k]`` is ``Wk``.  ``seq`` may be None unless members
    are collected."""
    n_streams = len(found)
    offsets = np.zeros(len(probe_ts) + 1, dtype=np.intp)
    sizes = np.stack([np.diff(f.ends) for f in found])
    sizes[probe_stream, np.arange(len(probe_ts))] = 1
    total = 0
    newest_parts: list[TsArray] = []
    member_rows: list[npt.NDArray[np.int64]] = []

    for i in np.flatnonzero(sizes.all(axis=0)).tolist():
        own = int(probe_stream[i])
        combos = 1
        for c in sizes[:, i].tolist():
            combos *= c
        if combos > MAX_COMBOS_PER_TUPLE:
            raise OverflowError(
                f"composite explosion: {combos} candidate combinations "
                f"for one probe tuple (cap {MAX_COMBOS_PER_TUPLE}); "
                "reduce key skew or window sizes"
            )
        # Per other stream, in stream order, this tuple's candidate rows.
        others = [k for k in range(n_streams) if k != own]
        rows_at = [
            found[k].positions[found[k].ends[i] : found[k].ends[i + 1]] for k in others
        ]
        # Cartesian product of timestamps via broadcasting.
        grids = np.meshgrid(*(ts[at] for at in rows_at), indexing="ij")
        stack = np.stack([g.ravel() for g in grids], axis=0)
        t_star = np.maximum(stack.max(axis=0), probe_ts[i])
        valid = t_star - probe_ts[i] <= windows[own]
        for row, k in zip(stack, others):
            valid &= t_star - row <= windows[k]
        n_valid = int(np.count_nonzero(valid))
        if n_valid == 0:
            continue
        total += n_valid
        offsets[i + 1] = n_valid
        newest_parts.append(t_star[valid])
        if collect_members:
            seq_grids = np.meshgrid(
                *(t.cast(SeqArray, seq)[at] for at in rows_at), indexing="ij"
            )
            # Members by stream id: the probe tuple's slot, the others'.
            rows = np.empty((n_valid, n_streams), dtype=np.int64)
            rows[:, own] = probe_seq[i]
            for k, grid in zip(others, seq_grids):
                rows[:, k] = grid.ravel()[valid]
            member_rows.append(rows)

    newest = np.concatenate(newest_parts) if newest_parts else _EMPTY_TS
    members: npt.NDArray[np.int64] | None = None
    if collect_members:
        members = (
            np.concatenate(member_rows)
            if member_rows
            else np.empty((0, n_streams), dtype=np.int64)
        )
    np.cumsum(offsets, out=offsets)
    return CompositeResult(total, newest, members, offsets)


def _none(n_probe: int) -> Candidates:
    """No candidates for any of *n_probe* tuples."""
    empty = np.empty(0, np.intp)
    return Candidates(empty, empty, np.zeros(n_probe + 1, np.intp))
