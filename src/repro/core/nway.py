"""N-way composite probing (the paper's general join model).

Section II defines the operator over *n* streams: the output of
``S1[W1] ⋈ ... ⋈ Sn[Wn]`` on attribute ``A`` consists of all composite
tuples ``(s1, ..., sn)`` with equal keys such that, at the arrival time
of the composite's newest member, every other member is inside its own
stream's window.  Formally, with ``t* = max_k sk.t``::

    valid  ⇔  all k: t* - sk.t <= Wk

(the two-stream case degenerates to ``|t1 - t2| <= W`` for equal
windows — the predicate used by the pairwise kernel).

The evaluation prototype (and this package's cluster) runs the binary
join; this module supplies the general composite prober used when
``SystemConfig.n_streams > 2``, plus the brute-force oracle the tests
compare against.  Deduplication follows the same head-block rule as the
binary join: a composite is emitted by the *last* of its members to
flush, probing only committed tuples of the other streams.
"""

from __future__ import annotations

import itertools
import typing as t

import numpy as np
import numpy.typing as npt

from repro.core.probe import candidates
from repro.data.tuples import SeqArray, TsArray, TupleBatch

#: Per other stream: ``(stream id, sort keys, ts, seq)``, ordered by the
#: sort key (equal keys adjacent); ``seq`` may be None unless members
#: are collected.
Others = t.Sequence[
    tuple[int, npt.NDArray[t.Any], TsArray, SeqArray | None]
]

#: Safety cap on enumerated combinations per probe tuple.  Composite
#: cardinality is a product over streams; a hot key in many streams
#: explodes it, and silently enumerating billions would hang the run.
MAX_COMBOS_PER_TUPLE = 200_000


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


_EMPTY: TsArray = np.empty(0, dtype=np.float64)


def probe_composites(
    probe_stream: int,
    probe_ts: TsArray,
    probe_key: npt.NDArray[t.Any],
    probe_seq: SeqArray,
    others: Others,
    windows_by_stream: t.Mapping[int, float],
    collect_members: bool = False,
    hidden: t.Sequence[npt.NDArray[np.intp] | None] | None = None,
) -> CompositeResult:
    """Find all composites completed by the *probe* tuples.

    ``others`` lists, per other stream: ``(stream_id, sorted_key,
    ts_sorted, seq_sorted)`` — the committed window contents of that
    stream sorted by a key that is equal exactly when join keys are
    (a partition-group's run key, :func:`repro.core.hashing.run_key`),
    which *probe_key* gives for the probe tuples.  ``windows_by_stream[k]``
    is ``Wk``.  ``hidden``, aligned with ``others``, gives per stream the
    ascending positions of rows that take no part (None: none), as
    :func:`~repro.core.probe.probe_sorted`'s ``hidden`` does.
    """
    offsets = np.zeros(len(probe_ts) + 1, dtype=np.intp)
    if len(probe_ts) == 0 or any(len(o[1]) == 0 for o in others):
        return CompositeResult(
            0, _EMPTY, np.empty((0, 1 + len(others)), np.int64)
            if collect_members else None,
            offsets,
        )

    # Per other stream, each probe tuple's candidates: ``(positions,
    # ends)``, tuple i's at ``positions[ends[i] : ends[i + 1]]``.
    cands = [
        candidates(o[1], probe_key, hidden=None if hidden is None else hidden[j])
        for j, o in enumerate(others)
    ]
    sizes = np.stack([np.diff(ends) for _pos, ends in cands])

    total = 0
    newest_parts: list[TsArray] = []
    member_rows: list[npt.NDArray[np.int64]] = []
    n_members = 1 + len(others)

    for i in np.flatnonzero(sizes.all(axis=0)).tolist():
        combos = 1
        for c in sizes[:, i].tolist():
            combos *= c
        if combos > MAX_COMBOS_PER_TUPLE:
            raise OverflowError(
                f"composite explosion: {combos} candidate combinations "
                f"for one probe tuple (cap {MAX_COMBOS_PER_TUPLE}); "
                "reduce key skew or window sizes"
            )
        # Per-stream candidate rows for this probe tuple.
        rows_at = [pos[ends[i] : ends[i + 1]] for pos, ends in cands]
        cand_ts = [o[2][at] for o, at in zip(others, rows_at)]
        # Cartesian product of timestamps via broadcasting.
        grids = np.meshgrid(*cand_ts, indexing="ij") if cand_ts else []
        stack = np.stack([g.ravel() for g in grids], axis=0)
        t_star = np.maximum(stack.max(axis=0), probe_ts[i])
        valid = t_star - probe_ts[i] <= windows_by_stream[probe_stream]
        for row, (sid, _k, _t, _s) in zip(stack, others):
            valid &= t_star - row <= windows_by_stream[sid]
        n_valid = int(np.count_nonzero(valid))
        if n_valid == 0:
            continue
        total += n_valid
        offsets[i + 1] = n_valid
        newest_parts.append(t_star[valid])
        if collect_members:
            seq_grids = np.meshgrid(
                *[t.cast(SeqArray, o[3])[at] for o, at in zip(others, rows_at)],
                indexing="ij",
            )
            seq_stack = np.stack([g.ravel() for g in seq_grids], axis=0)
            rows = np.empty((n_valid, n_members), dtype=np.int64)
            # Order members by stream id: probe stream slot + others.
            order: list[tuple[int, int | None]] = sorted(
                [(probe_stream, None)] + [(o[0], j) for j, o in enumerate(others)],
                key=lambda member: member[0],
            )
            for col, (sid, j) in enumerate(order):
                if j is None:
                    rows[:, col] = probe_seq[i]
                else:
                    rows[:, col] = seq_stack[j][valid]
            member_rows.append(rows)

    newest = (
        np.concatenate(newest_parts) if newest_parts else _EMPTY
    )
    members: npt.NDArray[np.int64] | None = None
    if collect_members:
        members = (
            np.concatenate(member_rows)
            if member_rows
            else np.empty((0, n_members), dtype=np.int64)
        )
    np.cumsum(offsets, out=offsets)
    return CompositeResult(total, newest, members, offsets)


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
