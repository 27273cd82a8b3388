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

from repro.core.probe import Candidates, candidates, key_ranges
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

    newest = np.concatenate(newest_parts) if newest_parts else _EMPTY
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
