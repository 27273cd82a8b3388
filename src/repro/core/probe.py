"""What a probe returns, and how it finds its candidates.

A *probe* joins fresh tuples against the committed tuples of the other
streams (the paper's block nested-loop join), computing the *exact* join
rows so that production delays come from real outputs, while the CPU
time it is charged follows the block-NLJ cost model
(:mod:`repro.core.costmodel`).  Section II defines the operator over *n*
streams: a row is one tuple of every stream, all with one key, such that
at its newest member's arrival every other member is still in its
window.  With one window ``W`` for all streams that is ``max(ts) -
min(ts) <= W`` over the members (``|a.ts - b.ts| <= W`` for two).  A row
is emitted once, by the last of its members to be committed.

A probe tuple's candidates are a range of the run, the rows of its key
(:func:`candidates`): a pass knows the ranges from its one merge
(:meth:`~repro.core.partition_group.WindowStore.splice`), other probes
search for them (:func:`key_ranges`).  The run holds every stream, so a
probe keeps one stream's candidates at a time, in their order
(:meth:`Candidates.where`);
:meth:`~repro.core.partition_group.WindowStore.probe` enumerates the
rows, for any ``n``.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.data.tuples import KeyArray, TsArray

#: What a probe searches by: join keys, or keys equal exactly where the
#: join keys are (a partition-group's run keys).
SortKeys = t.Union[KeyArray, npt.NDArray[np.uint64]]
Indexes = npt.NDArray[np.intp]

#: Safety cap on the candidate combinations of one probe tuple.  Where
#: three or more streams join, that count is a product over the other
#: streams; a hot key in many of them explodes it, and silently
#: enumerating billions would hang the run.
MAX_COMBOS_PER_TUPLE = 200_000


class ProbeResult(t.NamedTuple):
    """The join rows that probe tuples complete."""

    #: Per row, the timestamp of its newest member (production delay is
    #: ``emit_time - newer_ts``).
    newer_ts: TsArray
    #: Per row, its members' seqs ordered by stream id; None unless
    #: collected (testing against the oracle).
    pairs: npt.NDArray[np.int64] | None
    #: Rows are grouped by probe tuple, in probe order: tuple ``i``
    #: completed rows ``[offsets[i], offsets[i + 1])``, so a caller that
    #: probed several head blocks at once can cut the result back into
    #: one slice per block.
    offsets: Indexes

    @property
    def n_pairs(self) -> int:
        """Number of rows."""
        return int(self.offsets[-1])


def key_ranges(sorted_key: SortKeys, probe_key: SortKeys) -> tuple[Indexes, Indexes]:
    """Per probe key, the ``[lo, hi)`` slice of *sorted_key* equal to it."""
    lo = np.searchsorted(sorted_key, probe_key, side="left")
    hi = np.searchsorted(sorted_key, probe_key, side="right")
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
