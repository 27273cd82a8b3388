"""Partition-groups and mini-partition-groups (Section IV-C/IV-D).

A **partition-group** is the unit of load movement between slaves: one
of the ``npart`` hash partitions of the stream pair, holding both
streams' window data for that partition.  Inside a partition-group,
**fine tuning** keeps the data subdivided into *mini-partition-groups*
via an extendible-hash directory so that each probe scans a bounded
amount of window data: a mini-group larger than ``2*theta`` bytes is
split, and one smaller than ``theta`` is merged with its buddy when the
combined size stays below ``2*theta``.

With fine tuning disabled the partition-group degenerates to a single
mini-group of unbounded size — the configuration the paper uses as its
"no fine-tuning" comparison (Figures 7–10).

**A mini-group is a slice.**  The committed tuples of a stream are kept
in one **run** per stream, ``(run key, ts, seq)`` sorted by the run key
``rev(g(key))`` — the directory hash with its bits reversed — and equal
keys in commit order (:meth:`PartitionGroup.sorted_run`).  ``g`` is a
bijection, so equal run keys are equal join keys and a probe of the run
(:meth:`PartitionGroup.probe`) returns the rows, in the order, of a
probe of a key-sorted run.  A bucket with pattern ``p`` and local depth
``d`` holds the keys whose ``d`` low bits of ``g`` equal ``p``: exactly
the run keys whose ``d`` top bits are ``p`` reversed, one contiguous
range.  So a mini-group's size is the distance between two
``searchsorted`` bounds, a split costs one more bound and a merge none,
and nothing is ever copied to move a tuple between mini-groups.

**Sorted commits.**  The join module sorts each step's blocks by run
key once and uses that order twice: to probe the opposite run, and as
the block it commits (:meth:`PartitionGroup.commit`).  The run takes
such a block with one merge and no sort of its own; only the rarer
commits in another order (installed state, n-way flushes) are sorted,
once, when they are committed.

Mini-groups bound what a probe is *charged* for scanning (the block
nested-loop scan of its mini-group's committed blocks); the join module
computes the charge from the bounds (:meth:`PartitionGroup.counts`).
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.core.exthash import Bucket, ExtendibleDirectory
from repro.core.hashing import (
    HashArray,
    bit_reverse,
    directory_hash,
    key_of,
    run_key,
)
from repro.core.nway import CompositeResult, probe_composites
from repro.core.probe import ProbeResult, probe_sorted
from repro.data.tuples import (
    SEQ_DTYPE,
    TS_DTYPE,
    KeyArray,
    SeqArray,
    TsArray,
    TupleBatch,
)

#: One stream's tuples as ``(run key, ts, seq)`` columns.
Columns = tuple[HashArray, TsArray, SeqArray]
#: Per mini-group (directory bucket order) and stream, a tuple count.
CountTable = npt.NDArray[np.int64]

_END: t.Final = 1 << 64


class JoinGeometry(t.NamedTuple):
    """The shape parameters shared by every window structure."""

    tuples_per_block: int
    block_bytes: int
    theta_bytes: int
    window_seconds: float
    fine_tuning: bool
    tuple_bytes: int
    #: Number of joining streams (the paper's general model; the
    #: evaluation prototype uses 2).
    n_streams: int = 2


class GroupState(t.NamedTuple):
    """Serialized form of one mini-group (for the state mover)."""

    pattern: int
    local_depth: int
    #: Per stream: (committed batch, fresh batch).
    streams: tuple[tuple[TupleBatch, TupleBatch], ...]

    @property
    def n_tuples(self) -> int:
        return sum(len(c) + len(f) for c, f in self.streams)


class PartitionGroupState(t.NamedTuple):
    """Serialized form of a whole partition-group.

    This is the paper's "window states plus splitting information" that
    the state mover ships from a supplier to a consumer.
    """

    pid: int
    global_depth: int
    groups: tuple[GroupState, ...]

    @property
    def n_tuples(self) -> int:
        return sum(g.n_tuples for g in self.groups)

    def payload_bytes(self, tuple_bytes: int) -> int:
        return self.n_tuples * tuple_bytes


#: A directory bucket with its mini-group's bytes.
SizedBucket = tuple[Bucket, int]


class _Layout(t.NamedTuple):
    """Where the directory's buckets lie in run-key order."""

    #: The buckets in directory order (ascending pattern).
    buckets: list[Bucket]
    #: Directory slot -> index of its bucket in ``buckets``.
    slot_index: npt.NDArray[np.intp]
    #: The smallest run key of each bucket's range, ascending ...
    edges: HashArray
    #: ... and the directory-order index of the bucket it starts.
    order: npt.NDArray[np.intp]


#: No tuples (arrays are never written in place, so one is shared).
_NO_COLUMNS: Columns = (
    np.empty(0, np.uint64),
    np.empty(0, TS_DTYPE),
    np.empty(0, SEQ_DTYPE),
)


def _span(pattern: int, depth: int, parts: int = 1) -> list[int]:
    """The run keys cutting the range of bucket ``(pattern, depth)``
    into *parts* equal parts: its first key, ..., one past its last."""
    first = int(f"{pattern:064b}"[::-1], 2)
    width = (1 << (64 - depth)) // parts
    return [first + i * width for i in range(parts + 1)]


def _batch(sid: int, cols: Columns) -> TupleBatch:
    rkey, ts, seq = cols
    return TupleBatch(
        ts, key_of(bit_reverse(rkey)), seq, np.full(len(ts), sid, dtype=np.uint8)
    )


class PartitionGroup:
    """One hash partition's window data, fine-tuned into mini-groups."""

    def __init__(
        self,
        pid: int,
        geometry: JoinGeometry,
        on_double: t.Callable[[int, int], None] | None = None,
    ) -> None:
        self.pid = int(pid)
        self.geometry = geometry
        #: Observability hook: ``on_double(pid, new_global_depth)``.
        self._on_double = on_double
        self.directory = ExtendibleDirectory()
        #: Block-granular bytes of every mini-group's windows, kept up
        #: to date: the join module moves it as it admits arrivals, the
        #: operations here as they drop, relabel or install tuples.
        self.total_bytes = 0
        #: Per stream, the committed tuples in run-key order.
        self._runs: list[Columns] = []
        #: Per stream, the commits not yet spliced into its run, merged
        #: into one run-key-ordered block (equal keys in commit order).
        self._pending: list[Columns] = []
        #: Per stream, the oldest timestamp of its run and pending
        #: commits (``inf`` when empty): expiry that drops nothing
        #: reads nothing.
        self._oldest: list[float] = []
        #: Per stream, installed head-block tuples (``fresh`` in a
        #: :class:`GroupState`) that no pass has taken yet, in arrival
        #: order.  A live group never holds any between passes.
        self.held: list[Columns] = []
        self._layout_cache: _Layout | None = None
        self._reset()

    def _reset(self) -> None:
        n = self.geometry.n_streams
        self.directory = ExtendibleDirectory(on_double=self._double_hook())
        self._layout_cache = None
        self.total_bytes = 0
        self._runs = [_NO_COLUMNS for _ in range(n)]
        self._pending = [_NO_COLUMNS for _ in range(n)]
        self._oldest = [float("inf")] * n
        self.held = [_NO_COLUMNS for _ in range(n)]

    def _double_hook(self) -> t.Callable[[int], None] | None:
        on_double = self._on_double
        if on_double is None:
            return None
        return lambda depth: on_double(self.pid, depth)

    # -- the directory in run-key order ---------------------------------------
    def _layout(self) -> _Layout:
        if self._layout_cache is None:
            buckets = self.directory.buckets()
            patterns = np.array([b.pattern for b in buckets], dtype=np.int64)
            firsts = np.array(
                [_span(b.pattern, b.local_depth)[0] for b in buckets], dtype=np.uint64
            )
            order = np.argsort(firsts)
            slot_index = np.searchsorted(patterns, self.directory.pattern_table())
            self._layout_cache = _Layout(buckets, slot_index, firsts[order], order)
        return self._layout_cache

    def bucket_of(self, rkey: HashArray) -> npt.NDArray[np.intp]:
        """Directory-order index of the bucket each run key lies in."""
        layout = self._layout()
        at: npt.NDArray[np.intp] = layout.order[
            np.searchsorted(layout.edges, rkey, side="right") - 1
        ]
        return at

    def bounds(self) -> tuple[CountTable, CountTable]:
        """``(lo, hi)``: bucket ``b``'s committed tuples of stream ``s``
        are rows ``[lo[b, s], hi[b, s])`` of that stream's run."""
        layout = self._layout()
        shape = (len(layout.buckets), self.geometry.n_streams)
        lo, hi = np.empty(shape, np.int64), np.empty(shape, np.int64)
        for sid in range(shape[1]):
            rkey = self.sorted_run(sid)[0]
            starts = np.searchsorted(rkey, layout.edges)
            lo[layout.order, sid] = starts
            hi[layout.order, sid] = np.append(starts[1:], len(rkey))
        return lo, hi

    def _held_counts(self) -> CountTable:
        nb = len(self._layout().buckets)
        if not any(len(h[1]) for h in self.held):
            return np.zeros((nb, self.geometry.n_streams), np.int64)
        return np.stack(
            [np.bincount(self.bucket_of(h[0]), minlength=nb) for h in self.held],
            axis=1,
        ).astype(np.int64)

    def _tally(self, keys: t.Sequence[int]) -> tuple[CountTable, CountTable]:
        """Per stream (rows), the committed and held tuples whose run
        key lies between consecutive *keys* (columns)."""

        def between(sorted_keys: HashArray) -> CountTable:
            inner = [k for k in keys if k < _END]
            at = np.searchsorted(sorted_keys, np.array(inner, dtype=np.uint64))
            if len(inner) < len(keys):
                at = np.append(at, len(sorted_keys))
            return np.diff(at)

        committed = np.stack([between(self.sorted_run(s)[0]) for s in self._sids()])
        held = np.stack([between(np.sort(h[0])) for h in self.held])
        return committed, held

    def _sids(self) -> range:
        return range(self.geometry.n_streams)

    def _block_bytes(self, n: npt.NDArray[np.int64]) -> int:
        """Block-granular bytes of windows of *n* tuples each."""
        tpb = self.geometry.tuples_per_block
        return self.geometry.block_bytes * int((-(-n // tpb)).sum())

    # -- sizes --------------------------------------------------------------
    def counts(self) -> tuple[CountTable, CountTable]:
        """``(committed, head)`` tuples per mini-group and stream, the
        mini-groups in directory order (``directory.buckets()``)."""
        lo, hi = self.bounds()
        return hi - lo, self._held_counts()

    @property
    def n_tuples(self) -> int:
        return sum(len(self.sorted_run(s)[0]) + len(self.held[s][0]) for s in self._sids())

    @property
    def bytes_used(self) -> int:
        """Block-granular bytes of every window, counted from the runs
        (:attr:`total_bytes` is the same number, kept)."""
        committed, head = self.counts()
        return self._block_bytes(committed + head)

    def bytes_of(self, bucket: Bucket) -> int:
        """Block-granular bytes of one mini-group's windows."""
        committed, held = self._tally(_span(bucket.pattern, bucket.local_depth))
        return self._block_bytes(committed + held)

    def committed_bytes(self, bucket: Bucket, sid: int) -> int:
        """Block-granular committed bytes of stream *sid* in one
        mini-group: what a probe of the opposite stream is charged for."""
        committed, _held = self._tally(_span(bucket.pattern, bucket.local_depth))
        return self._block_bytes(committed[sid])

    @property
    def n_mini_groups(self) -> int:
        return self.directory.n_buckets

    # -- routing --------------------------------------------------------------
    def route(self, keys: KeyArray) -> tuple[npt.NDArray[np.intp], HashArray]:
        """``(buckets, g)``: the index in ``directory.buckets()`` of
        each key's mini-group, and its directory hash (which the caller
        keeps: nothing is hashed twice).  Several directory slots can
        point to one bucket, so grouping is by bucket, not by slot."""
        gvals = directory_hash(keys)
        mask = np.uint64((1 << self.directory.global_depth) - 1)
        return self._layout().slot_index[(gvals & mask).astype(np.intp)], gvals

    # -- the runs ---------------------------------------------------------------
    def commit(self, sid: int, rkey: HashArray, ts: TsArray, seq: SeqArray) -> None:
        """Add tuples to stream *sid*'s run; the caller accounts for
        their bytes (:meth:`admit` is the call that does both).

        The join module commits each step's blocks already in run-key
        order (it sorted them once, to probe with), and they are kept
        as they are.  Tuples in any other order — an installed state,
        an n-way flush — are stable-sorted here, once.  Either way they
        wait, merged after the earlier commits of their keys, for the
        next :meth:`sorted_run` to splice them in.  The arrays are
        kept: they must not be views of storage that changes.
        """
        if not len(ts):
            return
        new: Columns = (rkey, ts, seq)
        if (rkey[1:] < rkey[:-1]).any():
            order = np.argsort(rkey, kind="stable")
            new = (rkey[order], ts[order], seq[order])
        self._pending[sid] = _merged(self._pending[sid], new)
        self._oldest[sid] = min(self._oldest[sid], float(ts.min()))

    def admit(self, sid: int, rkey: HashArray, ts: TsArray, seq: SeqArray) -> None:
        """Commit tuples to stream *sid* and grow :attr:`total_bytes` by
        the blocks they take in their mini-groups."""
        committed, head = self.counts()
        before = committed[:, sid] + head[:, sid]
        added = np.bincount(self.bucket_of(rkey), minlength=len(before))
        self.total_bytes += self._block_bytes(before + added) - self._block_bytes(before)
        self.commit(sid, rkey, ts, seq)

    def sorted_run(self, sid: int) -> Columns:
        """Stream *sid*'s committed tuples in run-key order, equal keys
        in commit order: ``(run key, ts, seq)``, valid until the next
        mutation.

        The order is exactly a stable argsort of the tuples in commit
        order, but nothing is sorted here: :meth:`commit` holds the
        tuples committed since the last call as one block already in
        run-key order, and it is merged in after the run's equal keys.
        """
        pending = self._pending[sid]
        if len(pending[0]):
            self._runs[sid] = _merged(self._runs[sid], pending)
            self._pending[sid] = _NO_COLUMNS
        return self._runs[sid]

    # perf/spans.py wraps this method as its ``kernel.probe`` span, found
    # by the name ``probe`` through :mod:`repro.core.kernels`: keep the
    # name and the call boundary until a ``benchmark`` PR re-points it.
    def probe(
        self,
        sid: int,
        probe_ts: TsArray,
        probe_rkey: HashArray,
        probe_seq: SeqArray,
        collect_pairs: bool = False,
        key_order: npt.NDArray[np.intp] | None = None,
    ) -> ProbeResult:
        """Match *probe* tuples, given by their run keys
        (:func:`~repro.core.hashing.run_key`), against stream *sid*'s
        committed tuples.  Every two-stream match comes out of here.

        The probe tuples may come in any order.  The join module also
        passes *key_order*, the stable argsort of their run keys it
        sorts the block by to commit it, so that the run is searched
        with ascending keys (:func:`~repro.core.probe.key_ranges`); the
        rows are the same, in the same order.

        A committed tuple ``c`` matches probe tuple ``p`` iff ``c.key ==
        p.key`` and ``|c.ts - p.ts| <= window_seconds`` — the boundary
        is *inclusive* on both sides.  The match set is exact; the CPU
        *charged* for it is the caller's business (the block nested-loop
        scan of one mini-group's committed bytes).
        """
        rkey, ts, seq = self.sorted_run(sid)
        return probe_sorted(
            probe_ts,
            probe_rkey,
            probe_seq,
            rkey,
            ts,
            seq,
            self.geometry.window_seconds,
            collect_pairs=collect_pairs,
            key_order=key_order,
        )

    def flush_composites(
        self, sid: int, block: Columns, collect_pairs: bool = False
    ) -> CompositeResult:
        """n-way join: match one head *block* of stream *sid* against the
        other streams' runs, and commit it to its own.

        Only committed tuples of the other streams take part (the
        duplicate-elimination rule: a result is emitted by the last of
        its members to flush).  The two-stream join never comes here:
        the join module probes a whole pass at once through
        :meth:`probe`.
        """
        others = [(k, *self.sorted_run(k)) for k in self._sids() if k != sid]
        rkey, ts, seq = block
        result = probe_composites(
            sid,
            ts,
            rkey,
            seq,
            others,
            dict.fromkeys(self._sids(), self.geometry.window_seconds),
            collect_members=collect_pairs,
        )
        self.commit(sid, rkey, ts, seq)
        return result

    # -- expiry -------------------------------------------------------------------
    def count_before(self, cutoff_ts: float) -> int:
        """How many committed tuples :meth:`expire_before` would drop."""
        return sum(
            int(np.count_nonzero(self.sorted_run(sid)[1] < cutoff_ts))
            for sid in self._sids()
            if self._oldest[sid] < cutoff_ts
        )

    def expire_before(self, cutoff_ts: float) -> int:
        """Drop committed tuples older than *cutoff_ts*; returns the
        count dropped.  Head-block tuples never expire: they arrived
        within the current epoch, far less than a window ago."""
        dropped = 0
        for sid in self._sids():
            if self._oldest[sid] >= cutoff_ts:
                continue
            run = self.sorted_run(sid)
            live = run[1] >= cutoff_ts
            kept = t.cast(Columns, tuple(col[live] for col in run))
            dropped += len(live) - len(kept[1])
            self._runs[sid] = kept
            self._oldest[sid] = float(kept[1].min()) if len(kept[1]) else float("inf")
        if dropped:
            self.total_bytes = self.bytes_used
        return dropped

    # -- maintenance --------------------------------------------------------------
    def tuning_candidates(self) -> tuple[list[SizedBucket], list[SizedBucket]]:
        """``(oversized, undersized)`` buckets with their bytes, each
        computed once: those above ``2*theta`` that a split can actually
        subdivide, and those below ``theta`` that may have a buddy to
        merge with."""
        theta = self.geometry.theta_bytes
        tpb, block = self.geometry.tuples_per_block, self.geometry.block_bytes
        lo, hi = self.bounds()
        nbytes = block * (-(-(hi - lo + self._held_counts()) // tpb)).sum(axis=1)
        buckets = self._layout().buckets
        oversized = [
            (buckets[i], int(nbytes[i]))
            for i in np.flatnonzero(nbytes > 2 * theta).tolist()
            if self.directory.can_split(buckets[i]) and self._separable(lo[i], hi[i])
        ]
        undersized = [
            (buckets[i], int(nbytes[i]))
            for i in np.flatnonzero(nbytes < theta).tolist()
            if buckets[i].local_depth > 0
        ]
        return oversized, undersized

    def _separable(self, lo: CountTable, hi: CountTable) -> bool:
        """True when a mini-group whose committed tuples are rows
        ``[lo[s], hi[s])`` of each run holds more than one key.

        A group dominated by one hot join key has identical directory
        hashes throughout; splitting it only doubles the directory
        without reducing scan sizes, so the tuning policy skips it.  A
        slice is in run-key order: its first and last rows bound it.
        """
        ends = [
            (rkey[a], rkey[b - 1])
            for rkey, a, b in zip(
                (self.sorted_run(s)[0] for s in self._sids()), lo.tolist(), hi.tolist()
            )
            if b > a
        ]
        return bool(ends) and bool(min(e[0] for e in ends) != max(e[1] for e in ends))

    def oversized_buckets(self) -> list[Bucket]:
        return [b for b, _nbytes in self.tuning_candidates()[0]]

    def split_bucket(self, bucket: Bucket) -> int:
        """Split one oversized bucket; returns bytes redistributed.

        A relabelling: the children are the two halves of the bucket's
        run-key range, sized with one more bound."""
        committed, held = self._tally(_span(bucket.pattern, bucket.local_depth, 2))
        per_half = committed + held
        moved = self._block_bytes(per_half.sum(axis=1))
        self.directory.split(bucket)
        self._layout_cache = None
        # Each half rounds up to whole blocks on its own.
        self.total_bytes += self._block_bytes(per_half) - moved
        return moved

    def try_merge_bucket(self, bucket: Bucket) -> int:
        """Merge *bucket* with its buddy if the paper's conditions hold
        (same local depth, combined size < 2*theta, no head-block
        tuples).  Returns bytes touched, or 0 when no merge happened."""
        buddy = self.directory.buddy_of(bucket)
        if buddy is None:
            return 0
        depth = bucket.local_depth - 1
        pattern = bucket.pattern & ((1 << depth) - 1)
        # The two halves of the merged range are the bucket and its buddy.
        committed, held = self._tally(_span(pattern, depth, 2))
        combined = self._block_bytes(committed + held)
        if combined >= 2 * self.geometry.theta_bytes or held.any():
            return 0
        self.directory.merge(bucket)
        self._layout_cache = None
        self.total_bytes += self._block_bytes(committed.sum(axis=1)) - combined
        return combined

    # -- state movement ---------------------------------------------------------------
    def take_held(self) -> list[Columns]:
        """Hand the installed head-block tuples to a pass (they stay in
        :attr:`total_bytes`: the pass keeps them in head blocks)."""
        held = self.held
        self.held = [_NO_COLUMNS for _ in self._sids()]
        return held

    def extract_state(self) -> PartitionGroupState:
        """Drain this group's entire window state for migration."""
        state = self.snapshot_state()
        self._reset()
        return state

    def snapshot_state(self) -> PartitionGroupState:
        """Copy this group's window state without draining it — the
        owner side of a replication checkpoint.  Each mini-group's slice
        is cut out of the run and put in timestamp order."""
        lo, hi = self.bounds()
        runs = [self.sorted_run(s) for s in self._sids()]
        held_at = [self.bucket_of(h[0]) for h in self.held]
        groups = []
        for i, bucket in enumerate(self._layout().buckets):
            streams = []
            for sid, run in enumerate(runs):
                cols = tuple(col[lo[i, sid] : hi[i, sid]] for col in run)
                order = np.argsort(cols[1], kind="stable")
                committed = t.cast(Columns, tuple(col[order] for col in cols))
                fresh = t.cast(Columns, tuple(col[held_at[sid] == i] for col in self.held[sid]))
                streams.append((_batch(sid, committed), _batch(sid, fresh)))
            groups.append(GroupState(bucket.pattern, bucket.local_depth, tuple(streams)))
        return PartitionGroupState(self.pid, self.directory.global_depth, tuple(groups))

    def install_state(self, state: PartitionGroupState) -> None:
        """Rebuild the fine-tuned directory from a shipped state blob."""
        if self.n_tuples:
            raise ValueError(
                f"installing state into non-empty partition-group {self.pid}"
            )
        directory = ExtendibleDirectory()
        for group in state.groups:
            # Grow the directory until the recorded local depth fits,
            # splitting along the recorded pattern's bits.
            bucket = directory.bucket_for(group.pattern)
            while bucket.local_depth < group.local_depth:
                directory.split(bucket)
                bucket = directory.bucket_for(group.pattern)
        # Attach the observability hook only after the rebuild: replayed
        # doublings are structure restoration, not new tuning activity.
        directory.on_double = self._double_hook()
        self.directory = directory
        self._layout_cache = None
        for sid in self._sids():
            committed = TupleBatch.concat([g.streams[sid][0] for g in state.groups])
            self.commit(sid, run_key(committed.key), committed.ts, committed.seq)
            fresh = TupleBatch.concat([g.streams[sid][1] for g in state.groups])
            self.held[sid] = (run_key(fresh.key), fresh.ts, fresh.seq)
        # The runs are built here (one sort per stream), so the first
        # probe after a migration or crash restore only merges, as on a
        # node that saw every commit live.
        self.total_bytes = self.bytes_used


def _merged(old: Columns, new: Columns) -> Columns:
    """Two blocks in run-key order as one, each tuple of *new* after the
    tuples of *old* with its key: where a stable sort of *old* followed
    by *new* would put it."""
    if not len(old[0]):
        return new
    slots = np.searchsorted(old[0], new[0], side="right")
    slots += np.arange(len(slots))
    is_old = np.ones(len(old[0]) + len(slots), dtype=np.bool_)
    is_old[slots] = False
    rkey, ts, seq = (_spliced(o, n, is_old, slots) for o, n in zip(old, new))
    return rkey, ts, seq


def _spliced(
    old: npt.NDArray[t.Any],
    new: npt.NDArray[t.Any],
    is_old: npt.NDArray[np.bool_],
    slots: npt.NDArray[np.intp],
) -> npt.NDArray[t.Any]:
    """*old* and *new* interleaved: *new* at *slots*, *old* elsewhere."""
    out = np.empty(len(is_old), old.dtype)
    out[is_old] = old
    out[slots] = new
    return out
