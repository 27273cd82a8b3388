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

Mini-groups bound what a probe is *charged* for scanning.  What a probe
*searches* is one key-sorted **run** per stream, kept here over the
committed tuples of all mini-groups together
(:meth:`PartitionGroup.probe`).  The directory splits on bits of
``g(key)``, so mini-groups are disjoint in key space and probing the
group's run returns exactly the rows a probe of the one mini-group a
key routes to would.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.core.exthash import Bucket, ExtendibleDirectory
from repro.core.hashing import directory_hash
from repro.core.nway import CompositeResult, probe_composites
from repro.core.probe import ProbeResult, probe_sorted
from repro.core.window import StreamWindow
from repro.data.blocks import n_blocks
from repro.data.tuples import (
    KEY_DTYPE,
    SEQ_DTYPE,
    TS_DTYPE,
    KeyArray,
    SeqArray,
    TsArray,
    TupleBatch,
)

#: One stream's tuples as ``(key, ts, seq)`` columns.
Columns = tuple[KeyArray, TsArray, SeqArray]


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


class MiniGroup:
    """A mini-partition-group: one window per joining stream."""

    __slots__ = ("geometry", "windows")

    def __init__(self, geometry: JoinGeometry) -> None:
        self.geometry = geometry
        self.windows = tuple(
            StreamWindow(sid, geometry.tuples_per_block, geometry.block_bytes)
            for sid in range(geometry.n_streams)
        )

    # -- sizes ----------------------------------------------------------
    @property
    def n_tuples(self) -> int:
        return sum(w.n_tuples for w in self.windows)

    @property
    def bytes_used(self) -> int:
        return sum(w.bytes_used for w in self.windows)

    @property
    def has_fresh(self) -> bool:
        return any(w.n_fresh for w in self.windows)

    # -- join-protocol operations -------------------------------------------
    def flush_stream(
        self,
        sid: int,
        others: t.Sequence[tuple[int, KeyArray, TsArray, SeqArray]],
        collect_pairs: bool = False,
    ) -> CompositeResult:
        """n-way join: match stream *sid*'s fresh head block against the
        *others* — per other stream ``(stream id, key, ts, seq)``, its
        committed tuples sorted by key — and commit it.

        Only committed tuples of the other streams take part (the
        duplicate-elimination rule: a result is emitted by the last of
        its members to flush).  The two-stream join never comes here:
        the join module probes a whole pass at once through
        :meth:`PartitionGroup.probe`.
        """
        window = self.windows[sid]
        ts, key, seq = window.fresh_view()
        result = probe_composites(
            sid,
            ts,
            key,
            seq,
            others,
            {k: self.geometry.window_seconds for k in range(len(self.windows))},
            collect_members=collect_pairs,
        )
        window.commit_fresh()
        return result

    # -- fine-tuning operations ---------------------------------------------------
    def split_by_bit(self, bit: int) -> tuple["MiniGroup", "MiniGroup"]:
        """Redistribute tuples by bit *bit* of the directory hash.

        Requires both fresh head blocks to be empty (the join module
        flushes them first); committed tuples keep temporal order
        because mask selection is stable.
        """
        if self.has_fresh:
            raise ValueError("cannot split a mini-group with fresh tuples")
        low, high = MiniGroup(self.geometry), MiniGroup(self.geometry)
        bitmask = np.uint64(1 << bit)
        for sid, window in enumerate(self.windows):
            soa = window.committed
            ts, key, seq = soa.ts, soa.key, soa.seq
            high_side = (directory_hash(key) & bitmask).astype(bool)
            for target, mask in ((low, ~high_side), (high, high_side)):
                target.windows[sid].committed.append(ts[mask], key[mask], seq[mask])
        return low, high

    def can_subdivide(self, bit: int) -> bool:
        """True when splitting by directory-hash bits >= *bit* can
        actually separate this group's tuples.

        A group dominated by one hot join key has identical directory
        hashes throughout; splitting it only doubles the directory
        without reducing scan sizes, so the tuning policy skips it.
        """
        keys = [w.committed.key for w in self.windows if len(w.committed)]
        if not keys:
            return False
        suffixes = [directory_hash(k) >> np.uint64(bit) for k in keys]
        lo = min(int(s.min()) for s in suffixes)
        hi = max(int(s.max()) for s in suffixes)
        return lo != hi

    @staticmethod
    def merged(a: "MiniGroup", b: "MiniGroup") -> "MiniGroup":
        """Merge two buddy mini-groups, restoring temporal order."""
        if a.has_fresh or b.has_fresh:
            raise ValueError("cannot merge mini-groups with fresh tuples")
        out = MiniGroup(a.geometry)
        for sid in range(a.geometry.n_streams):
            sa, sb = a.windows[sid].committed, b.windows[sid].committed
            ts = np.concatenate((sa.ts, sb.ts))
            key = np.concatenate((sa.key, sb.key))
            seq = np.concatenate((sa.seq, sb.seq))
            order = np.argsort(ts, kind="stable")
            out.windows[sid].committed.append(ts[order], key[order], seq[order])
        return out


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


#: A directory bucket with its mini-group's ``bytes_used``.
SizedBucket = tuple[Bucket[MiniGroup], int]


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
        self.directory: ExtendibleDirectory[MiniGroup] = self._new_directory()
        #: :attr:`bytes_used`, kept up to date: every operation here that
        #: changes a window's tuple count adds its block-granular
        #: difference, so reading the total walks nothing.
        self.total_bytes = 0
        #: Per stream, the committed tuples of every mini-group in
        #: stable key order (equal keys in commit order).  Derived
        #: state: never serialized, rebuilt by :meth:`install_state`,
        #: untouched by splits and merges (which only re-label it).
        self._runs: list[Columns] = []
        #: Per stream, commits not yet spliced into its run.
        self._pending: list[list[Columns]] = []
        self._clear_runs()

    def _clear_runs(self) -> None:
        empty = (np.empty(0, KEY_DTYPE), np.empty(0, TS_DTYPE), np.empty(0, SEQ_DTYPE))
        self._runs = [empty for _ in range(self.geometry.n_streams)]
        self._pending = [[] for _ in range(self.geometry.n_streams)]

    def _double_hook(self) -> t.Callable[[int], None] | None:
        on_double = self._on_double
        if on_double is None:
            return None
        return lambda depth: on_double(self.pid, depth)

    def _new_directory(self) -> ExtendibleDirectory[MiniGroup]:
        return ExtendibleDirectory(
            MiniGroup(self.geometry), on_double=self._double_hook()
        )

    # -- sizes --------------------------------------------------------------
    @property
    def n_tuples(self) -> int:
        return sum(b.payload.n_tuples for b in self.directory.buckets())

    @property
    def bytes_used(self) -> int:
        """Block-granular bytes of every window, by walking them all
        (:attr:`total_bytes` is the same number for free)."""
        return sum(b.payload.bytes_used for b in self.directory.buckets())

    @property
    def n_mini_groups(self) -> int:
        return self.directory.n_buckets

    # -- routing --------------------------------------------------------------
    def route(
        self, keys: KeyArray
    ) -> tuple[npt.NDArray[np.int64], dict[int, Bucket[MiniGroup]]]:
        """Bucket assignment for *keys*.

        Returns ``(patterns, buckets)`` where ``patterns[i]`` is the
        bucket *pattern* of key ``i`` and ``buckets`` maps pattern ->
        bucket.  Several directory slots can point to one bucket (when
        its local depth is below the global depth), so grouping must be
        by bucket pattern, not by raw slot — otherwise a mini-group
        would be fed multiple interleaved segments of the same batch,
        breaking temporal order.
        """
        directory = self.directory
        gvals = directory_hash(keys)
        mask = np.uint64((1 << directory.global_depth) - 1)
        slots = (gvals & mask).astype(np.int64)
        patterns = directory.pattern_table()[slots]
        return patterns, {
            int(p): directory.slots[int(p)] for p in np.unique(patterns)
        }

    # -- admission ------------------------------------------------------------
    def admit(
        self,
        window: StreamWindow,
        ts: TsArray,
        key: KeyArray,
        seq: SeqArray,
        n_commit: int = 0,
    ) -> None:
        """:meth:`StreamWindow.absorb` on one of this group's windows,
        with :attr:`total_bytes` kept in step."""
        before = window.n_tuples
        window.absorb(ts, key, seq, n_commit)
        self.total_bytes += self._bytes_between(before, before + len(ts))

    def _bytes_between(self, fewer: int, more: int) -> int:
        """Block-granular bytes a window gains by growing from *fewer*
        tuples to *more* (what it frees by shrinking back)."""
        tpb = self.geometry.tuples_per_block
        return self.geometry.block_bytes * (n_blocks(more, tpb) - n_blocks(fewer, tpb))

    # -- the key-sorted runs ----------------------------------------------------
    def commit(self, sid: int, ts: TsArray, key: KeyArray, seq: SeqArray) -> None:
        """Add tuples to stream *sid*'s run.

        The caller also commits them to the window of the mini-group
        they route to — or, inside one join-module pass, is about to.
        Buffered here and spliced in by the next :meth:`sorted_run`.
        The arrays are kept: they must not be views of a head block.
        """
        if len(key):
            self._pending[sid].append((key, ts, seq))

    def sorted_run(self, sid: int) -> Columns:
        """Stream *sid*'s committed tuples of every mini-group, sorted
        by key: ``(key, ts, seq)``, valid until the next mutation.

        The order is exactly a stable argsort of the tuples in commit
        order, but the run is never re-sorted: tuples committed since
        the last call are sorted on their own and merged in after their
        equal keys.  Equal keys share a mini-group, so their order is
        also their order in that mini-group's window.
        """
        pending = self._pending[sid]
        if pending:
            new = tuple(np.concatenate(cols) for cols in zip(*pending))
            pending.clear()
            order = np.argsort(new[0], kind="stable")
            new = tuple(col[order] for col in new)
            run = self._runs[sid]
            if len(run[0]):
                # side="right": a new tuple lands after the old tuples
                # of its key, where the stable sort would put it.
                slots = np.searchsorted(run[0], new[0], side="right")
                slots += np.arange(len(order))
                is_old = np.ones(len(run[0]) + len(order), dtype=np.bool_)
                is_old[slots] = False
                new = tuple(_spliced(o, n, is_old, slots) for o, n in zip(run, new))
            self._runs[sid] = t.cast(Columns, new)
        return self._runs[sid]

    # perf/spans.py wraps this method as its ``kernel.probe`` span, found
    # by the name ``probe`` through :mod:`repro.core.kernels`: keep the
    # name and the call boundary until a ``benchmark`` PR re-points it.
    def probe(
        self,
        sid: int,
        probe_ts: TsArray,
        probe_key: KeyArray,
        probe_seq: SeqArray,
        collect_pairs: bool = False,
    ) -> ProbeResult:
        """Match *probe* tuples against stream *sid*'s committed tuples.

        A committed tuple ``c`` matches probe tuple ``p`` iff ``c.key ==
        p.key`` and ``|c.ts - p.ts| <= window_seconds`` — the boundary
        is *inclusive* on both sides.  The match set is exact; the CPU
        *charged* for it is the caller's business (the block nested-loop
        scan of one mini-group's ``committed_bytes``).
        """
        key, ts, seq = self.sorted_run(sid)
        return probe_sorted(
            probe_ts,
            probe_key,
            probe_seq,
            key,
            ts,
            seq,
            self.geometry.window_seconds,
            collect_pairs=collect_pairs,
        )

    def flush_composites(
        self, mini: MiniGroup, sid: int, collect_pairs: bool = False
    ) -> CompositeResult:
        """n-way join: flush stream *sid*'s head block of *mini* against
        the other streams' runs, and add it to its own."""
        others = [
            (k, *self.sorted_run(k))
            for k in range(self.geometry.n_streams)
            if k != sid
        ]
        ts, key, seq = mini.windows[sid].fresh_view()
        self.commit(sid, ts.copy(), key.copy(), seq.copy())
        return mini.flush_stream(sid, others, collect_pairs)

    def expire_before(self, cutoff_ts: float) -> int:
        """Drop committed tuples older than *cutoff_ts* from every
        window, and from the runs; returns the count dropped."""
        dropped = [0] * self.geometry.n_streams
        for bucket in self.directory.buckets():
            for sid, window in enumerate(bucket.payload.windows):
                n = window.expire_before(cutoff_ts)
                if n:
                    dropped[sid] += n
                    left = window.n_tuples
                    self.total_bytes -= self._bytes_between(left, left + n)
        for sid, n in enumerate(dropped):
            if n:
                run = self.sorted_run(sid)
                live = run[1] >= cutoff_ts
                self._runs[sid] = t.cast(Columns, tuple(col[live] for col in run))
        return sum(dropped)

    # -- maintenance --------------------------------------------------------------
    def tuning_candidates(self) -> tuple[list[SizedBucket], list[SizedBucket]]:
        """``(oversized, undersized)`` buckets with their ``bytes_used``,
        each computed once: those above ``2*theta`` that a split can
        actually subdivide, and those below ``theta`` that may have a
        buddy to merge with."""
        theta = self.geometry.theta_bytes
        oversized: list[SizedBucket] = []
        undersized: list[SizedBucket] = []
        for b in self.directory.buckets():
            nbytes = b.payload.bytes_used
            if nbytes > 2 * theta:
                if self.directory.can_split(b) and b.payload.can_subdivide(
                    b.local_depth
                ):
                    oversized.append((b, nbytes))
            elif nbytes < theta and b.local_depth > 0:
                undersized.append((b, nbytes))
        return oversized, undersized

    def oversized_buckets(self) -> list[Bucket[MiniGroup]]:
        return [b for b, _nbytes in self.tuning_candidates()[0]]

    def split_bucket(self, bucket: Bucket[MiniGroup]) -> int:
        """Split one oversized bucket; returns bytes redistributed."""
        moved = bucket.payload.bytes_used
        low, high = self.directory.split(
            bucket, lambda mg, bit: mg.split_by_bit(bit)
        )
        # Each half rounds up to whole blocks on its own.
        self.total_bytes += low.payload.bytes_used + high.payload.bytes_used - moved
        return moved

    def try_merge_bucket(self, bucket: Bucket[MiniGroup]) -> int:
        """Merge *bucket* with its buddy if the paper's conditions hold
        (same local depth, combined size < 2*theta).  Returns bytes
        touched, or 0 when no merge happened."""
        buddy = self.directory.buddy_of(bucket)
        if buddy is None:
            return 0
        combined = bucket.payload.bytes_used + buddy.payload.bytes_used
        if combined >= 2 * self.geometry.theta_bytes:
            return 0
        if bucket.payload.has_fresh or buddy.payload.has_fresh:
            return 0
        merged = self.directory.merge(bucket, MiniGroup.merged)
        assert merged is not None  # the buddy was just looked up
        self.total_bytes += merged.payload.bytes_used - combined
        return combined

    # -- state movement ---------------------------------------------------------------
    def extract_state(self) -> PartitionGroupState:
        """Drain this group's entire window state for migration."""
        global_depth = self.directory.global_depth
        groups = []
        for bucket in self.directory.buckets():
            streams = tuple(
                w.extract_all() for w in bucket.payload.windows
            )
            groups.append(
                GroupState(bucket.pattern, bucket.local_depth, streams)
            )
        # Reset to a pristine directory.
        self.directory = self._new_directory()
        self.total_bytes = 0
        self._clear_runs()
        return PartitionGroupState(self.pid, global_depth, tuple(groups))

    def snapshot_state(self) -> PartitionGroupState:
        """Copy this group's window state without draining it — the
        owner side of a replication checkpoint."""
        groups = []
        for bucket in self.directory.buckets():
            streams = tuple(
                w.snapshot_all() for w in bucket.payload.windows
            )
            groups.append(
                GroupState(bucket.pattern, bucket.local_depth, streams)
            )
        return PartitionGroupState(
            self.pid, self.directory.global_depth, tuple(groups)
        )

    def install_state(self, state: PartitionGroupState) -> None:
        """Rebuild the fine-tuned directory from a shipped state blob."""
        if self.n_tuples:
            raise ValueError(
                f"installing state into non-empty partition-group {self.pid}"
            )
        directory: ExtendibleDirectory[MiniGroup] = ExtendibleDirectory(
            MiniGroup(self.geometry)
        )
        for group in state.groups:
            # Grow the directory until the recorded local depth fits,
            # splitting along the recorded pattern's bits.
            bucket = directory.bucket_for(group.pattern)
            while bucket.local_depth < group.local_depth:
                directory.split(bucket, lambda mg, bit: mg.split_by_bit(bit))
                bucket = directory.bucket_for(group.pattern)
            mini = bucket.payload
            for sid, (committed, fresh) in enumerate(group.streams):
                window = mini.windows[sid]
                window.install_committed(committed)
                self.commit(sid, committed.ts, committed.key, committed.seq)
                if len(fresh):
                    window.append_fresh(fresh.ts, fresh.key, fresh.seq)
        # Attach the observability hook only after the rebuild: replayed
        # doublings are structure restoration, not new tuning activity.
        directory.on_double = self._double_hook()
        self.directory = directory
        self.total_bytes = self.bytes_used
        # The runs are never serialized: the blob carries window contents
        # only, so build each now (one full sort per stream) and the
        # first probe after a migration or crash restore only merges,
        # as on a node that saw every commit live.
        for sid in range(self.geometry.n_streams):
            self.sorted_run(sid)


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
