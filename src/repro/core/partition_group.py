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
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.core.exthash import Bucket, ExtendibleDirectory
from repro.core.hashing import directory_hash
from repro.core.nway import CompositeResult, probe_composites
from repro.core.probe import ProbeResult
from repro.core.window import StreamWindow
from repro.data.tuples import TupleBatch


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
        tb = self.geometry.tuple_bytes
        return sum(w.bytes_used(tb) for w in self.windows)

    @property
    def has_fresh(self) -> bool:
        return any(w.n_fresh for w in self.windows)

    # -- join-protocol operations -------------------------------------------
    def flush_stream(self, sid: int, collect_pairs: bool = False) -> ProbeResult:
        """Flush stream *sid*'s fresh head block: join it against the
        other streams' committed windows and commit it.

        Two streams use the pairwise :meth:`StreamWindow.flush`; more
        use the n-way composite prober (its :class:`CompositeResult` is
        normalized to a :class:`ProbeResult` so callers see a single
        return type).
        In both cases only committed tuples of the other streams
        participate (the duplicate-elimination rule: a result is
        emitted by the last of its members to flush).
        """
        window = self.windows[sid]
        if self.geometry.n_streams == 2:
            return window.flush(
                self.windows[1 - sid],
                self.geometry.window_seconds,
                collect_pairs=collect_pairs,
            )
        ts, key, seq = window.fresh_view()
        others = []
        for k, other in enumerate(self.windows):
            if k == sid:
                continue
            s_key, s_ts, s_seq = other.sorted_view(need_seq=collect_pairs)
            others.append((k, s_key, s_ts, s_seq))
        result: CompositeResult = probe_composites(
            sid,
            ts,
            key,
            seq,
            others,
            {k: self.geometry.window_seconds for k in range(len(self.windows))},
            collect_members=collect_pairs,
        )
        window.commit_fresh()
        return ProbeResult(result.n_composites, result.newest_ts, result.members)

    def flush_all(self, collect_pairs: bool = False) -> list:
        """Flush every stream's fresh head block, in stream order."""
        results = []
        for sid, window in enumerate(self.windows):
            if window.n_fresh:
                results.append(self.flush_stream(sid, collect_pairs))
        return results

    def expire_before(self, cutoff_ts: float) -> int:
        return sum(w.expire_before(cutoff_ts) for w in self.windows)

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

    def _new_directory(self) -> ExtendibleDirectory[MiniGroup]:
        hook = None
        if self._on_double is not None:
            hook = lambda depth: self._on_double(self.pid, depth)  # noqa: E731
        return ExtendibleDirectory(MiniGroup(self.geometry), on_double=hook)

    # -- sizes --------------------------------------------------------------
    @property
    def n_tuples(self) -> int:
        return sum(b.payload.n_tuples for b in self.directory.buckets())

    @property
    def bytes_used(self) -> int:
        return sum(b.payload.bytes_used for b in self.directory.buckets())

    @property
    def n_mini_groups(self) -> int:
        return self.directory.n_buckets

    # -- routing --------------------------------------------------------------
    def route(self, keys: np.ndarray) -> tuple[np.ndarray, dict[int, Bucket]]:
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

    # -- maintenance --------------------------------------------------------------
    def oversized_buckets(self) -> list[Bucket[MiniGroup]]:
        limit = 2 * self.geometry.theta_bytes
        return [
            b
            for b in self.directory.buckets()
            if b.payload.bytes_used > limit
            and self.directory.can_split(b)
            and b.payload.can_subdivide(b.local_depth)
        ]

    def undersized_buckets(self) -> list[Bucket[MiniGroup]]:
        return [
            b
            for b in self.directory.buckets()
            if b.payload.bytes_used < self.geometry.theta_bytes
            and b.local_depth > 0
        ]

    def split_bucket(self, bucket: Bucket[MiniGroup]) -> int:
        """Split one oversized bucket; returns bytes redistributed."""
        moved = bucket.payload.bytes_used
        self.directory.split(bucket, lambda mg, bit: mg.split_by_bit(bit))
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
        self.directory.merge(bucket, MiniGroup.merged)
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
                if len(fresh):
                    window.append_fresh(fresh.ts, fresh.key, fresh.seq)
        # Attach the observability hook only after the rebuild: replayed
        # doublings are structure restoration, not new tuning activity.
        if self._on_double is not None:
            directory.on_double = lambda depth: self._on_double(self.pid, depth)
        self.directory = directory
        # Sorted runs are never serialized: the blob carries window
        # contents only, so build each run now (one full sort) and the
        # first probe after a migration or crash restore only merges,
        # as on a node that saw every commit live.
        for bucket in directory.buckets():
            for window in bucket.payload.windows:
                window.sorted_view()
