"""Partition-groups, mini-partition-groups and a slave's window store
(Section IV-C/IV-D).

A **partition-group** is the unit of load movement between slaves: one
of the ``npart`` hash partitions of the stream pair, holding both
streams' window data for that partition.  Inside a partition-group,
**fine tuning** keeps the data subdivided into *mini-partition-groups*
via an extendible-hash directory so that each probe scans a bounded
amount of window data: a mini-group larger than ``2*theta`` bytes is
split, and one smaller than ``theta`` is merged with its buddy when the
combined size stays below ``2*theta``.  With fine tuning disabled the
partition-group is a single mini-group of unbounded size — the paper's
"no fine-tuning" comparison (Figures 7–10).

**One store per slave.**  The committed tuples of every partition-group
a slave owns live in one :class:`WindowStore`: per stream one **run** of
rows ``(run key, ts, seq, pid)`` sorted by the run key ``rev(g(key))``
— the directory hash, bits reversed — equal keys in commit order.  ``g``
is a bijection and a key lives in one partition, so a probe of the store
returns for each probe tuple exactly the rows, in the order, that a run
of its own partition-group alone would.  A row's seq and pid share one
word, ``seq << b | pid``: commits and expiries copy the runs, and a
fourth column would add a third to that.  A standalone
:class:`PartitionGroup` (a baseline's, a test's) is a store of one group.

**A mini-group is a range.**  A bucket with pattern ``p`` and local
depth ``d`` holds the keys whose ``d`` low bits of ``g`` equal ``p``:
the run keys whose ``d`` top bits are ``p`` reversed, one range, shared
with the other groups' rows.  A split counts its group's rows in half
the range, a merge adds two counts; no tuple is copied.  A group keeps
its committed and head-block counts per mini-group and stream
(:meth:`PartitionGroup.counts`), moved by ``bincount`` at admission,
expiry, split, merge and move, so sizes, costs and tuning read tables.
Mini-groups bound what a probe is *charged* for scanning (the block
nested-loop scan of its mini-group's committed blocks).
"""

from __future__ import annotations

import functools
import typing as t

import numpy as np
import numpy.typing as npt

from repro.core.exthash import Bucket, ExtendibleDirectory
from repro.core.hashing import HashArray, bit_reverse, directory_hash, key_of, run_key
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

#: One stream's tuples as ``(run key, ts, seq)`` columns (in a store's
#: runs, ``seq`` is the packed seq and pid).
Columns = tuple[HashArray, TsArray, SeqArray]
#: Per mini-group (directory bucket order) and stream, a tuple count.
CountTable = npt.NDArray[np.int64]
Indexes = npt.NDArray[np.intp]
#: ``label(gi, rkey)``: see :func:`labeller`.
Labeller = t.Callable[[Indexes, HashArray], Indexes]

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

    #: The buckets in directory order (ascending pattern), their local
    #: depths, the global depth and, for each value of that many top
    #: bits of a run key, the index in ``buckets`` of its bucket.
    buckets: list[Bucket]
    depths: CountTable
    depth: int
    by_top: Indexes


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


@functools.lru_cache(maxsize=None)
def _slots_by_top(depth: int) -> Indexes:
    """For each value of the *depth* top bits of a run key, its slot in
    a directory of that depth: the same bits, reversed."""
    tops = np.arange(1 << depth, dtype=np.uint64)
    slots = (bit_reverse(tops) >> np.uint64(64 - depth)) if depth else tops
    return slots.astype(np.intp)


def _top(rkey: HashArray, shift: np.uint64 | npt.NDArray[np.uint64]) -> Indexes:
    """Each run key's top ``63 - shift`` bits (``shift`` may be 63)."""
    top: Indexes = ((rkey >> np.uint64(1)) >> shift).astype(np.intp)
    return top


def _batch(sid: int, cols: Columns) -> TupleBatch:
    rkey, ts, seq = cols
    return TupleBatch(
        ts, key_of(bit_reverse(rkey)), seq, np.full(len(ts), sid, dtype=np.uint8)
    )


def labeller(groups: t.Sequence[PartitionGroup]) -> tuple[Indexes, CountTable, Labeller]:
    """``(first, depths, label)`` over the mini-groups of all *groups*,
    group by group, each group's in directory order: group ``i``'s are
    ``first[i]`` to ``first[i + 1]``, ``depths`` are their local depths,
    and ``label(gi, rkey)`` is where the mini-group of a tuple of group
    ``gi`` with run key ``rkey`` is."""
    layouts = [group._layout() for group in groups]
    first = np.cumsum([0] + [len(lay.buckets) for lay in layouts])
    starts = np.cumsum([0] + [len(lay.by_top) for lay in layouts])
    table = np.concatenate([lay.by_top + at for lay, at in zip(layouts, first)])
    shift = 63 - np.array([lay.depth for lay in layouts], dtype=np.uint64)

    def label(gi: Indexes, rkey: HashArray) -> Indexes:
        at: Indexes = table[starts[gi] + _top(rkey, shift[gi])]
        return at

    return first, np.concatenate([lay.depths for lay in layouts]), label


def group_bytes(geometry: JoinGeometry, first: Indexes, n: CountTable) -> CountTable:
    """Per group — its mini-groups ``first[i]`` to ``first[i + 1]`` —
    block-granular bytes of windows of *n* tuples."""
    blocks = (-(-n // geometry.tuples_per_block)).sum(axis=1)
    nbytes: CountTable = np.add.reduceat(blocks, first[:-1]) * geometry.block_bytes
    return nbytes


def gather_tables(groups: t.Sequence[PartitionGroup]) -> tuple[CountTable, CountTable]:
    """The committed and head tables of *groups*, stacked group by
    group; from here on each group's own are views of them."""
    committed = np.concatenate([group.committed for group in groups])
    head = np.concatenate([group.head for group in groups])
    at = 0
    for group in groups:
        n = len(group.committed)
        group.committed, group.head = committed[at : at + n], head[at : at + n]
        at += n
    return committed, head


class WindowStore:
    """The committed tuples of every partition-group of one slave."""

    def __init__(self, geometry: JoinGeometry, npart: int) -> None:
        self.geometry = geometry
        #: The low bits of a packed seq, which hold a pid below *npart*.
        self.pid_bits = max(npart - 1, 0).bit_length()
        self._pid_mask = (1 << self.pid_bits) - 1
        #: The groups whose tuples the store holds, by pid.
        self.groups: dict[int, PartitionGroup] = {}
        n = geometry.n_streams
        #: Per stream, the committed rows in run-key order ...
        self._runs: list[Columns] = [_NO_COLUMNS] * n
        #: ... those not spliced in yet, as one run-key-ordered block ...
        self._pending: list[Columns] = [_NO_COLUMNS] * n
        #: ... and the oldest timestamp of either (``inf``: none), so
        #: that an expiry that drops nothing reads nothing.
        self._oldest = [float("inf")] * n

    def commit(
        self,
        sid: int,
        rkey: HashArray,
        ts: TsArray,
        seq: SeqArray,
        pid: int | npt.NDArray[np.integer[t.Any]],
    ) -> None:
        """Add tuples of groups *pid* to stream *sid*'s run (whoever
        commits them moves their groups' tables).  Blocks the join module
        sorted to probe with come in run-key order; others (installed
        state, n-way flushes) are stable-sorted here.  They wait, merged
        after earlier commits of their keys, for :meth:`sorted_run`.
        The arrays are kept: they must not be views of changing storage.
        """
        if not len(ts):
            return
        new: Columns = (rkey, ts, (seq << self.pid_bits) | pid)
        if (rkey[1:] < rkey[:-1]).any():
            order = np.argsort(rkey, kind="stable")
            new = (rkey[order], ts[order], new[2][order])
        self._pending[sid] = _merged(self._pending[sid], new)
        self._oldest[sid] = min(self._oldest[sid], float(ts.min()))

    def sorted_run(self, sid: int) -> Columns:
        """Stream *sid*'s rows ``(run key, ts, packed seq)`` in run-key
        order, equal keys in commit order, valid until the next
        mutation; the pending block is merged in, nothing sorted."""
        pending = self._pending[sid]
        if len(pending[0]):
            self._runs[sid] = _merged(self._runs[sid], pending)
            self._pending[sid] = _NO_COLUMNS
        return self._runs[sid]

    def probe(
        self,
        sid: int,
        probe_ts: TsArray,
        probe_rkey: HashArray,
        probe_seq: SeqArray,
        collect_pairs: bool = False,
        key_order: Indexes | None = None,
    ) -> ProbeResult:
        """Match probe tuples of any group, given by their run keys,
        against stream *sid*'s committed ones: ``c`` matches ``p`` iff
        ``c.key == p.key`` and ``|c.ts - p.ts| <= window_seconds``.
        Every two-stream match comes out of here.  *key_order* sorts the
        probe keys, so the run is searched in ascending order
        (:func:`~repro.core.probe.key_ranges`); the rows are the same."""
        rkey, ts, packed = self.sorted_run(sid)
        result = probe_sorted(
            probe_ts, probe_rkey, probe_seq, rkey, ts, packed,
            self.geometry.window_seconds, collect_pairs, key_order,
        )
        if result.pairs is not None:
            result.pairs[:, 1] >>= self.pid_bits
        return result

    def flush_composites(
        self, sid: int, block: Columns, pid: int, collect_pairs: bool = False
    ) -> CompositeResult:
        """n-way join: match one head *block* of stream *sid*, of group
        *pid*, against the other streams' runs, and commit it to its own.
        Only committed tuples of the other streams take part (a result
        is emitted by the last of its members to flush)."""
        sids = range(self.geometry.n_streams)
        others = [(k, *self.sorted_run(k)) for k in sids if k != sid]
        rkey, ts, seq = block
        windows = dict.fromkeys(sids, self.geometry.window_seconds)
        result = probe_composites(sid, ts, rkey, seq, others, windows, collect_pairs)
        if result.members is not None:
            result.members[:, [k for k in sids if k != sid]] >>= self.pid_bits
        self.commit(sid, rkey, ts, seq, pid)
        return result

    def rows_of(self, pid: int, sid: int) -> Columns:
        """Group *pid*'s tuples of stream *sid*, in run-key order."""
        rkey, ts, packed = self.sorted_run(sid)
        mine = (packed & self._pid_mask) == pid
        return rkey[mine], ts[mine], packed[mine] >> self.pid_bits

    def keys_of(self, pid: int, sid: int, lo: int, hi: int) -> HashArray:
        """Group *pid*'s run keys of stream *sid* in ``[lo, hi)``."""
        rkey, _ts, packed = self.sorted_run(sid)
        a, b = (
            len(rkey) if key >= _END else int(np.searchsorted(rkey, np.uint64(key)))
            for key in (lo, hi)
        )
        mine: HashArray = rkey[a:b][(packed[a:b] & self._pid_mask) == pid]
        return mine

    def drop(self, pid: int) -> None:
        """Remove group *pid*'s rows (its tables are its own business)."""
        for sid in range(self.geometry.n_streams):
            self._keep(sid, (self.sorted_run(sid)[2] & self._pid_mask) != pid)

    def _keep(self, sid: int, live: npt.NDArray[np.bool_]) -> None:
        kept = t.cast(Columns, tuple(col[live] for col in self._runs[sid]))
        self._runs[sid] = kept
        self._oldest[sid] = float(kept[1].min()) if len(kept[1]) else float("inf")

    def count_before(self, cutoff_ts: float) -> int:
        """How many committed tuples :meth:`expire_before` would drop."""
        return sum(
            int(np.count_nonzero(self.sorted_run(sid)[1] < cutoff_ts))
            for sid, oldest in enumerate(self._oldest)
            if oldest < cutoff_ts
        )

    def expire_before(self, cutoff_ts: float) -> int:
        """Drop committed tuples older than *cutoff_ts*, off their
        groups' tables too; returns the count dropped.  Head-block
        tuples never expire: they arrived within the current epoch."""
        gone = []
        for sid, oldest in enumerate(self._oldest):
            if oldest < cutoff_ts:
                rkey, ts, packed = self.sorted_run(sid)
                dead = ts < cutoff_ts
                at = np.flatnonzero(dead)
                gone.append((sid, packed[at] & self._pid_mask, rkey[at]))
                self._keep(sid, ~dead)
        dropped = sum(len(pid) for _sid, pid, _rkey in gone)
        if dropped:
            pids = sorted(self.groups)
            groups = [self.groups[pid] for pid in pids]
            first, _depths, label = labeller(groups)
            index = np.zeros(pids[-1] + 1, dtype=np.intp)
            index[pids] = np.arange(len(pids))
            committed, head = gather_tables(groups)
            for sid, pid, rkey in gone:
                at = label(index[pid], rkey)
                committed[:, sid] -= np.bincount(at, minlength=len(committed))
            nbytes = group_bytes(self.geometry, first, committed + head)
            for group, total in zip(groups, nbytes.tolist()):
                group.total_bytes = total
        return dropped


class PartitionGroup:
    """One hash partition's window data, fine-tuned into mini-groups."""

    def __init__(
        self,
        pid: int,
        geometry: JoinGeometry,
        on_double: t.Callable[[int, int], None] | None = None,
        store: WindowStore | None = None,
    ) -> None:
        self.pid = int(pid)
        self.geometry = geometry
        #: Observability hook: ``on_double(pid, new_global_depth)``.
        self._on_double = on_double
        #: Where the group's committed tuples are: its own store, or
        #: the one its join module shares between all of its groups.
        self.store = WindowStore(geometry, self.pid + 1) if store is None else store
        self.store.groups[self.pid] = self
        self._reset()

    def _reset(self) -> None:
        n = self.geometry.n_streams
        self.directory = ExtendibleDirectory(on_double=self._double_hook())
        self._layout_cache: _Layout | None = None
        #: Block-granular bytes of every mini-group's windows, kept up
        #: to date: the join module moves it as it admits arrivals, the
        #: operations here as they drop, relabel or install tuples.
        self.total_bytes = 0
        #: Committed tuples per mini-group and stream ...
        self.committed: CountTable = np.zeros((1, n), np.int64)
        #: ... and head-block ones: the installed (:attr:`held`), and,
        #: while a pass runs, its head blocks.
        self.head: CountTable = np.zeros((1, n), np.int64)
        #: Per stream, installed head-block tuples (``fresh`` in a
        #: :class:`GroupState`) that no pass has taken yet, in arrival
        #: order.  A live group never holds any between passes.
        self.held: list[Columns] = [_NO_COLUMNS for _ in range(n)]

    def _double_hook(self) -> t.Callable[[int], None] | None:
        on_double = self._on_double
        if on_double is None:
            return None
        return lambda depth: on_double(self.pid, depth)

    # -- the directory in run-key order ---------------------------------------
    def _layout(self) -> _Layout:
        if self._layout_cache is None:
            directory = self.directory
            buckets = directory.buckets()
            depth = directory.global_depth
            patterns = np.array([b.pattern for b in buckets], dtype=np.int64)
            slots = directory.pattern_table()[_slots_by_top(depth)]
            depths = np.array([b.local_depth for b in buckets], dtype=np.int64)
            by_top = np.searchsorted(patterns, slots)
            self._layout_cache = _Layout(buckets, depths, depth, by_top)
        return self._layout_cache

    def bucket_of(self, rkey: HashArray) -> Indexes:
        """Directory-order index of the bucket each run key lies in."""
        layout = self._layout()
        at: Indexes = layout.by_top[_top(rkey, np.uint64(63 - layout.depth))]
        return at

    def _index(self, bucket: Bucket) -> int:
        return self._layout().buckets.index(bucket)

    def _held_counts(self) -> CountTable:
        nb, held = len(self._layout().buckets), [h[0] for h in self.held]
        if not any(len(rkey) for rkey in held):
            return np.zeros((nb, len(held)), np.int64)
        counts = [np.bincount(self.bucket_of(rkey), minlength=nb) for rkey in held]
        return np.stack(counts, axis=1).astype(np.int64)

    def _sids(self) -> range:
        return range(self.geometry.n_streams)

    def _block_bytes(self, n: npt.NDArray[np.int64]) -> int:
        """Block-granular bytes of windows of *n* tuples each."""
        tpb = self.geometry.tuples_per_block
        return self.geometry.block_bytes * int((-(-n // tpb)).sum())

    # -- sizes --------------------------------------------------------------
    def counts(self) -> tuple[CountTable, CountTable]:
        """``(committed, head)`` tuples per mini-group (in directory
        order, ``directory.buckets()``) and stream."""
        return self.committed.copy(), self.head.copy()

    @property
    def n_tuples(self) -> int:
        return int(self.committed.sum() + self.head.sum())

    @property
    def bytes_used(self) -> int:
        """Block-granular bytes of every window, counted from the tables
        (:attr:`total_bytes` is the same number, kept)."""
        return self._block_bytes(self.committed + self.head)

    def bytes_of(self, bucket: Bucket) -> int:
        """Block-granular bytes of one mini-group's windows."""
        i = self._index(bucket)
        return self._block_bytes(self.committed[i] + self.head[i])

    def committed_bytes(self, bucket: Bucket, sid: int) -> int:
        """Block-granular committed bytes of stream *sid* in one
        mini-group: what a probe of the opposite stream is charged for."""
        return self._block_bytes(self.committed[self._index(bucket), sid])

    @property
    def n_mini_groups(self) -> int:
        return self.directory.n_buckets

    # -- the group's tuples ---------------------------------------------------
    def route(self, keys: KeyArray) -> tuple[Indexes, HashArray]:
        """``(buckets, g)``: the index in ``directory.buckets()`` of
        each key's mini-group, and its directory hash."""
        gvals = directory_hash(keys)
        return self.bucket_of(bit_reverse(gvals)), gvals

    def admit(self, sid: int, rkey: HashArray, ts: TsArray, seq: SeqArray) -> None:
        """Commit tuples to stream *sid*, counted in their mini-groups
        and in :attr:`total_bytes`."""
        added = np.bincount(self.bucket_of(rkey), minlength=len(self.committed))
        before = self.committed[:, sid] + self.head[:, sid]
        self.total_bytes += self._block_bytes(before + added) - self._block_bytes(before)
        self.committed[:, sid] += added
        self.store.commit(sid, rkey, ts, seq, self.pid)

    def sorted_run(self, sid: int) -> Columns:
        """Stream *sid*'s committed tuples of this group in run-key
        order, equal keys in commit order: ``(run key, ts, seq)``."""
        return self.store.rows_of(self.pid, sid)

    def probe(
        self,
        sid: int,
        probe_ts: TsArray,
        probe_rkey: HashArray,
        probe_seq: SeqArray,
        collect_pairs: bool = False,
    ) -> ProbeResult:
        """:meth:`WindowStore.probe` with this group's tuples."""
        return self.store.probe(sid, probe_ts, probe_rkey, probe_seq, collect_pairs)

    def count_before(self, cutoff_ts: float) -> int:
        return self.store.count_before(cutoff_ts)

    def expire_before(self, cutoff_ts: float) -> int:
        return self.store.expire_before(cutoff_ts)

    # -- maintenance --------------------------------------------------------------
    def tuning_candidates(self) -> tuple[list[SizedBucket], list[SizedBucket]]:
        """``(oversized, undersized)`` buckets with their bytes, each
        computed once: those above ``2*theta`` that a split can actually
        subdivide, and those below ``theta`` that may have a buddy to
        merge with."""
        theta = self.geometry.theta_bytes
        tpb, block = self.geometry.tuples_per_block, self.geometry.block_bytes
        nbytes = block * (-(-(self.committed + self.head) // tpb)).sum(axis=1)
        buckets = self._layout().buckets
        oversized = [
            (buckets[i], int(nbytes[i]))
            for i in np.flatnonzero(nbytes > 2 * theta).tolist()
            if self.directory.can_split(buckets[i]) and self._separable(buckets[i])
        ]
        undersized = [
            (buckets[i], int(nbytes[i]))
            for i in np.flatnonzero(nbytes < theta).tolist()
            if buckets[i].local_depth > 0
        ]
        return oversized, undersized

    def _separable(self, bucket: Bucket) -> bool:
        """True when a mini-group's committed tuples hold more than one
        key.  A group dominated by one hot join key has identical
        directory hashes throughout; splitting it only doubles the
        directory without reducing scan sizes, so the tuning policy
        skips it.  Its run keys are in order: the first and last bound
        them."""
        lo, hi = _span(bucket.pattern, bucket.local_depth)
        keys = [self.store.keys_of(self.pid, sid, lo, hi) for sid in self._sids()]
        ends = [k[i] for k in keys if len(k) for i in (0, -1)]
        return bool(ends) and bool(min(ends) != max(ends))

    def oversized_buckets(self) -> list[Bucket]:
        return [b for b, _nbytes in self.tuning_candidates()[0]]

    def _relabel(self, counts: dict[Bucket, CountTable]) -> None:
        """After a split or merge: the committed table in the new
        directory order, the new buckets' rows from *counts*."""
        old = {bucket: i for i, bucket in enumerate(self._layout().buckets)}
        self._layout_cache = None
        buckets = self._layout().buckets
        self.committed = self.committed[[old.get(bucket, 0) for bucket in buckets]]
        for bucket, row in counts.items():
            self.committed[buckets.index(bucket)] = row
        self.head = self._held_counts()

    def split_bucket(self, bucket: Bucket) -> int:
        """Split one oversized bucket; returns bytes redistributed.  A
        relabelling: the low child holds the group's tuples in the lower
        half of the bucket's run-key range, counted."""
        lo, mid, _hi = _span(bucket.pattern, bucket.local_depth, 2)
        i = self._index(bucket)
        moved = self._block_bytes(self.committed[i] + self.head[i])
        low = np.array(
            [len(self.store.keys_of(self.pid, sid, lo, mid)) for sid in self._sids()]
        )
        children = self.directory.split(bucket)
        self._relabel(dict(zip(children, (low, self.committed[i] - low))))
        # Each half rounds up to whole blocks on its own.
        at = [self._index(child) for child in children]
        self.total_bytes += self._block_bytes(self.committed[at] + self.head[at]) - moved
        return moved

    def try_merge_bucket(self, bucket: Bucket) -> int:
        """Merge *bucket* with its buddy if the paper's conditions hold
        (same local depth, combined size < 2*theta, no head-block
        tuples).  Returns bytes touched, or 0 when no merge happened."""
        buddy = self.directory.buddy_of(bucket)
        if buddy is None:
            return 0
        at = [self._index(bucket), self._index(buddy)]
        combined = self._block_bytes(self.committed[at] + self.head[at])
        if combined >= 2 * self.geometry.theta_bytes or self.head[at].any():
            return 0
        merged = t.cast(Bucket, self.directory.merge(bucket))
        self._relabel({merged: self.committed[at].sum(axis=0)})
        self.total_bytes += self.bytes_of(merged) - combined
        return combined

    # -- state movement ---------------------------------------------------------------
    def take_held(self) -> list[Columns]:
        """Hand the installed head-block tuples to a pass (they stay in
        :attr:`head` and :attr:`total_bytes`: the pass keeps them in
        head blocks)."""
        held = self.held
        self.held = [_NO_COLUMNS for _ in self._sids()]
        return held

    def extract_state(self) -> PartitionGroupState:
        """Drain this group's entire window state for migration."""
        state = self.snapshot_state()
        self.store.drop(self.pid)
        self._reset()
        return state

    def snapshot_state(self) -> PartitionGroupState:
        """Copy this group's window state without draining it — the
        owner side of a replication checkpoint.  In run-key order each
        mini-group's tuples are one slice of the group's, as long as its
        count; each goes out in timestamp order."""
        buckets = self._layout().buckets
        by_key = sorted(
            range(len(buckets)),
            key=lambda i: _span(buckets[i].pattern, buckets[i].local_depth)[0],
        )
        per_stream = []
        for sid in self._sids():
            rows = self.sorted_run(sid)
            ends = np.cumsum(self.committed[by_key, sid]).tolist()
            cuts = dict(zip(by_key, zip([0, *ends], ends)))
            held_at = self.bucket_of(self.held[sid][0])
            streams = []
            for i in range(len(buckets)):
                cols = tuple(col[cuts[i][0] : cuts[i][1]] for col in rows)
                order = np.argsort(cols[1], kind="stable")
                committed = t.cast(Columns, tuple(col[order] for col in cols))
                fresh = t.cast(Columns, tuple(col[held_at == i] for col in self.held[sid]))
                streams.append((_batch(sid, committed), _batch(sid, fresh)))
            per_stream.append(streams)
        groups = tuple(
            GroupState(b.pattern, b.local_depth, tuple(s[i] for s in per_stream))
            for i, b in enumerate(buckets)
        )
        return PartitionGroupState(self.pid, self.directory.global_depth, groups)

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
        nb = len(self._layout().buckets)
        committed = []
        for sid in self._sids():
            batch = TupleBatch.concat([g.streams[sid][0] for g in state.groups])
            rkey = run_key(batch.key)
            self.store.commit(sid, rkey, batch.ts, batch.seq, self.pid)
            committed.append(np.bincount(self.bucket_of(rkey), minlength=nb))
            fresh = TupleBatch.concat([g.streams[sid][1] for g in state.groups])
            self.held[sid] = (run_key(fresh.key), fresh.ts, fresh.seq)
        self.committed = np.stack(committed, axis=1).astype(np.int64)
        self.head = self._held_counts()
        self.total_bytes = self.bytes_used


def _merged(old: Columns, new: Columns) -> Columns:
    """Two blocks in run-key order as one, each row of *new* after the
    rows of *old* with its key: where a stable sort of *old* followed
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
    slots: Indexes,
) -> npt.NDArray[t.Any]:
    """*old* and *new* interleaved: *new* at *slots*, *old* elsewhere."""
    out = np.empty(len(is_old), old.dtype)
    out[is_old] = old
    out[slots] = new
    return out
