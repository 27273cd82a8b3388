"""The slave-side join module (Section IV-D).

The join module owns a set of partition-groups, a partitioned stream
buffer (one mini-buffer per partition, as at the master), and turns
buffered tuples into a sequence of **work units**, each carrying the
simulated CPU cost of one step of the paper's algorithm:

* ``expire``  — dropping expired blocks from the front of every window;
* ``probe``   — flushing a fresh head block: joining the fresh tuples
  against the opposite stream's committed window in the same
  mini-partition-group, charged the paper's block nested-loop scan of
  that window's committed blocks;
* ``tune``    — splitting an oversized mini-group / merging undersized
  buddies (fine-grained partition tuning).

Units are rows, not objects.  :meth:`JoinModule.steps` hands them out a
:class:`~repro.core.steps.Step` at a time: a kind, the units' costs as
one array, and one ``retire(lo, hi, emit_times)`` that applies units
``[lo, hi)`` in array operations.  The slave's join process drives the
generator through the one shared driver::

    yield from run_steps(runtime, metrics, module.steps())

which awaits a step's costs a prefix at a time and retires each prefix
at the emit times the runtime reports
(:func:`repro.core.steps.run_steps`).

Laziness is essential: a step's costs are computed from the state *at
generation time*, and the generator only resumes after every unit of the
previous step has been retired, so cost and effect always agree.  A
step therefore holds only units whose costs follow arithmetically from
what is known when it starts — a stream's full head blocks of one
partition-group, its partial ones, one round of splits; wherever a cost
depends on an earlier unit having *executed* (expiry, each merge, every
probe on a memory-limited node, whose spill fraction moves with each
admission) the step is that one unit.
"""

from __future__ import annotations

import threading
import typing as t
from collections import deque
from itertools import accumulate

import numpy as np
import numpy.typing as npt

from repro.core.costmodel import CostModel
from repro.core.exthash import Bucket
from repro.core.hashing import partition_of
from repro.core.metrics import SlaveMetrics
from repro.core.partition_group import (
    JoinGeometry,
    MiniGroup,
    PartitionGroup,
    PartitionGroupState,
    SizedBucket,
)
from repro.core.probe import ProbeResult
from repro.core.protocol import Shipment
from repro.core.steps import FloatArray, IntArray, Step
from repro.data.tuples import KeyArray, SeqArray, TsArray, TupleBatch
from repro.errors import ProtocolError
from repro.obs.events import DirectoryEvent, MergeEvent, SplitEvent
from repro.obs.tracer import NULL_TRACER, Tracer


class _Rows(t.NamedTuple):
    """A step's output rows, grouped by unit in unit order."""

    #: Per output row, the timestamp of the newer joining tuple.
    newer_ts: TsArray
    #: Per output row ``(stream-0 seq, stream-1 seq)``; None unless
    #: pairs are collected.
    pairs: npt.NDArray[np.int64] | None
    #: Unit ``j`` produced rows ``[offsets[j], offsets[j + 1])``.
    offsets: npt.NDArray[np.intp]


class JoinModule:
    """Join processing state of one slave node."""

    def __init__(
        self,
        node_id: int,
        geometry: JoinGeometry,
        cost_model: CostModel,
        npart: int,
        metrics: SlaveMetrics,
        collect_pairs: bool = False,
        memory_bytes: int | None = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.node_id = node_id
        self.geometry = geometry
        self.cost_model = cost_model
        self.npart = npart
        self.metrics = metrics
        self.collect_pairs = collect_pairs
        #: Window-state memory; the excess over this spills to disk
        #: (None = unlimited, the paper's Section VI-A assumption).
        self.memory_bytes = memory_bytes
        self.tracer = tracer
        #: Emit time of the tuning unit being retired: what a directory
        #: doubling under it is stamped with (the runtime's ``now`` may
        #: already be at a later unit of the same retired prefix).
        self._tuning_time = 0.0
        self.groups: dict[int, PartitionGroup] = {}
        #: Guards the mini-buffers (the dict and its deques) and the two
        #: scalars derived from them.  On the wall-clock backends the
        #: comm thread files shipments (:meth:`enqueue`) while the join
        #: thread drains, so every access goes through this mutex; it
        #: covers queue bookkeeping only and is never held across a
        #: probe, an expiry or any other work unit.
        self._buf_lock = threading.Lock()
        #: Per partition, the queued batches, each with its oldest
        #: timestamp (computed once, when it was filed).
        self._minibuffers: dict[int, deque[tuple[float, TupleBatch]]] = {}
        self._pending_bytes = 0
        self._oldest_pending_ts = float("inf")

    # -- partition ownership ------------------------------------------------
    def owned_pids(self) -> list[int]:
        return sorted(self.groups)

    def add_partition(self, pid: int) -> None:
        if pid in self.groups:
            raise ProtocolError(f"node {self.node_id} already owns partition {pid}")
        on_double = self._directory_doubled if self.tracer.enabled else None
        self.groups[pid] = PartitionGroup(pid, self.geometry, on_double=on_double)
        with self._buf_lock:
            self._minibuffers.setdefault(pid, deque())

    def _directory_doubled(self, pid: int, depth: int) -> None:
        # Callback wired only when tracing is on (add_partition), but the
        # zero-overhead contract is enforced here too: never construct the
        # event against a disabled tracer.
        if not self.tracer.enabled:
            return
        self.tracer.emit(
            DirectoryEvent(
                t=self._tuning_time, node=self.node_id, pid=pid, depth=depth
            )
        )

    def extract_partition(self, pid: int) -> tuple[PartitionGroupState, TupleBatch]:
        """Drain window state + unprocessed buffered tuples of *pid*
        (the supplier side of a state move)."""
        group = self.groups.pop(pid, None)
        if group is None:
            raise ProtocolError(f"node {self.node_id} does not own partition {pid}")
        state = group.extract_state()
        with self._buf_lock:
            buffered = TupleBatch.concat(
                [batch for _oldest, batch in self._minibuffers.pop(pid, ())]
            )
            self._pending_bytes -= buffered.payload_bytes(
                self.geometry.tuple_bytes
            )
        # The popped mini-buffer may have been the one pinning the expiry
        # watermark; re-derive it from the surviving queues.
        self._rearm_watermark()
        return state, buffered

    def _rearm_watermark(self) -> None:
        """Recompute ``_oldest_pending_ts`` from the surviving queues."""
        with self._buf_lock:
            self._oldest_pending_ts = self._oldest_queued_ts()

    def _oldest_queued_ts(self) -> float:
        """Oldest timestamp over the queued batches, ``inf`` when all
        queues are empty (caller holds ``_buf_lock``).  Every queued
        batch counts, not just the head: a later batch can hold *older*
        tuples — a restore replays the checkpointed mini-buffer followed
        by logged shipments whose epochs overlap it, and a post-move
        shipment can trail tuples predating an earlier one — and a
        cutoff derived from the head alone would expire window tuples
        those batches still need to join against."""
        return min(
            (
                oldest
                for queue in self._minibuffers.values()
                for oldest, _batch in queue
            ),
            default=float("inf"),
        )

    def snapshot_partition(self, pid: int) -> tuple[PartitionGroupState, TupleBatch]:
        """Non-destructive copy of *pid*'s window state + unprocessed
        buffered tuples (the owner side of a replication checkpoint)."""
        group = self.groups.get(pid)
        if group is None:
            raise ProtocolError(f"node {self.node_id} does not own partition {pid}")
        state = group.snapshot_state()
        with self._buf_lock:
            queued = [batch for _oldest, batch in self._minibuffers.get(pid, ())]
        return state, TupleBatch.concat(queued)

    def restore_partition(
        self,
        pid: int,
        state: PartitionGroupState | None,
        buffered: TupleBatch | None,
        log: t.Sequence[TupleBatch] = (),
    ) -> None:
        """Rebuild *pid* from a replication checkpoint plus log replay.

        ``state``/``buffered`` are the checkpointed window state and
        unprocessed mini-buffer (``None`` = the implicit empty genesis
        checkpoint); ``log`` carries the teed per-epoch shipments since
        the checkpoint, replayed through the normal buffering path so
        the regular work units regenerate the lost join output.
        """
        self.add_partition(pid)
        if state is not None:
            self.groups[pid].install_state(state)
        replay = list(log)
        if buffered is not None and len(buffered):
            replay.insert(0, buffered)
        for batch in replay:
            if len(batch):
                self._file(pid, batch)

    def install_partition(
        self, pid: int, state: PartitionGroupState, buffered: TupleBatch
    ) -> None:
        """Install a moved partition-group (the consumer side)."""
        self.add_partition(pid)
        self.groups[pid].install_state(state)
        if len(buffered):
            self._file(pid, buffered)

    # -- buffering ---------------------------------------------------------
    def _file(self, pid: int, batch: TupleBatch) -> None:
        """Queue one non-empty batch on *pid*'s mini-buffer."""
        nbytes = batch.payload_bytes(self.geometry.tuple_bytes)
        # A batch right after a partition move or a restore can carry
        # tuples that predate this slave's epoch window — and need not
        # be timestamp-sorted — so the expiry cutoff must respect the
        # true oldest timestamp, not the first.
        oldest = float(batch.ts.min())
        with self._buf_lock:
            self._minibuffers[pid].append((oldest, batch))
            self._pending_bytes += nbytes
            self._oldest_pending_ts = min(self._oldest_pending_ts, oldest)

    def enqueue(self, shipment: Shipment) -> None:
        """File an epoch's shipment into the per-partition mini-buffers.

        Called by the comm thread *without* the slave's state lock, so a
        join pass may be draining the same queues concurrently."""
        batch = shipment.batch
        if len(batch):
            pids = partition_of(batch.key, self.npart)
            for pid in np.unique(pids):
                sub = batch.take(np.flatnonzero(pids == pid))
                pid = int(pid)
                if pid not in self.groups:
                    raise ProtocolError(
                        f"node {self.node_id} received tuples for partition "
                        f"{pid} it does not own"
                    )
                self._file(pid, sub)
        with self._buf_lock:
            self._oldest_pending_ts = min(
                self._oldest_pending_ts, shipment.epoch_start
            )

    @property
    def pending_bytes(self) -> int:
        """Unprocessed buffered tuple bytes (drives buffer occupancy)."""
        return self._pending_bytes

    def occupancy(self, capacity_bytes: int) -> float:
        """Buffer occupancy; may exceed 1.0 when the node is overloaded
        (the paper assumes enough memory; values above the supplier
        threshold are what matters)."""
        return self._pending_bytes / capacity_bytes

    @property
    def window_bytes(self) -> int:
        """Block-granular bytes held by all owned windows."""
        return sum(g.total_bytes for g in self.groups.values())

    @property
    def has_work(self) -> bool:
        with self._buf_lock:
            return any(self._minibuffers.values())

    def spill_fraction(self) -> float:
        """Fraction of window state currently residing on disk."""
        if self.memory_bytes is None:
            return 0.0
        window = self.window_bytes
        if window <= self.memory_bytes:
            return 0.0
        return 1.0 - self.memory_bytes / window

    # -- work generation ------------------------------------------------------
    def steps(self) -> t.Iterator[Step]:
        """Generate costed work for ONE bounded pass over the buffers.

        A pass covers at most one buffered batch per partition (roughly
        one epoch's shipment); a backlogged slave needs several passes
        to drain (the driver re-arms itself while :attr:`has_work`).
        Bounding the pass keeps the slave's state lock from being
        starved under overload: state moves and reorganization orders
        grab the lock between passes, so the paper's rebalancing can
        still reach an overloaded node.
        """
        oldest, drained = self._drain()
        if not drained:
            return
        yield self._expire_step(oldest - self.geometry.window_seconds)
        for pid in sorted(drained):
            group = self.groups.get(pid)
            if group is None:  # moved away mid-backlog; cannot happen
                raise ProtocolError(f"lost partition {pid} with pending data")
            batch = drained[pid]
            # Section IV-D's order: stream by stream, every block that
            # fills while the buffer is appended; then, the buffer
            # drained, each mini-group's partial blocks.
            for sid in range(self.geometry.n_streams):
                sub = batch.by_stream(sid)
                if len(sub):
                    yield from self._full_block_steps(group, sid, sub)
            yield from self._partial_block_steps(group)
            if self.geometry.fine_tuning:
                yield from self._tuning_steps(group)

    def _drain(self) -> tuple[float, dict[int, TupleBatch]]:
        """Pop the head batch of every mini-buffer.

        Returns the pre-drain watermark (what this pass's expiry cutoff
        must respect) with the popped batches, and re-arms the watermark
        from the batches left behind — all in one critical section, so
        a shipment filed concurrently is either part of this pass and
        its cutoff, or wholly deferred to the next one.
        """
        with self._buf_lock:
            oldest = self._oldest_pending_ts
            out = {
                pid: queue.popleft()[1]
                for pid, queue in self._minibuffers.items()
                if queue
            }
            if out:
                self._oldest_pending_ts = self._oldest_queued_ts()
        return oldest, out

    # -- step builders ----------------------------------------------------------
    def _expire_step(self, cutoff: float) -> Step:
        expired_bytes = 0
        tb = self.geometry.tuple_bytes
        for group in self.groups.values():
            for bucket in group.directory.buckets():
                for window in bucket.payload.windows:
                    expired_bytes += window.committed.count_before(cutoff) * tb
        cost = self.cost_model.expire_cost(expired_bytes)

        def retire(_lo: int, _hi: int, _emit_times: FloatArray) -> None:
            for group in self.groups.values():
                group.expire_before(cutoff)

        return Step("expire", np.array([cost]), retire)

    def _cost_runs(self, n_units: int) -> t.Iterator[tuple[int, int, float]]:
        """Cut *n_units* probe units into the runs ``(first, stop, spill
        fraction)`` whose costs can be fixed together: all of them — or,
        on a memory-limited node, one at a time, because each unit's
        spill fraction depends on the admissions that follow the unit
        before it.  The consumer must retire a run before asking for the
        next."""
        if self.memory_bytes is None:
            if n_units:
                yield 0, n_units, 0.0
        else:
            for first in range(n_units):
                yield first, first + 1, self.spill_fraction()

    def _probe_costs(
        self, n_fresh: int | IntArray, scanned: IntArray, spill_fraction: float
    ) -> FloatArray:
        """Modeled costs of head-block flushes, one per element:
        *n_fresh* tuples against *scanned* committed bytes,
        *spill_fraction* of them on disk.  Books the disk reads."""
        spilled = (scanned * spill_fraction).astype(np.int64)
        if spill_fraction:
            self.metrics.disk_bytes_read += int(spilled.sum())
        return self.cost_model.probe_cost(n_fresh, scanned, spilled)

    def _full_block_steps(
        self, group: PartitionGroup, sid: int, sub: TupleBatch
    ) -> t.Iterator[Step]:
        """Admit stream *sid*'s arrivals *sub* into *group*; one
        ``probe`` unit per head block they fill, mini-group by
        mini-group, each mini-group's in arrival order.

        Units are the granularity of what is *charged* and of when
        outputs are emitted.  The matches of the two-stream join are
        computed for the whole step at once (:meth:`_join_step`):
        mini-groups are disjoint in key space, so probing the group's
        run with all the full blocks of a stream finds for each block
        exactly the rows a probe of its own mini-group would, and a
        retired range of units is one slice of them.

        A unit's block is full — its tuples admitted to the head block,
        off the pending count — from the moment the unit before it is
        retired, as if the blocks were still filled one by one between
        units; ``admit_through`` keeps the windows and the counters in
        that state after every retire, whatever the range.
        """
        geometry = self.geometry
        tb, tpb = geometry.tuple_bytes, geometry.tuples_per_block
        patterns, buckets = group.route(sub.key)
        # One stable sort groups the tuples by mini-group, each
        # mini-group's in arrival order.
        order = np.argsort(patterns, kind="stable")
        ts, key, seq = sub.ts[order], sub.key[order], sub.seq[order]
        slots = sorted(buckets)
        cuts = np.searchsorted(patterns[order], slots).tolist() + [len(order)]
        minis = [buckets[slot].payload for slot in slots]
        windows = [mini.windows[sid] for mini in minis]
        # What fills whole blocks: per mini-group, the tuples already in
        # its head, then as many of its arrivals as round the total
        # down to a multiple of the block size.
        held = [window.n_fresh for window in windows]
        blocks = [(h + hi - lo) // tpb for h, lo, hi in zip(held, cuts, cuts[1:])]
        #: first[s] is mini-group s's first unit, first[-1] the count.
        first = list(accumulate(blocks, initial=0))
        n_units = first[-1]
        unit_slot = [s for s, n in enumerate(blocks) for _ in range(n)]
        # admitted[j]: arrivals in the windows once unit j's block is
        # full; admitted[n_units]: all of them.
        admitted = [
            lo - h + tpb * nth
            for lo, h, n in zip(cuts, held, blocks)
            for nth in range(1, n + 1)
        ]
        admitted.append(len(order))

        rows: _Rows | None = None
        if geometry.n_streams == 2 and n_units:
            full: list[tuple[TsArray, KeyArray, SeqArray]] = []
            for window, h, lo, n in zip(windows, held, cuts, blocks):
                if n:
                    if h:
                        full.append(window.fresh_view())
                    stop = lo + n * tpb - h
                    full.append((ts[lo:stop], key[lo:stop], seq[lo:stop]))
            matches = self._join_step(group, sid, full)
            rows = _Rows(
                matches.newer_ts, _oriented(matches, sid), matches.offsets[::tpb]
            )

        retired = in_windows = at = 0

        def admit_through(unit: int, commit: bool) -> None:
            """Units below *unit* retired, the next one's block full."""
            nonlocal retired, in_windows, at
            upto = admitted[unit]
            s = at
            while s < len(slots) and cuts[s] < upto:
                lo, hi = max(in_windows, cuts[s]), min(upto, cuts[s + 1])
                n_commit = 0
                if commit:
                    done = min(unit, first[s + 1]) - max(retired, first[s])
                    n_commit = tpb * max(done, 0)
                if hi > lo or n_commit:
                    group.admit(windows[s], ts[lo:hi], key[lo:hi], seq[lo:hi], n_commit)
                s += 1
            at = max(at, s - 1)
            moved = upto - in_windows
            retired, in_windows = unit, upto
            if moved:
                with self._buf_lock:
                    self._pending_bytes -= moved * tb
                self.metrics.tuples_processed += moved

        base = 0

        def retire(lo: int, hi: int, emit_times: FloatArray) -> None:
            lo, hi = base + lo, base + hi
            if rows is not None:
                admit_through(hi, commit=True)
                self._record(group.pid, rows, lo, hi, emit_times)
                return
            for unit, emit in zip(range(lo, hi), emit_times.tolist()):
                self._flush_composites(group, minis[unit_slot[unit]], sid, emit)
                admit_through(unit + 1, commit=False)

        admit_through(0, commit=False)
        # The block nested-loop scan reads every committed block of the
        # opposite windows, whatever the fresh keys are; this stream's
        # own commits do not change them.
        scanned = [
            sum(w.committed_bytes for k, w in enumerate(mini.windows) if k != sid)
            if n
            else 0
            for mini, n in zip(minis, blocks)
        ]
        for base, stop, spill in self._cost_runs(n_units):
            per_unit = np.array([scanned[s] for s in unit_slot[base:stop]])
            yield Step("probe", self._probe_costs(tpb, per_unit, spill), retire)

    def _partial_block_steps(self, group: PartitionGroup) -> t.Iterator[Step]:
        """The partition's buffer is drained and every head block is as
        full as this pass makes it: flush the partial ones, one ``probe``
        unit each, mini-group by mini-group, stream 0 before stream 1
        (the order that finds a fresh/fresh pair exactly once).

        The two-stream matches are again computed a stream at a time —
        all partial blocks of stream 0, then, against a run that holds
        them, all of stream 1 — and interleaved back into unit order.
        """
        geometry = self.geometry
        tpb, n_streams = geometry.tuples_per_block, geometry.n_streams
        minis = [bucket.payload for bucket in group.directory.buckets()]
        windows = [window for mini in minis for window in mini.windows]
        # One row per mini-group, one column per stream.
        fresh = np.array([w.n_fresh for w in windows]).reshape(-1, n_streams)
        at = np.flatnonzero(fresh)  # mini-group by mini-group, stream 0 first
        if not len(at):
            return
        committed = np.array([w.n_committed for w in windows]).reshape(fresh.shape)
        # A unit scans the committed blocks of its mini-group's other
        # windows; by the time it runs, those of the lower streams
        # include their head blocks.
        before, after = -(-committed // tpb), -(-(committed + fresh) // tpb)
        lower = np.cumsum(after, axis=1) - after
        higher = np.cumsum(before[:, ::-1], axis=1)[:, ::-1] - before
        scanned = (lower + higher).ravel()[at] * geometry.block_bytes
        unit_fresh = fresh.ravel()[at]
        unit_sid = at % n_streams
        unit_windows = [windows[i] for i in at.tolist()]

        rows: _Rows | None = None
        if n_streams == 2:
            by_stream: list[ProbeResult | None] = []
            for sid in (0, 1):
                heads = [w.fresh_view() for w in unit_windows if w.stream_id == sid]
                by_stream.append(self._join_step(group, sid, heads) if heads else None)
            rows = self._in_unit_order(unit_sid, unit_fresh, by_stream)

        base = 0

        def retire(lo: int, hi: int, emit_times: FloatArray) -> None:
            lo, hi = base + lo, base + hi
            if rows is not None:
                for window in unit_windows[lo:hi]:
                    window.commit_fresh()
                self._record(group.pid, rows, lo, hi, emit_times)
                return
            for unit, emit in zip(at[lo:hi].tolist(), emit_times.tolist()):
                mini, sid = minis[unit // n_streams], unit % n_streams
                self._flush_composites(group, mini, sid, emit)

        for base, stop, spill in self._cost_runs(len(at)):
            costs = self._probe_costs(unit_fresh[base:stop], scanned[base:stop], spill)
            yield Step("probe", costs, retire)

    def _join_step(
        self,
        group: PartitionGroup,
        sid: int,
        blocks: list[tuple[TsArray, KeyArray, SeqArray]],
    ) -> ProbeResult:
        """Probe the opposite stream's run with *blocks* — any number of
        head blocks of stream *sid*, as ``(ts, key, seq)``, in the order
        of their units — then add them to their own stream's run.

        That runs the group's runs *ahead* of its windows: a block is
        in the run from here, in its window's committed store only once
        its unit is retired.  A later step of the same pass needs
        exactly that (the partial blocks of stream 1 must see the
        partial blocks of stream 0, whose units are interleaved with
        their own), and nothing else can look: a pass holds the slave's
        state lock from its first unit to its last.
        """
        ts, key, seq = (np.concatenate(cols) for cols in zip(*blocks))
        matches = group.probe(1 - sid, ts, key, seq, self.collect_pairs)
        group.commit(sid, ts, key, seq)
        return matches

    def _in_unit_order(
        self,
        unit_sid: npt.NDArray[np.intp],
        unit_fresh: npt.NDArray[np.intp],
        by_stream: list[ProbeResult | None],
    ) -> _Rows:
        """The rows of the per-stream probes — ``by_stream[sid]`` probed
        the blocks of the units with that *unit_sid*, in order, of
        *unit_fresh* tuples each (None: there are none) — as one table
        in unit order."""
        placed = []
        per_unit = np.zeros(len(unit_sid), dtype=np.intp)
        for sid, result in enumerate(by_stream):
            if result is None:
                continue
            mine = np.flatnonzero(unit_sid == sid)
            ends = np.zeros(len(mine) + 1, dtype=np.intp)
            np.cumsum(unit_fresh[mine], out=ends[1:])
            bounds = result.offsets[ends]
            per_unit[mine] = np.diff(bounds)
            placed.append((sid, mine, bounds, result))
        offsets = np.zeros(len(unit_sid) + 1, dtype=np.intp)
        np.cumsum(per_unit, out=offsets[1:])
        newer = np.empty(offsets[-1], dtype=np.float64)
        pairs = np.empty((offsets[-1], 2), np.int64) if self.collect_pairs else None
        for sid, mine, bounds, result in placed:
            # Row r of this stream's block b goes to its unit's rows.
            shift = offsets[mine] - bounds[:-1]
            to = np.repeat(shift, per_unit[mine]) + np.arange(bounds[-1])
            newer[to] = result.newer_ts
            oriented = _oriented(result, sid)
            if pairs is not None and oriented is not None:
                pairs[to] = oriented
        return _Rows(newer, pairs, offsets)

    def _record(
        self, pid: int, rows: _Rows, lo: int, hi: int, emit_times: FloatArray
    ) -> None:
        """Emit the output rows of units ``[lo, hi)`` of a step, each
        unit's at its own emit time."""
        first, last = rows.offsets[lo], rows.offsets[hi]
        if first == last:
            return
        per_unit = np.diff(rows.offsets[lo : hi + 1])
        self.metrics.record_outputs(
            np.repeat(emit_times, per_unit), rows.newer_ts[first:last]
        )
        if rows.pairs is not None:
            self.metrics.record_pairs(pid, rows.pairs[first:last])

    def _flush_composites(
        self, group: PartitionGroup, mini: MiniGroup, sid: int, emit_time: float
    ) -> None:
        """n-way join: one unit probes when it is retired, against runs
        that hold every unit retired before it."""
        composites = group.flush_composites(mini, sid, self.collect_pairs)
        self.metrics.record_outputs(emit_time, composites.newest_ts)
        members = composites.members
        if members is not None and len(members):
            self.metrics.record_pairs(group.pid, members)

    def _tuning_steps(self, group: PartitionGroup) -> t.Iterator[Step]:
        # Split every oversized mini-group; children may still overflow
        # under heavy key skew, so iterate to a fixed point.
        while True:
            oversized, undersized = group.tuning_candidates()
            if not oversized:
                break
            yield self._split_step(group, oversized)
        # One merge round per pass (further merges happen next pass),
        # a step per merge: whether one happens and what it costs
        # depends on the merges before it.
        for bucket, nbytes in undersized:
            if group.directory.bucket_for(bucket.pattern) is not bucket:
                continue  # already merged away this round
            buddy = group.directory.buddy_of(bucket)
            if buddy is None:
                continue
            combined = nbytes + buddy.payload.bytes_used
            if combined >= 2 * self.geometry.theta_bytes:
                continue
            yield self._merge_step(group, bucket, combined)

    def _split_step(self, group: PartitionGroup, oversized: list[SizedBucket]) -> Step:
        """One round of splits: each was sized before any of them runs,
        and splitting one mini-group leaves the others as they are."""

        def retire(lo: int, hi: int, emit_times: FloatArray) -> None:
            for (bucket, _nbytes), emit in zip(oversized[lo:hi], emit_times.tolist()):
                self._tuning_time = emit
                moved = group.split_bucket(bucket)
                self.metrics.splits += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        SplitEvent(
                            t=emit,
                            node=self.node_id,
                            pid=group.pid,
                            n_buckets=group.n_mini_groups,
                            depth=group.directory.global_depth,
                            bytes=moved,
                        )
                    )

        costs = [self.cost_model.tuning_cost(nbytes) for _b, nbytes in oversized]
        return Step("tune", np.array(costs), retire)

    def _merge_step(
        self, group: PartitionGroup, bucket: Bucket[MiniGroup], combined: int
    ) -> Step:
        def retire(_lo: int, _hi: int, emit_times: FloatArray) -> None:
            touched = group.try_merge_bucket(bucket)
            if touched:
                self.metrics.merges += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        MergeEvent(
                            t=float(emit_times[0]),
                            node=self.node_id,
                            pid=group.pid,
                            n_buckets=group.n_mini_groups,
                            depth=group.directory.global_depth,
                            bytes=touched,
                        )
                    )

        return Step("tune", np.array([self.cost_model.tuning_cost(combined)]), retire)


def _oriented(matches: ProbeResult, sid: int) -> npt.NDArray[np.int64] | None:
    """The ``(probe seq, window seq)`` pairs of a stream-*sid* probe as
    ``(stream-0 seq, stream-1 seq)``; None when none were collected."""
    pairs = matches.pairs
    return pairs if pairs is None or sid == 0 else pairs[:, ::-1]
