"""The slave-side join module (Section IV-D).

The join module owns a set of partition-groups, whose committed tuples
share one :class:`~repro.core.partition_group.WindowStore`, a
partitioned stream buffer (one mini-buffer per partition, as at the
master), and turns buffered tuples into a sequence of **work units**,
each carrying the simulated CPU cost of one step of the paper's
algorithm:

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
what is known when it starts — the head blocks of a run of
partition-groups, one round of splits; wherever a cost depends on an
earlier unit having *executed* (expiry, each merge, every probe on a
memory-limited node, whose spill fraction moves with each admission)
the step is that one unit.  What the units *compute* is planned for
the whole pass at once (:class:`_Pass`): each stream's arrivals are
routed and sorted once, and the matches of every unit come out of one
splice and one probe of the store (:func:`join_kinds`).
"""

from __future__ import annotations

import typing as t
from collections import deque

import numpy as np
import numpy.typing as npt

from repro.core.costmodel import CostModel
from repro.core.exthash import Bucket
from repro.core.hashing import (
    partition_of,
    run_key,
    run_key_order,
    small_int_order,
    split_by,
)
from repro.core.metrics import SlaveMetrics
from repro.core.partition_group import (
    Block,
    CountTable,
    JoinGeometry,
    PartitionGroup,
    PartitionGroupState,
    SizedBucket,
    WindowStore,
    gather_tables,
    group_bytes,
    labeller,
)
from repro.core.probe import ProbeResult
from repro.core.protocol import Shipment
from repro.core.steps import FloatArray, IntArray, Retire, Step
from repro.data.blocks import n_blocks
from repro.data.tuples import TupleBatch
from repro.errors import ProtocolError
from repro.obs.events import DirectoryEvent, MergeEvent, SplitEvent
from repro.obs.tracer import NULL_TRACER, Tracer


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
        #: The committed tuples of every owned partition-group ...
        self.store = WindowStore(geometry, npart)
        #: ... and the groups, by pid (the store's own table of them).
        self.groups = self.store.groups
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
        self.groups[pid] = PartitionGroup(
            pid, self.geometry, on_double=on_double, store=self.store
        )
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
        self._oldest_pending_ts = self._oldest_queued_ts()

    def _oldest_queued_ts(self) -> float:
        """Oldest timestamp over the queued batches, ``inf`` when all
        queues are empty.  Every queued batch counts, not just the
        head: a later batch can hold *older*
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
        self._minibuffers[pid].append((oldest, batch))
        self._pending_bytes += nbytes
        self._oldest_pending_ts = min(self._oldest_pending_ts, oldest)

    def enqueue(self, shipment: Shipment) -> None:
        """File an epoch's shipment into the per-partition mini-buffers.

        Called by the comm process *without* the slave's state lock, so
        it may land between two steps of a join pass draining the same
        queues."""
        batch = shipment.batch
        for pid, rows in split_by(partition_of(batch.key, self.npart), self.npart):
            if pid not in self.groups:
                raise ProtocolError(
                    f"node {self.node_id} received tuples for partition "
                    f"{pid} it does not own"
                )
            self._file(pid, batch.take(rows))
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
        return any(self._minibuffers.values())

    def spill_fraction(self) -> float:
        """Fraction of window state currently residing on disk."""
        if self.memory_bytes is None:
            return 0.0
        window = self.window_bytes
        if window <= self.memory_bytes:
            return 0.0
        return 1.0 - self.memory_bytes / window

    def window_counts(self, pid: int) -> tuple[CountTable, CountTable]:
        """``(committed, head)`` tuples per mini-group of *pid* (in
        directory order) and stream, as an observer between two units
        would find them in the paper's windows."""
        return self.groups[pid].counts()

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
        pids = sorted(drained)
        lost = [pid for pid in pids if pid not in self.groups]
        if lost:  # moved away mid-backlog; cannot happen
            raise ProtocolError(f"lost partition {lost[0]} with pending data")
        yield from _Pass(self, pids, [drained[pid] for pid in pids]).steps()

    def _drain(self) -> tuple[float, dict[int, TupleBatch]]:
        """Pop the head batch of every mini-buffer.

        Returns the pre-drain watermark (what this pass's expiry cutoff
        must respect) with the popped batches, and re-arms the watermark
        from the batches left behind — all in one step, so a shipment
        filed meanwhile is either part of this pass and its cutoff, or
        wholly deferred to the next one.
        """
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
        expired = self.store.count_before(cutoff)
        cost = self.cost_model.expire_cost(expired * self.geometry.tuple_bytes)

        def retire(_lo: int, _hi: int, _emit_times: FloatArray) -> None:
            self.store.expire_before(cutoff)

        return Step("expire", np.array([cost]), retire)

    def _probe_costs(
        self, n_fresh: IntArray, scanned: IntArray, spill_fraction: float
    ) -> FloatArray:
        """Modeled costs of head-block flushes, one per element:
        *n_fresh* tuples against *scanned* committed bytes,
        *spill_fraction* of them on disk.  Books the disk reads."""
        spilled = (scanned * spill_fraction).astype(np.int64)
        if spill_fraction:
            self.metrics.disk_bytes_read += int(spilled.sum())
        return self.cost_model.probe_cost(n_fresh, scanned, spilled)

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
            combined = nbytes + group.bytes_of(buddy)
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

    def _merge_step(self, group: PartitionGroup, bucket: Bucket, combined: int) -> Step:
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


class _Pass:
    """The probe units of one pass over every partition-group it visits.

    Units come in the paper's order (Section IV-D), group by group by
    pid.  In a group: stream by stream, one unit per head block that
    fills while the buffer is appended, mini-group by mini-group, each
    mini-group's in arrival order; then, the buffer drained, one per
    partial head block, mini-group by mini-group, stream 0 before
    stream 1 (the order that finds a fresh/fresh pair exactly once).
    They go out as one step up to the end of the next group with tuning
    work (told from the counts), whose tuning steps follow.

    The matches are computed at once, after the expiry: the blocks of
    every kind — full ones of stream 0, 1, ..., then partial ones of
    stream 0, 1, ..., of every group — go into the store's run with one
    splice and probe it with one call, each row seeing the other
    streams' older rows and their rows of the kinds before its own
    (:func:`join_kinds`), and the rows are scattered into unit order.
    So each kind finds what it would had every kind before it, and none
    after, been committed.  Groups and mini-groups are disjoint in key
    space, so a block finds what a probe of its own mini-group would;
    inside a mini-group units run in kind order, so each unit finds
    what it would probing at its own retire.  Any number of streams
    probe the same way: a row joins one tuple of every stream.

    The store is thus *ahead* of the windows an observer sees, the
    groups' tables, which every retire moves: a unit's block is full —
    admitted, off the pending count — once the unit before it is
    retired, and committed once it is.  Nothing reads the store in
    between (the pass holds the slave's state lock; a group tunes after
    its units).
    """

    def __init__(
        self, module: JoinModule, pids: list[int], batches: list[TupleBatch]
    ) -> None:
        self.module = module
        geometry = module.geometry
        n_streams, tpb = geometry.n_streams, geometry.tuples_per_block
        self.groups = groups = [module.groups[pid] for pid in pids]
        self.first, depths, label = labeller(groups)
        n_buckets = int(self.first[-1])
        self.committed, self.head = gather_tables(groups)
        #: What the windows held when the pass began.
        self.start = self.committed + self.head
        batch = TupleBatch.concat(batches)
        row_group = np.repeat(np.arange(len(groups)), [len(b) for b in batches])
        bucket_pid = np.repeat(np.array(pids), np.diff(self.first))
        held = [group.take_held() for group in groups]
        self.arrived = np.zeros((n_buckets, n_streams), np.int64)
        blocks, fill, holding = (np.zeros_like(self.arrived) for _ in range(3))
        #: Per stream the tuples of its full blocks, then per stream
        #: those of its partial blocks, mini-group by mini-group.
        self.blocks: list[Block] = []
        partial: list[Block] = []
        for sid in range(n_streams):
            mine = batch.stream == sid
            rkey = run_key(batch.key[mine])
            line = [label(row_group[mine], rkey), rkey, batch.ts[mine], batch.seq[mine]]
            arrived = self.arrived[:, sid] = np.bincount(line[0], minlength=n_buckets)
            kept: list[npt.NDArray[t.Any]] = []
            if any(len(h[sid][0]) for h in held):
                # A mini-group's line: its head's tuples, then its
                # arrivals in arrival order.
                cols = [np.concatenate(col) for col in zip(*(h[sid] for h in held))]
                gi = np.repeat(np.arange(len(groups)), [len(h[sid][0]) for h in held])
                cols.insert(0, label(gi, cols[0]))
                taken = arrived[cols[0]] > 0
                line = [np.concatenate((h[taken], a)) for h, a in zip(cols, line)]
                kept = [col[~taken] for col in cols]
            if n_buckets > 1:
                order = small_int_order(line[0], n_buckets)
                line = [col[order] for col in line]
            holding[:, sid] = np.where(arrived > 0, self.head[:, sid], 0)
            blocks[:, sid], rem = np.divmod(holding[:, sid] + arrived, tpb)
            fill[:, sid] = np.where(arrived > 0, rem, self.head[:, sid])
            # Whole blocks fill the start of each line, the rest of it
            # is a partial block (and so are held heads no arrival met).
            at_rest = np.arange(rem.sum()) + np.repeat(tpb * blocks[:, sid].cumsum(), rem)
            in_full = np.ones(len(line[0]), dtype=np.bool_)
            in_full[at_rest] = False
            rkey, ts, seq, pid = (col[in_full] for col in (*line[1:], bucket_pid[line[0]]))
            self.blocks.append((rkey, ts, seq, pid))
            rest = [col[at_rest] for col in line]
            if kept:
                rest = [np.concatenate(cols) for cols in zip(kept, rest)]
                order = small_int_order(rest[0], n_buckets)
                rest = [col[order] for col in rest]
            partial.append((rest[1], rest[2], rest[3], bucket_pid[rest[0]]))
        self.blocks += partial
        self._plan(depths, blocks, fill, holding)
        #: The matches, in unit order.
        self.rows = self._join()

    def _plan(
        self, depths: IntArray, blocks: CountTable, fill: CountTable, holding: CountTable
    ) -> None:
        """Lay every unit out as a row in unit order — its window cell,
        fresh tuples, block rows and scanned bytes — and work out when
        each arrival enters the windows and which groups tune."""
        geometry = self.module.geometry
        n_streams, tpb = geometry.n_streams, geometry.tuples_per_block
        n_buckets, n_groups, phases = len(blocks), len(self.groups), n_streams + 1
        bucket_group = np.repeat(np.arange(n_groups), np.diff(self.first))
        cells = np.flatnonzero(fill)
        full = [np.repeat(np.arange(n_buckets), blocks[:, s]) for s in range(n_streams)]
        n_full = [len(units) for units in full]
        bucket = np.concatenate((*full, cells // n_streams))
        sid = np.concatenate((np.repeat(np.arange(n_streams), n_full), cells % n_streams))
        phase = np.repeat(np.arange(phases), [*n_full, len(cells)])
        # A unit's scan reads the committed blocks of its mini-group's
        # other windows: a full block, those of the full blocks of the
        # lower streams; a partial one, every full block and the partial
        # blocks of the lower streams.
        scans = []
        for s, units in enumerate(full):
            seen = n_blocks(self.committed + tpb * blocks * (np.arange(n_streams) < s), tpb)
            scans.append((seen.sum(axis=1) - seen[:, s])[units])
        committed = self.committed + tpb * blocks
        before, after = n_blocks(committed, tpb), n_blocks(committed + fill, tpb)
        lower = np.cumsum(after, axis=1) - after
        higher = np.cumsum(before[:, ::-1], axis=1)[:, ::-1] - before
        scans.append((lower + higher).ravel()[cells])
        rows = [np.arange(n) * tpb for n in n_full]
        key = bucket_group[bucket] * phases + phase
        order = small_int_order(key, n_groups * phases)
        self.key = key[order]
        self.cell = (bucket * n_streams + sid)[order]
        self.fresh = np.concatenate((np.full(sum(n_full), tpb), fill.ravel()[cells]))[order]
        self.src = (sid + n_streams * (phase == n_streams))[order]
        rows.append((np.cumsum(fill, axis=0) - fill).ravel()[cells])
        self.row = np.concatenate(rows)[order]
        self.scanned = np.concatenate(scans)[order] * geometry.block_bytes
        self.unit_group = bucket_group[bucket[order]]
        # A group tunes only if a mini-group of its ends the pass above
        # two thetas, or below one theta after a split.
        end = geometry.block_bytes * n_blocks(self.start + self.arrived, tpb).sum(axis=1)
        theta = geometry.theta_bytes
        tunes = (end > 2 * theta) | ((end < theta) & (depths > 0))
        ends = np.searchsorted(self.key, np.arange(1, n_groups + 1) * phases)
        # Not np.unique: numpy 2.x imports numpy.ma on its first call,
        # inside every worker process's first pass.
        tuners = (
            np.flatnonzero(np.bincount(bucket_group[tunes], minlength=n_groups)).tolist()
            if geometry.fine_tuning
            else []
        )
        #: ``(stop, group)``: a step ends at unit *stop*, then *group*
        #: tunes (-1: none).
        self.stops: list[tuple[int, int]] = [(int(ends[g]), g) for g in tuners]
        if not self.stops or self.stops[-1][0] < len(self.key):
            self.stops.append((len(self.key), -1))
        # At position 2u unit u is about to run, at 2u + 1 it is retired.
        # admitted[s][p + 1] of stream s's arrivals, in line order, are
        # in the windows at p: a full unit's block as it is about to run,
        # and what waits under a block for it; the rest of a group's as
        # its phase's last unit is retired, or, in a phase with no
        # units, as the group's next unit is about to run.
        at = np.empty(len(order), np.intp)
        at[order] = np.arange(len(order))
        self.cuts = np.cumsum(self.arrived, axis=0) - self.arrived
        total = self.arrived.sum(axis=0)
        self.admitted: list[IntArray] = []
        offset = 0
        for s, units in enumerate(full):
            cuts = np.append(self.cuts[:, s], total[s])
            first_unit = np.append(0, np.cumsum(blocks[:, s]))
            starts = 2 * np.append(at[offset : offset + len(units)], 0)
            offset += len(units)
            admitted = np.zeros(2 * len(order) + 2, dtype=np.int64)
            block = np.arange(len(units)) - first_unit[units]
            admitted[starts[:-1] + 1] = cuts[units] + tpb * (block + 1) - holding[units, s]
            lo, hi = first_unit[self.first[:-1]], first_unit[self.first[1:]]
            after = np.searchsorted(self.key, np.arange(n_groups) * phases + s, "right")
            ended = np.where(hi > lo, starts[hi - 1] + 1, 2 * after)
            # Counts only grow along the line: where two events share a
            # position the larger holds, and a running maximum fills in.
            np.maximum.at(admitted, ended + 1, cuts[self.first[1:]])
            self.admitted.append(np.maximum.accumulate(admitted))
        self.in_windows = 0
        self.totals = group_bytes(geometry, self.first, self.start)

    def _join(self) -> ProbeResult:
        """The matches of every unit, one splice and one probe for the
        whole pass (see the class)."""
        module = self.module
        found = join_kinds(module.store, self.blocks, module.collect_pairs)
        # Kind k's row r is row starts[k] + r of the pass; a unit's rows
        # are its block rows' rows.
        starts = np.cumsum([0] + [len(block[0]) for block in self.blocks])
        row = starts[self.src] + self.row
        first = found.offsets[row]
        per_unit = found.offsets[row + self.fresh] - first
        offsets = np.zeros(len(self.src) + 1, dtype=np.intp)
        np.cumsum(per_unit, out=offsets[1:])
        take = np.repeat(first - offsets[:-1], per_unit) + np.arange(offsets[-1])
        pairs = None if found.pairs is None else found.pairs[take]
        return ProbeResult(found.newer_ts[take], pairs, offsets)

    def steps(self) -> t.Iterator[Step]:
        module, lo = self.module, 0
        limited = module.memory_bytes is not None
        for stop, tuner in self.stops:
            # On a memory-limited node each unit's spill fraction moves
            # with the admissions before it: a step per unit.
            for first in range(lo, stop) if limited else [lo]:
                last = first + 1 if limited else stop
                self._admit(2 * first)
                fresh, scanned = self.fresh[first:last], self.scanned[first:last]
                costs = module._probe_costs(fresh, scanned, module.spill_fraction())
                yield Step("probe", costs, self._retire(first, stop))
            if tuner >= 0:
                yield from module._tuning_steps(self.groups[tuner])
            lo = stop

    def _retire(self, first: int, stop: int) -> Retire:
        def retire(lo: int, hi: int, emit_times: FloatArray) -> None:
            lo, hi = first + lo, first + hi
            self._record(lo, hi, emit_times)
            np.add.at(self.committed.reshape(-1), self.cell[lo:hi], self.fresh[lo:hi])
            # Past a step's last unit, nothing of the next one is full.
            self._admit(2 * hi - (hi == stop))

        return retire

    def _admit(self, upto: int) -> None:
        """Bring the windows to position *upto*: what is admitted and
        not committed is in head blocks."""
        admitted = np.array([a[upto + 1] for a in self.admitted])
        window = self.start + np.clip(admitted - self.cuts, 0, self.arrived)
        np.subtract(window, self.committed, out=self.head)
        moved = int(admitted.sum()) - self.in_windows
        if not moved:
            return
        self.in_windows += moved
        totals = group_bytes(self.module.geometry, self.first, window)
        for at in np.flatnonzero(totals != self.totals).tolist():
            self.groups[at].total_bytes += int(totals[at] - self.totals[at])
        self.totals = totals
        module = self.module
        module._pending_bytes -= moved * module.geometry.tuple_bytes
        module.metrics.tuples_processed += moved

    def _record(self, lo: int, hi: int, emit_times: FloatArray) -> None:
        """Emit the output rows of units ``[lo, hi)``, each unit's at
        its own emit time, the pairs filed under their groups' pids."""
        rows, metrics = self.rows, self.module.metrics
        first, last = rows.offsets[lo], rows.offsets[hi]
        if first == last:
            return
        per_unit = np.diff(rows.offsets[lo : hi + 1])
        metrics.record_outputs(np.repeat(emit_times, per_unit), rows.newer_ts[first:last])
        if rows.pairs is None:
            return
        for at, units in split_by(self.unit_group[lo:hi], len(self.groups)):
            start, stop = rows.offsets[lo + units[0]], rows.offsets[lo + units[-1] + 1]
            if start < stop:
                metrics.record_pairs(self.groups[at].pid, rows.pairs[start:stop])


def join_kinds(
    store: WindowStore, blocks: t.Sequence[Block], collect_pairs: bool
) -> ProbeResult:
    """Commit a pass's blocks — kind by kind: the full ones of stream 0,
    1, ..., then the partial ones of stream 0, 1, ... — to *store* with
    one splice, and return their join rows from one probe, grouped by
    block row in kind then line order.  A row of kind ``k`` joins every
    older row of the other streams and their rows of the kinds below
    ``k``: what it would find had each kind probed the store and then
    been committed in turn.  The blocks sorted as one, each key's rows
    are in kind order, so those rows are the ones of its key in the run
    before it."""
    sizes = [len(block[0]) for block in blocks]
    sid = np.repeat(np.arange(len(blocks)) % store.geometry.n_streams, sizes)
    rkey, ts, seq, pid = (np.concatenate(col) for col in zip(*blocks))
    order = run_key_order(rkey)
    lo, hi = np.empty((2, len(order)), dtype=np.intp)
    lo[order], hi[order] = store.splice(
        sid[order], rkey[order], ts[order], seq[order], pid[order]
    )
    return store.probe(sid, ts, seq, (lo, hi), collect_pairs)
