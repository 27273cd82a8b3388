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

import numpy as np
import numpy.typing as npt

from repro.core.costmodel import CostModel
from repro.core.exthash import Bucket
from repro.core.hashing import (
    HashArray,
    bit_reverse,
    partition_of,
    small_int_order,
    split_by,
)
from repro.core.metrics import SlaveMetrics
from repro.core.partition_group import (
    Columns,
    CountTable,
    JoinGeometry,
    PartitionGroup,
    PartitionGroupState,
    SizedBucket,
)
from repro.core.probe import ProbeResult
from repro.core.protocol import Shipment
from repro.core.steps import FloatArray, IntArray, Step
from repro.data.tuples import SeqArray, TsArray, TupleBatch
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
        #: ``(pid, heads)`` of the partition-group a pass is working on.
        self._live: tuple[int, _Heads] | None = None
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
        for pid, rows in split_by(partition_of(batch.key, self.npart), self.npart):
            if pid not in self.groups:
                raise ProtocolError(
                    f"node {self.node_id} received tuples for partition "
                    f"{pid} it does not own"
                )
            self._file(pid, batch.take(rows))
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

    def window_counts(self, pid: int) -> tuple[CountTable, CountTable]:
        """``(committed, head)`` tuples per mini-group of *pid* (in
        directory order) and stream, as an observer between two units
        would find them in the paper's windows."""
        live = self._live
        if live is not None and live[0] == pid:
            return live[1].committed.copy(), live[1].fill.copy()
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
        for pid in sorted(drained):
            group = self.groups.get(pid)
            if group is None:  # moved away mid-backlog; cannot happen
                raise ProtocolError(f"lost partition {pid} with pending data")
            batch = drained[pid]
            heads = _Heads(group)
            self._live = (pid, heads)
            # Section IV-D's order: stream by stream, every block that
            # fills while the buffer is appended; then, the buffer
            # drained, each mini-group's partial blocks.
            for sid in range(self.geometry.n_streams):
                sub = batch.by_stream(sid)
                if len(sub):
                    yield from self._full_block_steps(group, heads, sid, sub)
            yield from self._partial_block_steps(group, heads)
            self._live = None
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
        expired = sum(group.count_before(cutoff) for group in self.groups.values())
        cost = self.cost_model.expire_cost(expired * self.geometry.tuple_bytes)

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
        self, group: PartitionGroup, heads: _Heads, sid: int, sub: TupleBatch
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
        units; ``admit_through`` keeps the counts, the group's bytes and
        the counters in that state after every retire, whatever the
        range.
        """
        geometry = self.geometry
        tb, tpb = geometry.tuple_bytes, geometry.tuples_per_block
        arrival_bucket, gvals = group.route(sub.key)
        # The mini-groups the arrivals reach, each with what its head
        # already holds and how many arrive.
        per_bucket = np.bincount(arrival_bucket, minlength=len(heads.fill))
        slots = np.flatnonzero(per_bucket)
        arrived = per_bucket[slots]
        held = heads.fill[slots, sid]
        # Lined up mini-group by mini-group: its head's tuples first,
        # then its arrivals in arrival order (one stable sort).
        line = (arrival_bucket, bit_reverse(gvals), sub.ts, sub.seq)
        taken = heads.take(sid, slots)
        if len(taken[0]):
            line = tuple(np.concatenate(cols) for cols in zip(taken, line))
        if len(slots) > 1:
            order = small_int_order(line[0], len(heads.fill))
            line = tuple(col[order] for col in line)
        _bucket, rkey, ts, seq = line
        sizes = held + arrived
        blocks = sizes // tpb
        rem = sizes - blocks * tpb
        #: first[s] is mini-group s's first unit, first[-1] the count.
        first = np.concatenate(([0], np.cumsum(blocks)))
        n_units = int(first[-1])
        unit_slot = np.repeat(np.arange(len(slots)), blocks)
        # admitted[j]: arrivals in the windows once unit j's block is
        # full; admitted[n_units]: all of them.
        cuts = np.concatenate(([0], np.cumsum(arrived)))
        admitted = np.append(
            (cuts[:-1] - held - tpb * first[:-1])[unit_slot]
            + tpb * np.arange(1, n_units + 1),
            len(sub),
        )
        # Whole blocks fill the start of each mini-group's line; the
        # rest of it (under a block) is its head after the step.
        at_rest = np.arange(int(rem.sum())) + np.repeat(tpb * first[1:], rem)
        heads.put(sid, np.repeat(slots, rem), (rkey[at_rest], ts[at_rest], seq[at_rest]))
        in_full = np.ones(len(rkey), dtype=np.bool_)
        in_full[at_rest] = False
        full = (rkey[in_full], ts[in_full], seq[in_full])

        rows: _Rows | None = None
        if geometry.n_streams == 2 and n_units:
            matches = self._join_step(group, sid, full)
            rows = _Rows(
                matches.newer_ts, _oriented(matches, sid), matches.offsets[::tpb]
            )

        base_committed = heads.committed[slots, sid]
        in_slot = base_committed + held
        first_unit, first_arrival = first[:-1], cuts[:-1]
        window = in_slot
        in_windows = 0

        def admit_through(unit: int) -> None:
            """Units below *unit* retired, the next one's block full."""
            nonlocal window, in_windows
            upto = int(admitted[unit])
            done = np.minimum(np.maximum(unit - first_unit, 0), blocks)
            now = in_slot + np.minimum(np.maximum(upto - first_arrival, 0), arrived)
            committed = base_committed + tpb * done
            heads.committed[slots, sid] = committed
            heads.fill[slots, sid] = now - committed
            moved = upto - in_windows
            if moved:
                group.total_bytes += geometry.block_bytes * int(
                    (-(-now // tpb) - -(-window // tpb)).sum()
                )
                window, in_windows = now, upto
                with self._buf_lock:
                    self._pending_bytes -= moved * tb
                self.metrics.tuples_processed += moved

        base = 0

        def retire(lo: int, hi: int, emit_times: FloatArray) -> None:
            lo, hi = base + lo, base + hi
            if rows is not None:
                admit_through(hi)
                self._record(group.pid, rows, lo, hi, emit_times)
                return
            for unit, emit in zip(range(lo, hi), emit_times.tolist()):
                block = t.cast(
                    Columns, tuple(col[unit * tpb : (unit + 1) * tpb] for col in full)
                )
                self._flush_composites(group, sid, block, emit)
                admit_through(unit + 1)

        admit_through(0)
        # The block nested-loop scan reads every committed block of the
        # opposite windows, whatever the fresh keys are; this stream's
        # own commits do not change them.
        blocks_held = -(-heads.committed[slots] // tpb)
        scanned = (blocks_held.sum(axis=1) - blocks_held[:, sid]) * geometry.block_bytes
        per_unit = scanned[unit_slot]
        for base, stop, spill in self._cost_runs(n_units):
            yield Step(
                "probe", self._probe_costs(tpb, per_unit[base:stop], spill), retire
            )

    def _partial_block_steps(
        self, group: PartitionGroup, heads: _Heads
    ) -> t.Iterator[Step]:
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
        # One row per mini-group, one column per stream.
        fresh, committed = heads.fill, heads.committed
        at = np.flatnonzero(fresh)  # mini-group by mini-group, stream 0 first
        if not len(at):
            return
        # A unit scans the committed blocks of its mini-group's other
        # windows; by the time it runs, those of the lower streams
        # include their head blocks.
        before, after = -(-committed // tpb), -(-(committed + fresh) // tpb)
        lower = np.cumsum(after, axis=1) - after
        higher = np.cumsum(before[:, ::-1], axis=1)[:, ::-1] - before
        scanned = (lower + higher).ravel()[at] * geometry.block_bytes
        unit_fresh = fresh.ravel()[at]
        unit_sid = at % n_streams
        # Each stream's heads lie mini-group by mini-group, so unit
        # (b, s) is rows [offset[s][b], offset[s][b + 1]) of stream s's.
        offset = np.vstack(
            (np.zeros(n_streams, np.int64), np.cumsum(fresh, axis=0))
        ).T.copy()

        rows: _Rows | None = None
        if n_streams == 2:
            by_stream = [
                self._join_step(group, sid, heads.cols[sid])
                if len(heads.cols[sid][0])
                else None
                for sid in (0, 1)
            ]
            rows = self._in_unit_order(unit_sid, unit_fresh, by_stream)

        base = 0
        flat_committed, flat_fresh = committed.reshape(-1), fresh.reshape(-1)

        def retire(lo: int, hi: int, emit_times: FloatArray) -> None:
            lo, hi = base + lo, base + hi
            if rows is not None:
                done = at[lo:hi]
                flat_committed[done] += flat_fresh[done]
                flat_fresh[done] = 0
                self._record(group.pid, rows, lo, hi, emit_times)
                return
            for unit, emit in zip(at[lo:hi].tolist(), emit_times.tolist()):
                b, sid = divmod(unit, n_streams)
                start, stop = offset[sid, b], offset[sid, b + 1]
                block = t.cast(
                    Columns, tuple(col[start:stop] for col in heads.cols[sid])
                )
                self._flush_composites(group, sid, block, emit)
                flat_committed[unit] += flat_fresh[unit]
                flat_fresh[unit] = 0

        for base, stop, spill in self._cost_runs(len(at)):
            costs = self._probe_costs(unit_fresh[base:stop], scanned[base:stop], spill)
            yield Step("probe", costs, retire)

    def _join_step(
        self, group: PartitionGroup, sid: int, blocks: Columns
    ) -> ProbeResult:
        """Probe the opposite stream's run with *blocks* — any number of
        head blocks of stream *sid* in the order of their units — then
        add them to their own stream's run; the rows come back in unit
        order.

        The blocks are sorted by run key once, and that one order
        serves both: the probe searches the run with ascending keys
        (:mod:`repro.core.probe` says why that is cheaper) and the run
        takes the sorted blocks without sorting them again.

        That runs the group's run *ahead* of the windows an observer
        sees (the counts ``admit_through`` and the partial step keep): a
        block is in the run from here, committed only once its unit is
        retired.  A later step of the same pass needs exactly that (the
        partial blocks of stream 1 must see the partial blocks of stream
        0, whose units are interleaved with their own), and nothing else
        can look: a pass holds the slave's state lock from its first
        unit to its last.
        """
        rkey, ts, seq = blocks
        order = np.argsort(rkey, kind="stable")
        matches = group.probe(1 - sid, ts, rkey, seq, self.collect_pairs, order)
        group.commit(sid, rkey[order], ts[order], seq[order])
        return matches

    def _in_unit_order(
        self,
        unit_sid: npt.NDArray[np.intp],
        unit_fresh: npt.NDArray[np.int64],
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
        self, group: PartitionGroup, sid: int, block: Columns, emit_time: float
    ) -> None:
        """n-way join: one unit probes when it is retired, against runs
        that hold every unit retired before it."""
        composites = group.flush_composites(sid, block, self.collect_pairs)
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


class _Heads:
    """One partition-group's head blocks for the length of a pass.

    A head block is never a buffer: its tuples are rows of the step
    that admitted them (or installed head tuples taken from the group),
    kept per stream mini-group by mini-group until the partial-block
    step flushes them.  ``committed`` and ``fill`` count, per mini-group
    (directory order) and stream, what the paper's windows hold between
    two retired units — the group's run is ahead of them inside a step.
    """

    __slots__ = ("cols", "bucket", "committed", "fill")

    def __init__(self, group: PartitionGroup) -> None:
        self.committed, self.fill = group.counts()
        self.cols: list[Columns] = []
        self.bucket: list[npt.NDArray[np.intp]] = []
        for cols in group.take_held():
            at = group.bucket_of(cols[0])
            if len(at):
                order = small_int_order(at, len(self.fill))
                at, cols = at[order], t.cast(Columns, tuple(col[order] for col in cols))
            self.bucket.append(at)
            self.cols.append(cols)

    def take(
        self, sid: int, slots: npt.NDArray[np.intp]
    ) -> tuple[npt.NDArray[np.intp], HashArray, TsArray, SeqArray]:
        """Remove stream *sid*'s head rows of the mini-groups *slots*:
        ``(bucket, *columns)``, mini-group by mini-group."""
        bucket = self.bucket[sid]
        rkey, ts, seq = self.cols[sid]
        if not len(bucket):
            return bucket, rkey, ts, seq
        mine = np.isin(bucket, slots)
        keep = ~mine
        self.bucket[sid] = bucket[keep]
        self.cols[sid] = (rkey[keep], ts[keep], seq[keep])
        return bucket[mine], rkey[mine], ts[mine], seq[mine]

    def put(self, sid: int, bucket: npt.NDArray[np.intp], cols: Columns) -> None:
        """Add head rows *cols* of mini-groups *bucket* (in order, and
        none of them holding heads of stream *sid* now)."""
        if len(self.bucket[sid]):
            at = np.concatenate((self.bucket[sid], bucket))
            order = small_int_order(at, len(self.fill))
            self.bucket[sid] = at[order]
            self.cols[sid] = t.cast(
                Columns,
                tuple(
                    np.concatenate((old, new))[order]
                    for old, new in zip(self.cols[sid], cols)
                ),
            )
        else:
            self.bucket[sid], self.cols[sid] = bucket, cols


def _oriented(matches: ProbeResult, sid: int) -> npt.NDArray[np.int64] | None:
    """The ``(probe seq, window seq)`` pairs of a stream-*sid* probe as
    ``(stream-0 seq, stream-1 seq)``; None when none were collected."""
    pairs = matches.pairs
    return pairs if pairs is None or sid == 0 else pairs[:, ::-1]
