"""The slave-side join module (Section IV-D).

The join module owns a set of partition-groups, a partitioned stream
buffer (one mini-buffer per partition, as at the master), and turns
buffered tuples into a sequence of **work units**.  Each unit carries
the simulated CPU cost of one step of the paper's algorithm:

* ``expire``  — dropping expired blocks from the front of every window;
* ``probe``   — flushing a fresh head block: joining the fresh tuples
  against the opposite stream's committed window in the same
  mini-partition-group, charged the paper's block nested-loop scan of
  that window's committed blocks;
* ``tune``    — splitting an oversized mini-group / merging undersized
  buddies (fine-grained partition tuning).

The slave's join process drives the generator::

    for unit in module.work_units():
        yield runtime.cpu(unit.cost)      # simulated work
        unit.execute(runtime.now())       # mutate state, emit outputs

Laziness is essential: a unit's cost is computed from the state *at
generation time*, and the generator only resumes after the previous
unit has executed, so cost and effect always agree.
"""

from __future__ import annotations

import threading
import typing as t
from collections import deque

import numpy as np

from repro.core.costmodel import CostModel
from repro.core.exthash import Bucket
from repro.core.hashing import partition_of
from repro.core.metrics import SlaveMetrics
from repro.core.partition_group import (
    JoinGeometry,
    MiniGroup,
    PartitionGroup,
    PartitionGroupState,
)
from repro.core.probe import ProbeResult
from repro.core.protocol import Shipment
from repro.data.tuples import KeyArray, SeqArray, TsArray, TupleBatch
from repro.errors import ProtocolError
from repro.obs.events import DirectoryEvent, MergeEvent, SplitEvent
from repro.obs.tracer import NULL_TRACER, Tracer


class WorkUnit:
    """One costed step of join processing."""

    __slots__ = ("kind", "cost", "_run")

    def __init__(
        self, kind: str, cost: float, run: t.Callable[[float], None]
    ) -> None:
        self.kind = kind
        self.cost = cost
        self._run = run

    def execute(self, emit_time: float) -> None:
        self._run(emit_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkUnit {self.kind} cost={self.cost:.3g}s>"


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
        now_fn: t.Callable[[], float] | None = None,
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
        #: Clock for trace timestamps (the runtime's ``now``); tuning
        #: runs inside ``WorkUnit.execute`` so this equals ``emit_time``.
        self._now_fn = now_fn
        self.groups: dict[int, PartitionGroup] = {}
        #: Guards the mini-buffers (the dict and its deques) and the two
        #: scalars derived from them.  On the wall-clock backends the
        #: comm thread files shipments (:meth:`enqueue`) while the join
        #: thread drains, so every access goes through this mutex; it
        #: covers queue bookkeeping only and is never held across a
        #: probe, an expiry or any other work unit.
        self._buf_lock = threading.Lock()
        self._minibuffers: dict[int, deque[TupleBatch]] = {}
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
        now = self._now_fn() if self._now_fn is not None else 0.0
        self.tracer.emit(
            DirectoryEvent(t=now, node=self.node_id, pid=pid, depth=depth)
        )

    def extract_partition(self, pid: int) -> tuple[PartitionGroupState, TupleBatch]:
        """Drain window state + unprocessed buffered tuples of *pid*
        (the supplier side of a state move)."""
        group = self.groups.pop(pid, None)
        if group is None:
            raise ProtocolError(f"node {self.node_id} does not own partition {pid}")
        state = group.extract_state()
        with self._buf_lock:
            buffered = TupleBatch.concat(list(self._minibuffers.pop(pid, ())))
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
        batch is inspected, not just the head: a later batch can hold
        *older* tuples — a restore replays the checkpointed mini-buffer
        followed by logged shipments whose epochs overlap it, and a
        post-move shipment can trail tuples predating an earlier one —
        and a cutoff derived from the head alone would expire window
        tuples those batches still need to join against."""
        oldest = float("inf")
        for queue in self._minibuffers.values():
            for batch in queue:
                oldest = min(oldest, float(batch.ts.min()))
        return oldest

    def snapshot_partition(self, pid: int) -> tuple[PartitionGroupState, TupleBatch]:
        """Non-destructive copy of *pid*'s window state + unprocessed
        buffered tuples (the owner side of a replication checkpoint)."""
        group = self.groups.get(pid)
        if group is None:
            raise ProtocolError(f"node {self.node_id} does not own partition {pid}")
        state = group.snapshot_state()
        with self._buf_lock:
            queued = list(self._minibuffers.get(pid, ()))
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
            self._minibuffers[pid].append(batch)
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
        return sum(g.bytes_used for g in self.groups.values())

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
    def work_units(self) -> t.Iterator[WorkUnit]:
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
        yield self._expire_unit(oldest - self.geometry.window_seconds)
        for pid in sorted(drained):
            group = self.groups.get(pid)
            if group is None:  # moved away mid-backlog; cannot happen
                raise ProtocolError(f"lost partition {pid} with pending data")
            yield from self._probe_units(group, drained[pid])
            if self.geometry.fine_tuning:
                yield from self._tuning_units(group)

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
                pid: queue.popleft()
                for pid, queue in self._minibuffers.items()
                if queue
            }
            if out:
                self._oldest_pending_ts = self._oldest_queued_ts()
        return oldest, out

    # -- unit builders ----------------------------------------------------------
    def _expire_unit(self, cutoff: float) -> WorkUnit:
        expired_bytes = 0
        tb = self.geometry.tuple_bytes
        for group in self.groups.values():
            for bucket in group.directory.buckets():
                for window in bucket.payload.windows:
                    expired_bytes += window.committed.count_before(cutoff) * tb
        cost = self.cost_model.expire_cost(expired_bytes)

        def run(_emit_time: float) -> None:
            for group in self.groups.values():
                group.expire_before(cutoff)

        return WorkUnit("expire", cost, run)

    def _probe_units(
        self, group: PartitionGroup, batch: TupleBatch
    ) -> t.Iterator[WorkUnit]:
        """One ``probe`` unit per head block, as Section IV-D flushes
        them: stream by stream, every block that fills while its
        mini-group's share of *batch* is appended; then, the buffer
        drained, each mini-group's partial blocks, stream 0 before
        stream 1 (the order that finds a fresh/fresh pair exactly once).

        Units are the granularity of what is *charged* and of when
        outputs are emitted.  The matches of the two-stream join are
        computed a whole step at a time (:meth:`_join_step`): mini-groups
        are disjoint in key space, so probing the group's run with all
        the full blocks of a stream, or all the partial ones, finds for
        each block exactly the rows a probe of its own mini-group would,
        and each unit slices its rows out.
        """
        geometry = self.geometry
        tb, tpb = geometry.tuple_bytes, geometry.tuples_per_block
        pairwise = geometry.n_streams == 2
        for sid in range(geometry.n_streams):
            sub = batch.by_stream(sid)
            if not len(sub):
                continue
            patterns, buckets = group.route(sub.key)
            # One stable sort groups the tuples by mini-group, each
            # mini-group's in arrival order.
            order = np.argsort(patterns, kind="stable")
            ts, key, seq = sub.ts[order], sub.key[order], sub.seq[order]
            slots = sorted(buckets)
            cuts = np.searchsorted(patterns[order], slots).tolist() + [len(order)]
            matches: ProbeResult | None = None
            if pairwise:
                # What will fill whole blocks: per mini-group, the tuples
                # already in its head, then as many of its arrivals as
                # round the total down to a multiple of the block size.
                blocks: list[tuple[TsArray, KeyArray, SeqArray]] = []
                for slot, lo, hi in zip(slots, cuts, cuts[1:]):
                    window = buckets[slot].payload.windows[sid]
                    held = window.n_fresh
                    n_full = (held + hi - lo) // tpb * tpb
                    if n_full:
                        if held:
                            blocks.append(window.fresh_view())
                        stop = lo + n_full - held
                        blocks.append((ts[lo:stop], key[lo:stop], seq[lo:stop]))
                if blocks:
                    matches = self._join_step(group, sid, blocks)
            done = 0
            for slot, lo, hi in zip(slots, cuts, cuts[1:]):
                mini = buckets[slot].payload
                window = mini.windows[sid]
                pos = lo
                while pos < hi:
                    take = min(window.head_space(), hi - pos)
                    window.append_fresh(
                        ts[pos : pos + take],
                        key[pos : pos + take],
                        seq[pos : pos + take],
                    )
                    with self._buf_lock:
                        self._pending_bytes -= take * tb
                    self.metrics.tuples_processed += take
                    pos += take
                    if window.head_space() == 0:
                        # Head block full: it joins now (Section IV-D).
                        yield self._probe_unit(group, mini, sid, matches, done)
                        done += tpb
        # The partition's buffer is drained: every head block is as full
        # as this pass makes it, so both partial-block steps can run now.
        minis = [bucket.payload for bucket in group.directory.buckets()]
        partial: list[ProbeResult | None] = [None] * geometry.n_streams
        if pairwise:
            for sid in range(geometry.n_streams):
                blocks = [
                    mini.windows[sid].fresh_view()
                    for mini in minis
                    if mini.windows[sid].n_fresh
                ]
                if blocks:
                    partial[sid] = self._join_step(group, sid, blocks)
        done_by_stream = [0] * geometry.n_streams
        for mini in minis:
            for sid in range(geometry.n_streams):
                n_fresh = mini.windows[sid].n_fresh
                if n_fresh:
                    yield self._probe_unit(
                        group, mini, sid, partial[sid], done_by_stream[sid]
                    )
                    done_by_stream[sid] += n_fresh

    def _join_step(
        self,
        group: PartitionGroup,
        sid: int,
        blocks: list[tuple[TsArray, KeyArray, SeqArray]],
    ) -> ProbeResult:
        """Probe the opposite stream's run with *blocks* — one or more
        head blocks of stream *sid*, as ``(ts, key, seq)``, in the order
        their units will be yielded — then add them to their own
        stream's run.

        That runs the group's runs *ahead* of its windows: a block is
        in the run from here, in its window only once its unit executes
        :meth:`StreamWindow.commit_fresh`.  A later step of the same pass
        needs exactly that (the partial blocks of stream 1 must see the
        partial blocks of stream 0, whose units are interleaved with
        their own), and nothing else can look: a pass holds the slave's
        state lock from its first unit to its last.
        """
        ts, key, seq = (np.concatenate(cols) for cols in zip(*blocks))
        matches = group.probe(1 - sid, ts, key, seq, self.collect_pairs)
        group.commit(sid, ts, key, seq)
        return matches

    def _probe_unit(
        self,
        group: PartitionGroup,
        mini: MiniGroup,
        sid: int,
        matches: ProbeResult | None,
        first: int,
    ) -> WorkUnit:
        """The unit flushing *mini*'s head block of stream *sid*: tuples
        ``[first, first + n_fresh)`` of the step *matches* was computed
        for (``None``: the n-way join, which probes per unit)."""
        window = mini.windows[sid]
        # The block nested-loop scan reads every committed block of the
        # opposite windows, whatever the fresh keys are.
        scanned = sum(
            w.committed_bytes for k, w in enumerate(mini.windows) if k != sid
        )
        spilled = int(scanned * self.spill_fraction())
        cost = self.cost_model.probe_cost(window.n_fresh, scanned, spilled)
        if spilled:
            self.metrics.disk_bytes_read += spilled
        last = first + window.n_fresh

        def run(emit_time: float) -> None:
            if matches is None:
                composites = group.flush_composites(mini, sid, self.collect_pairs)
                newer_ts, rows = composites.newest_ts, composites.members
            else:
                lo, hi = matches.offsets[first], matches.offsets[last]
                newer_ts = matches.newer_ts[lo:hi]
                rows = None if matches.pairs is None else matches.pairs[lo:hi]
                if sid == 1 and rows is not None:
                    # Normalize the pairwise orientation to
                    # (stream-0 seq, stream-1 seq).
                    rows = rows[:, ::-1]
                window.commit_fresh()
            self.metrics.record_outputs(emit_time, newer_ts)
            if self.collect_pairs and rows is not None and len(rows):
                self.metrics.record_pairs(group.pid, rows)

        return WorkUnit("probe", cost, run)

    def _tuning_units(self, group: PartitionGroup) -> t.Iterator[WorkUnit]:
        # Split every oversized mini-group; children may still overflow
        # under heavy key skew, so iterate to a fixed point.
        while True:
            oversized, undersized = group.tuning_candidates()
            if not oversized:
                break
            for bucket, nbytes in oversized:
                cost = self.cost_model.tuning_cost(nbytes)

                def run(
                    _emit: float,
                    b: Bucket[MiniGroup] = bucket,
                    g: PartitionGroup = group,
                ) -> None:
                    moved = g.split_bucket(b)
                    self.metrics.splits += 1
                    if self.tracer.enabled:
                        self.tracer.emit(
                            SplitEvent(
                                t=_emit,
                                node=self.node_id,
                                pid=g.pid,
                                n_buckets=g.n_mini_groups,
                                depth=g.directory.global_depth,
                                bytes=moved,
                            )
                        )

                yield WorkUnit("tune", cost, run)
        # One merge round per pass (further merges happen next pass).
        for bucket, nbytes in undersized:
            if group.directory.bucket_for(bucket.pattern) is not bucket:
                continue  # already merged away this round
            buddy = group.directory.buddy_of(bucket)
            if buddy is None:
                continue
            combined = nbytes + buddy.payload.bytes_used
            if combined >= 2 * self.geometry.theta_bytes:
                continue
            cost = self.cost_model.tuning_cost(combined)

            def run(
                _emit: float,
                b: Bucket[MiniGroup] = bucket,
                g: PartitionGroup = group,
            ) -> None:
                touched = g.try_merge_bucket(b)
                if touched:
                    self.metrics.merges += 1
                    if self.tracer.enabled:
                        self.tracer.emit(
                            MergeEvent(
                                t=_emit,
                                node=self.node_id,
                                pid=g.pid,
                                n_buckets=g.n_mini_groups,
                                depth=g.directory.global_depth,
                                bytes=touched,
                            )
                        )

            yield WorkUnit("tune", cost, run)
