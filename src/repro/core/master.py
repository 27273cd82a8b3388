"""The master node (Algorithm 1).

The master ingests the streams into its partitioned buffer, distributes
the buffered tuples to the active slaves at every distribution epoch
(sub-group by sub-group, serially within a group — the source of the
communication-time divergence of Figure 12), and runs a *control round*
at every reorganization epoch: collect the slaves'
:class:`~repro.core.protocol.SlaveSync` load reports; **plan** moves and
degree-of-declustering changes with the
:class:`~repro.core.declustering.DeclusteringController`; **apply** the
plan to the coordinator state (:mod:`repro.core.coordinator`: partition
mapping, backup placement), telling the standby
before any slave acts; **serve** each slave its
:class:`~repro.core.protocol.ReorgOrder` (new slot schedule and clock
stamp — Algorithm 1 line 18), ship to non-participants at once, collect
the participants' :class:`~repro.core.protocol.MoveAck`, then ship to
them (the paper's ordering); **close** by installing the new active set.

Failure handling (fault plane, see DESIGN.md "Fault model").  When the
run carries a fault plan, every scheduled receive from a slave is armed
with a detection timeout.  A slave that stays silent is declared dead
at that epoch boundary and *fenced*: its channel towards the master is
drained and a ``Halt`` is sent, so a merely-slow slave shuts down
cleanly instead of wedging the fixed schedule (suspected-dead becomes
actually-stopped — the classic fail-stop conversion).  The next control
round — at a plain epoch a *recovery round*, the same four steps folded
into the slots — hands the dead slave's partition-groups to survivors:
rebuilt at a live backup from checkpoint + log with replication on,
else adopted with empty window state (the lost window is a documented
deviation; master-buffered tuples are *not* lost).  ``state.active``
always mirrors the schedule last broadcast to the slaves — slaves that
die mid-round stay in it until the next recovery round re-plans, so
master-side slot offsets never diverge from slave-side ones.
"""

from __future__ import annotations

import copy
import dataclasses
import typing as t

import numpy as np

from repro.config import SystemConfig
from repro.core.buffer import MasterBuffer
from repro.core.coordinator import CoordinatorState
from repro.core.declustering import (
    DeclusteringController,
    ReorgPlan,
    plan_restores,
)
from repro.core.metrics import MasterMetrics
from repro.core.protocol import (
    Activate,
    Checkpoint,
    Halt,
    MoveAck,
    MoveDirective,
    ReorgOrder,
    Restore,
    Shipment,
    SlaveSync,
    StandbyPlan,
    StandbySync,
)
from repro.core.subgroups import (
    SlotSchedule,
    build_schedules,
    is_reorg_epoch,
    round_slots,
)
from repro.data.tuples import TupleBatch
from repro.faults.markers import peer_silent
from repro.net.comm import Endpoint
from repro.obs.events import (
    CheckpointEvent,
    DodEvent,
    EpochEvent,
    FaultEvent,
    RecoveryEvent,
    ReorgEvent,
    RestoreEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer


#: A node-loop step: yields awaitables and is sent their results.
_Steps = t.Generator[t.Any, t.Any, None]


@dataclasses.dataclass
class _Round:
    """The plan of one control round.

    A reorganization round may carry moves and DoD changes; a recovery
    round (or a reorganization round with failures to recover) carries
    only the dead slaves' partition-groups, adopted empty or restored.
    """

    epoch: int
    reorg: bool
    moves: tuple[MoveDirective, ...]
    activate: tuple[int, ...]
    deactivate: tuple[int, ...]
    #: Dead slaves' partition-groups per survivor, re-owned empty ...
    adopt: dict[int, tuple[int, ...]]
    #: ... or rebuilt from the survivor's backup replica.
    restore: dict[int, tuple[int, ...]]
    new_active: list[int]
    schedules: dict[int, SlotSchedule]
    #: The failure records this round recovers, a prefix of
    #: ``CoordinatorState.unrecovered``.
    recovering: list[dict[str, t.Any]]
    #: Partitions each owner checkpoints; known once the plan is applied.
    checkpoints: dict[int, tuple[int, ...]] = dataclasses.field(
        default_factory=dict
    )

    @property
    def standby(self) -> StandbyPlan:
        """The plan as :meth:`CoordinatorState.apply_plan` applies it."""
        restores = [p for pids in self.restore.values() for p in pids]
        remaps = [
            (p, s)
            for plan in (self.adopt, self.restore)
            for s, pids in plan.items()
            for p in pids
        ]
        return StandbyPlan(
            self.epoch,
            self.moves,
            tuple(self.new_active),
            self.deactivate,
            remaps=tuple(sorted(remaps)),
            restores=tuple(sorted(restores)),
        )

    def acks(self, s: int) -> int:
        """How many :class:`MoveAck` slave *s* owes this round."""
        return (
            sum((m.src == s) + (m.dst == s) for m in self.moves)
            + len(self.adopt.get(s, ()))
            + len(self.restore.get(s, ()))
        )

    def order(self, s: int, clock: float) -> ReorgOrder:
        return ReorgOrder(
            self.epoch,
            outgoing=tuple(m for m in self.moves if m.src == s),
            incoming=tuple(m for m in self.moves if m.dst == s),
            deactivate=s in self.deactivate,
            clock=clock,
            schedule=self.schedules.get(s),
            adopt=self.adopt.get(s, ()),
            checkpoint_pids=self.checkpoints.get(s, ()),
        )


class MasterNode:
    """Master process: tuple ingestion, distribution, reorganization.

    The durable coordinator state lives in :attr:`state`; this class
    performs the sends, receives, timing, tracing and counting around
    its transitions.
    """

    def __init__(
        self,
        cfg: SystemConfig,
        runtime: t.Any,
        comm: Endpoint,
        workload: t.Any,
        controller: DeclusteringController,
        metrics: MasterMetrics,
        slave_ids: t.Sequence[int],
        tracer: Tracer = NULL_TRACER,
        standby_id: int | None = None,
    ) -> None:
        self.cfg = cfg
        self.rt = runtime
        self.comm = comm
        self.buffer = MasterBuffer(cfg.npart, cfg.tuple_bytes)
        self.workload = workload
        self.controller = controller
        self.metrics = metrics
        self.tracer = tracer
        self.all_slaves = sorted(slave_ids)
        self.state = CoordinatorState.initial(
            cfg.replication, cfg.npart, self.all_slaves[: cfg.n_active_initial]
        )
        self.replication = cfg.replication != "off"
        #: Standby coordinator mirroring this master's durable state
        #: (``None``: no standby, zero behavior change).
        self.standby_id = standby_id
        #: Slaves shipped to and pair chunks banked this round, for the
        #: end-of-round :class:`StandbySync`.
        self._round_shipped: list[int] = []
        self._round_pairs: list[tuple[int, int, int, np.ndarray]] = []
        #: Latest load report per slave (refreshed every sync).
        self.latest_reports: dict[int, t.Any] = {}
        #: Detection timeout armed on scheduled receives; ``None`` with
        #: an empty fault plan (no timers, byte-identical runs).
        self._detect_timeout: float | None = (
            cfg.faults.effective_timeout(cfg.dist_epoch)
            if cfg.faults.enabled
            else None
        )
        #: Pair chunks retired to the master by checkpoints and state
        #: moves — they survive any later crash of the producing slave.
        #: Keyed ``(slave, pid, epoch)`` so replication to the standby
        #: and post-takeover Rejoin resends deduplicate exactly.
        self._pair_store: dict[tuple[int, int, int], np.ndarray] = {}

    @property
    def inactive(self) -> list[int]:
        """Live slaves outside the active set."""
        state = self.state
        return sorted(set(self.all_slaves) - set(state.active) - state.dead)

    def run(self, k0: int = 0) -> _Steps:
        """The master's main loop (a node generator) from round *k0* on.

        ``k0 > 0`` is the takeover path: the standby injects the
        replicated coordinator state and resumes the schedule exactly
        where the dead master left off.
        """
        cfg, tracer = self.cfg, self.tracer
        if tracer.enabled and k0 == 0:
            # Record the initial degree of declustering so every trace
            # carries the DoD baseline even when it never changes.
            tracer.emit(
                DodEvent(
                    t=self.rt.now(),
                    node=self.comm.node_id,
                    epoch=-1,
                    n_active=len(self.state.active),
                    activated=(),
                    deactivated=(),
                )
            )
        k = k0
        while (k + 2) * cfg.dist_epoch <= cfg.run_seconds + 1e-9:
            reorg = is_reorg_epoch(cfg, k)
            if tracer.enabled:
                tracer.emit(
                    EpochEvent(
                        t=(k + 1) * cfg.dist_epoch,
                        node=self.comm.node_id,
                        epoch=k,
                        phase="reorg" if reorg else "dist",
                        active=len(self.state.active),
                        buffered_bytes=self.buffer.total_bytes,
                    )
                )
            if reorg:
                yield from self._reorg_round(k)
            elif self.state.unrecovered:
                yield from self._recovery_round(k)
            else:
                yield from self._distribution_round(k)
            if self.standby_id is not None:
                yield from self._send_standby_sync(k)
            self.metrics.epochs += 1
            k += 1
        yield from self._halt_round(k)

    # -- failure detection (fault plane) -----------------------------------
    def _sync_or_detect(
        self, s: int, k: int
    ) -> t.Generator[t.Any, t.Any, t.Any]:
        """Receive a slave's sync, or declare it dead on silence.

        Returns the :class:`SlaveSync` (refreshing the load report), or
        ``None`` after fencing a silent slave.
        """
        sync = yield from self.comm.recv_expect(
            s, SlaveSync, timeout=self._detect_timeout
        )
        if peer_silent(sync):
            yield from self._on_slave_silent(s, k, "sync")
            return None
        self.latest_reports[s] = sync.report
        return sync

    def _on_slave_silent(self, s: int, k: int, where: str) -> _Steps:
        """Fence slave *s* and record the failure for recovery.

        Fencing makes "suspected dead" equivalent to "stopped": the
        slave's channel towards the master is drained (its pending and
        future sends complete silently) and a ``Halt`` is sent, so a
        live-but-late slave shuts down cleanly while a crashed one
        absorbs the Halt in the transport's buffered-write model.
        """
        now = self.rt.now()
        report = self.latest_reports.get(s)
        self.state.fence(
            s, k, now, where, 0 if report is None else report.window_bytes
        )
        self.comm.drain(s)
        yield self.comm.send(s, Halt(k))
        if self.tracer.enabled:
            # ``info`` carries the armed detection timeout.  An
            # unlimited timeout (None: silence detected via NodeDown,
            # not a timer) is encoded as -1.0 — 0.0 would be
            # indistinguishable from a zero-second timeout.
            timeout = (
                -1.0 if self._detect_timeout is None else self._detect_timeout
            )
            self.tracer.emit(
                FaultEvent(
                    t=now,
                    node=self.comm.node_id,
                    action="detect",
                    target=s,
                    epoch=k,
                    info=timeout,
                )
            )
            self.tracer.emit(
                FaultEvent(
                    t=now,
                    node=self.comm.node_id,
                    action="fence",
                    target=s,
                    epoch=k,
                )
            )

    def _finish_recovery(self, plan: _Round) -> None:
        """Stamp recovery latency on the failure records *plan* covered.

        Slaves detected dead later in the same round stay queued for
        the next recovery round.  With no survivor nothing was
        recovered, and the records are given up instead.
        """
        records = plan.recovering
        if not records:
            return
        if not plan.new_active:
            self.state.give_up(records)
            return
        now = self.rt.now()
        self.state.finish_recovery(records, now)
        if self.tracer.enabled:
            oldest = min(r["detected_at"] for r in records)
            self.tracer.emit(
                RecoveryEvent(
                    t=now,
                    node=self.comm.node_id,
                    epoch=plan.epoch,
                    dead=tuple(sorted(r["slave"] for r in records)),
                    pids=tuple(
                        sorted(p for pids in plan.adopt.values() for p in pids)
                    ),
                    adopters=tuple(sorted(plan.adopt)),
                    latency=now - oldest,
                )
            )
            for s, pids in sorted(plan.restore.items()):
                self.tracer.emit(
                    RestoreEvent(
                        t=now,
                        node=self.comm.node_id,
                        epoch=plan.epoch,
                        restorer=s,
                        pids=pids,
                        latency=now - oldest,
                    )
                )

    # -- replication (state backup plane) ----------------------------------
    @property
    def pair_rows(self) -> list[np.ndarray]:
        """Pair chunks retired to the master by checkpoints and moves."""
        return [self._pair_store[key] for key in sorted(self._pair_store)]

    def _bank_pairs(
        self, slave: int, pid: int, epoch: int, rows: np.ndarray
    ) -> None:
        """Bank one pair chunk durably, deduplicating on its tag.

        A chunk can legitimately arrive twice — once at the dead master
        (replicated to the standby) and again in the producing slave's
        post-takeover :class:`~repro.core.protocol.Rejoin` — so the
        first banking of a tag wins.
        """
        key = (slave, pid, epoch)
        if key in self._pair_store:
            return
        self._pair_store[key] = rows
        if self.standby_id is not None:
            self._round_pairs.append((slave, pid, epoch, rows))

    def _send_standby_sync(self, k: int) -> _Steps:
        """End-of-round sync: the state, and how to redo the round.

        Sent after every round the master survives; receipt of sync
        ``k`` tells the standby the whole of round ``k`` executed, so a
        later master death is always pinned to round ``k + 1``.
        """
        assert self.standby_id is not None
        # A snapshot: the standby adopts it, and this master goes on
        # changing its own.
        sync = StandbySync(
            k,
            copy.deepcopy(self.state),
            shipped=tuple(self._round_shipped),
            pairs=tuple(self._round_pairs),
        )
        self._round_shipped = []
        self._round_pairs = []
        yield self.comm.send(self.standby_id, sync)

    def _accept_checkpoint(self, s: int, k: int, cp: Checkpoint) -> None:
        """Bank a checkpoint: retire its pairs, queue it to the backup."""
        if cp.pairs is not None and len(cp.pairs):
            self._bank_pairs(s, cp.pid, cp.epoch, cp.pairs)
        backup = self.state.accept_checkpoint(cp)
        if backup is None:
            return
        nbytes = cp.wire_bytes(self.cfg.tuple_bytes)
        self.metrics.replication_bytes += nbytes
        if self.tracer.enabled:
            self.tracer.emit(
                CheckpointEvent(
                    t=self.rt.now(),
                    node=self.comm.node_id,
                    epoch=k,
                    pid=cp.pid,
                    owner=s,
                    backup=backup,
                    nbytes=nbytes,
                )
            )

    # -- workload ingestion and drains (shared with the standby's replay) --
    def _ingest_upto(self, now: float) -> None:
        """Ingest arrivals up to *now* — always a scheduled slot time.

        Callers pass the slot's *scheduled* boundary, not the wall
        clock: on the sim backend the two coincide exactly, and on the
        wall-clock backends quantizing to the schedule makes ingestion
        boundaries — and therefore every shipment's contents — a pure
        function of the round structure.  That is what lets a standby
        replay the rounds (and presume the fatal one) bit for bit.
        """
        state = self.state
        if now > state.next_gen_time:
            batch = self.workload.generate(state.next_gen_time, now)
            self.buffer.ingest(batch)
            self.metrics.tuples_ingested += len(batch)
            state.next_gen_time = now

    def _drain(
        self, k: int, slave: int, now: float
    ) -> tuple[TupleBatch, float, int]:
        """Take *slave*'s buffered tuples at *now* and tee them to their
        backups: the batch, the start of the interval it covers, and
        how many tuples were teed."""
        start = self.state.stamp_drain(slave, now)
        batch, parts = self.buffer.drain_for(self.state.pids_of(slave))
        return batch, start, self.state.tee(k, parts)

    # -- normal epoch -----------------------------------------------------------
    def _distribution_round(self, k: int, plan: _Round | None = None) -> _Steps:
        """Walk the slots, answering each sync with a shipment — or, in
        a recovery round, with the slave's order, then its shipment."""
        for t_slot, members in round_slots(self.cfg, k, self.state.active):
            yield self.rt.sleep_until(t_slot)
            self._ingest_upto(t_slot)
            self.metrics.sample_buffer(t_slot, self.buffer.total_bytes)
            for s in members:
                if s in self.state.dead:
                    continue
                sync = yield from self._sync_or_detect(s, k)
                if sync is None:
                    continue
                if plan is None:
                    if self.replication:
                        yield self.comm.send(s, self.state.flush(s).message(k))
                    yield from self._ship_to(k, s)
                    continue
                yield from self._send_order(plan, s)
                if (yield from self._collect_acks(plan, s)):
                    yield from self._checkpoint_and_ship(plan, s)

    def _ship_to(self, k: int, slave: int) -> _Steps:
        now = self.rt.now()
        batch, epoch_start, teed = self._drain(k, slave, now)
        self.metrics.replication_bytes += teed * self.cfg.tuple_bytes
        if self.standby_id is not None:
            self._round_shipped.append(slave)
        yield self.comm.send(slave, Shipment(k, epoch_start, now, batch))

    # -- control rounds: plan, apply, serve, close -----------------------------
    def _plan_round(self, k: int, live: list[int], reorg: bool) -> _Round:
        """Decide round *k* from the reports of the *live* slaves.

        Failures awaiting recovery are the round's one control action:
        each lost partition goes to its live backup (``restore``: a
        checkpoint + log-replay rebuild), and only those without a
        usable replica fall back to empty adoption.  Each failure
        record is annotated with the split (``restored_pids`` /
        ``lost_pids``) so the run's degraded verdict reflects actual
        data loss, not mere crashes.  Load balancing and DoD adaptation
        run at a reorganization epoch with nothing to recover.
        """
        reports, state = self.latest_reports, self.state
        occupancy = {
            s: reports[s].avg_occupancy if s in reports else 0.0 for s in live
        }
        recovering = state.unrecovered
        adopt: dict[int, tuple[int, ...]] = {}
        restore: dict[int, tuple[int, ...]] = {}
        if recovering:
            lost = [p for p, owner in state.mapping.items() if owner in state.dead]
            # Without replication no partition has a backup: all adopt.
            restore, leftovers = plan_restores(lost, state.backup_of, set(live))
            adopt = self.controller.plan_recovery(list(leftovers), occupancy)
            restored = {p for pids in restore.values() for p in pids}
            dropped = set(leftovers)
            for record in recovering:
                owned = set(record["pids"])
                record["restored_pids"] = tuple(sorted(owned & restored))
                record["lost_pids"] = tuple(sorted(owned & dropped))
        if reorg and not recovering:
            decision = self.controller.plan(
                occupancy,
                self.inactive,
                {s: state.pids_of(s) for s in live},
                now=self.rt.now(),
                epoch=k,
            )
        else:
            decision = ReorgPlan((), (), (), self.controller.classify(occupancy))
        if reorg:
            self._record_classification(k, decision)
        new_active = sorted(
            (set(live) | set(decision.activate)) - set(decision.deactivate)
        )
        schedules = build_schedules(
            new_active, self.cfg.num_subgroups, self.cfg.dist_epoch
        )
        return _Round(
            k, reorg, decision.moves, decision.activate, decision.deactivate,
            adopt, restore, new_active, schedules, recovering,
        )

    def _record_classification(self, k: int, plan: ReorgPlan) -> None:
        now, cls = self.rt.now(), plan.classification
        self.metrics.supplier_counts.append(
            (now, len(cls.suppliers), len(cls.consumers), len(cls.neutrals))
        )
        if self.tracer.enabled:
            self.tracer.emit(
                ReorgEvent(
                    t=now,
                    node=self.comm.node_id,
                    epoch=k,
                    suppliers=cls.suppliers,
                    consumers=cls.consumers,
                    neutrals=cls.neutrals,
                    moves=tuple((m.pid, m.src, m.dst) for m in plan.moves),
                    activate=plan.activate,
                    deactivate=plan.deactivate,
                )
            )

    def _open_round(
        self, k: int, live: list[int], reorg: bool
    ) -> t.Generator[t.Any, t.Any, _Round]:
        """Plan round *k*, apply the plan, and hand it to the standby."""
        plan = self._plan_round(k, live, reorg)
        standby_plan = plan.standby
        self.state.apply_plan(standby_plan)
        plan.checkpoints = self.state.checkpoint_requests(reorg)
        if self.standby_id is not None:
            # The plan reaches the standby before any slave sees an
            # order: if the standby never receives it, no slave acted
            # on it either, so a takeover can presume the fatal round
            # plan-free.
            yield self.comm.send(self.standby_id, standby_plan)
        return plan

    def _send_order(self, plan: _Round, s: int) -> _Steps:
        """Replicate, then slave *s*'s ReorgOrder, then its Restore.

        Replication maintenance is flushed to a slave before every
        Shipment and ReorgOrder, so its backup store is current before
        any restore it might be ordered to perform this round.
        """
        if self.replication:
            yield self.comm.send(s, self.state.flush(s).message(plan.epoch))
        yield self.comm.send(s, plan.order(s, clock=self.rt.now()))
        if self.replication:
            yield self.comm.send(s, Restore(plan.epoch, plan.restore.get(s, ())))

    def _collect_acks(
        self, plan: _Round, s: int
    ) -> t.Generator[t.Any, t.Any, bool]:
        """Receive the acks *s* owes; False after fencing it on silence."""
        for _ in range(plan.acks(s)):
            ack = yield from self.comm.recv_expect(
                s, MoveAck, timeout=self._detect_timeout
            )
            if peer_silent(ack):
                yield from self._on_slave_silent(s, plan.epoch, "ack")
                return False
            if ack.pairs is not None and len(ack.pairs):
                self._bank_pairs(s, ack.pid, plan.epoch, ack.pairs)
        return True

    def _checkpoint_and_ship(self, plan: _Round, s: int) -> _Steps:
        """Bank the checkpoints *s* was asked for, then ship to it."""
        for _ in plan.checkpoints.get(s, ()):
            cp = yield from self.comm.recv_expect(
                s, Checkpoint, timeout=self._detect_timeout
            )
            if peer_silent(cp):
                yield from self._on_slave_silent(s, plan.epoch, "checkpoint")
                return
            self._accept_checkpoint(s, plan.epoch, cp)
        yield from self._ship_to(plan.epoch, s)

    def _close_round(self, plan: _Round) -> None:
        """Install the round's outcome: recovery stamps, the DoD record,
        the new active set."""
        state = self.state
        if plan.reorg:
            self._finish_recovery(plan)
            deactivated = plan.deactivate
        else:
            # A recovery round's DoD change is its dead slaves leaving.
            deactivated = tuple(s for s in state.active if s in state.dead)
        if len(plan.new_active) != len(state.active):
            now = self.rt.now()
            self.metrics.dod_changes.append((now, len(plan.new_active)))
            if self.tracer.enabled:
                self.tracer.emit(
                    DodEvent(
                        t=now,
                        node=self.comm.node_id,
                        epoch=plan.epoch,
                        n_active=len(plan.new_active),
                        activated=plan.activate,
                        deactivated=deactivated,
                    )
                )
        state.active = tuple(plan.new_active)
        self.metrics.moves_ordered += len(plan.moves)
        if not plan.reorg:
            self._finish_recovery(plan)

    def _reorg_round(self, k: int) -> _Steps:
        rt, dead = self.rt, self.state.dead
        ((t_round, actives),) = round_slots(self.cfg, k, self.state.active)
        yield rt.sleep_until(t_round)
        self._ingest_upto(t_round)
        self.metrics.sample_buffer(t_round, self.buffer.total_bytes)
        for s in actives:
            if s not in dead:
                yield from self._sync_or_detect(s, k)
        live = [s for s in actives if s not in dead]
        plan = yield from self._open_round(k, live, reorg=True)
        for s in plan.activate:
            yield self.comm.send(
                s, Activate(k, clock=rt.now(), schedule=plan.schedules[s])
            )
        targets = sorted(set(live) | set(plan.activate))
        for s in targets:
            yield from self._send_order(plan, s)
        participants = [s for s in targets if plan.acks(s)]
        for s in targets:
            if s not in participants and s not in plan.deactivate:
                yield from self._checkpoint_and_ship(plan, s)
        for s in participants:
            yield from self._collect_acks(plan, s)
        for s in participants:
            if s not in plan.deactivate and s not in dead:
                yield from self._checkpoint_and_ship(plan, s)
        self._close_round(plan)
        self.metrics.reorgs += 1

    def _recovery_round(self, k: int) -> _Steps:
        """A distribution round that folds in failure recovery.

        Runs at the first plain epoch after a failure was detected (a
        reorganization epoch handles recovery itself).  Keeps the old
        slot structure — the surviving slaves still hold last epoch's
        schedule — but answers each sync with a moves-free
        :class:`ReorgOrder` carrying the partition-groups to adopt and
        the new slot schedule, then ships after the adoption acks.
        """
        live = [s for s in self.state.active if s not in self.state.dead]
        plan = yield from self._open_round(k, live, reorg=False)
        yield from self._distribution_round(k, plan)
        self._close_round(plan)

    # -- shutdown ----------------------------------------------------------------
    def _halt_round(self, k: int) -> _Steps:
        """One final exchange: answer each slave's sync with Halt."""
        comm, state = self.comm, self.state
        slots = round_slots(self.cfg, k, state.active)
        yield self.rt.sleep_until(slots[0][0])
        for s in (s for _, members in slots for s in members):
            if s in state.dead:
                continue
            sync = yield from self._sync_or_detect(s, k)
            if sync is None:
                continue  # the fence already sent this slave a Halt
            yield comm.send(s, Halt(k))
        for s in self.inactive:
            yield comm.send(s, Halt(k))
        if self.standby_id is not None:
            yield comm.send(self.standby_id, Halt(k))
        # The run halts with these failures still awaiting a recovery
        # round.
        state.give_up(state.unrecovered)
