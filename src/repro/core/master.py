"""The master node (Algorithm 1).

The master ingests the streams into its partitioned buffer, distributes
the buffered tuples to the active slaves at every distribution epoch
(sub-group by sub-group, serially within a group — the source of the
communication-time divergence of Figure 12), and runs a *control round*
at every reorganization epoch: collect the slaves'
:class:`~repro.core.protocol.SlaveSync` load reports; **plan** moves and
degree-of-declustering changes with the
:class:`~repro.core.declustering.DeclusteringController`; **apply** the
plan to the buffer mapping and backup placement, telling the standby
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
deviation; master-buffered tuples are *not* lost).  ``self.active``
always mirrors the schedule last broadcast to the slaves — slaves that
die mid-round stay in it until the next recovery round re-plans, so
master-side slot offsets never diverge from slave-side ones.
"""

from __future__ import annotations

import dataclasses
import json
import typing as t

import numpy as np

from repro.config import SystemConfig
from repro.core.buffer import MasterBuffer
from repro.core.declustering import (
    DeclusteringController,
    ReorgPlan,
    plan_backups,
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
    Replicate,
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
from repro.mp.comm import Communicator
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


@dataclasses.dataclass(slots=True)
class _PendingReplication:
    """Replication maintenance queued for one backup slave, delivered
    with the next :class:`Replicate` the master sends it."""

    entries: list[tuple[int, int, TupleBatch]] = dataclasses.field(
        default_factory=list
    )
    drops: set[int] = dataclasses.field(default_factory=set)
    checkpoints: dict[int, Checkpoint] = dataclasses.field(default_factory=dict)

    @classmethod
    def of(cls, msg: Replicate) -> _PendingReplication:
        """The maintenance *msg* would deliver."""
        cps = {cp.pid: cp for cp in msg.checkpoints}
        return cls(list(msg.entries), set(msg.drops), cps)

    def message(self, k: int) -> Replicate:
        return Replicate(
            k,
            entries=tuple(self.entries),
            drops=tuple(sorted(self.drops)),
            checkpoints=tuple(
                self.checkpoints[pid] for pid in sorted(self.checkpoints)
            ),
        )

    def purge(self, pid: int) -> None:
        self.entries = [e for e in self.entries if e[0] != pid]
        self.checkpoints.pop(pid, None)


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
    #: ``MasterNode._unrecovered``.
    recovering: list[dict[str, t.Any]]
    #: Partitions each owner checkpoints; known once the plan is applied.
    checkpoints: dict[int, tuple[int, ...]] = dataclasses.field(
        default_factory=dict
    )

    @property
    def standby(self) -> StandbyPlan:
        """The plan as :meth:`MasterNode._apply_plan` applies it."""
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
    """Master process: tuple ingestion, distribution, reorganization."""

    def __init__(
        self,
        cfg: SystemConfig,
        runtime: t.Any,
        comm: Communicator,
        buffer: MasterBuffer,
        workload: t.Any,
        controller: DeclusteringController,
        metrics: MasterMetrics,
        slave_ids: t.Sequence[int],
        collector_id: int,
        tracer: Tracer = NULL_TRACER,
        standby_id: int | None = None,
    ) -> None:
        self.cfg = cfg
        self.rt = runtime
        self.comm = comm
        self.buffer = buffer
        self.workload = workload
        self.controller = controller
        self.metrics = metrics
        self.tracer = tracer
        self.all_slaves = sorted(slave_ids)
        self.collector_id = collector_id
        #: Standby coordinator mirroring this master's durable state
        #: (``None``: no standby, zero behavior change).
        self.standby_id = standby_id
        #: Operation log of the current round, shipped to the standby
        #: in the end-of-round :class:`StandbySync`.
        self._round_ops: list[tuple[str, float, float]] = []
        #: Pair chunks banked this round, for the same sync.
        self._round_pairs: list[tuple[int, int, int, np.ndarray]] = []
        #: Slaves declared dead (fenced); never contacted again.
        self.dead: set[int] = set()
        self._set_active(self.all_slaves[: cfg.n_active_initial])
        self._next_gen_time = 0.0
        #: Latest load report per slave (refreshed every sync).
        self.latest_reports: dict[int, t.Any] = {}
        #: Failure records awaiting a recovery round (shared objects
        #: with :attr:`MasterMetrics.failures`).
        self._unrecovered: list[dict[str, t.Any]] = []
        #: Detection timeout armed on scheduled receives; ``None`` with
        #: an empty fault plan (no timers, byte-identical runs).
        self._detect_timeout: float | None = (
            cfg.faults.effective_timeout(cfg.dist_epoch)
            if cfg.faults.enabled
            else None
        )
        # -- replication (see DESIGN.md "Lossless recovery") -----------
        self.replication = cfg.replication != "off"
        self._checkpoint_every = cfg.replication == "checkpoint+log"
        #: Current backup slave per partition (empty when replication is
        #: off or fewer than two slaves are live).
        self._backup_of: dict[int, int] = {}
        #: Partitions whose backup holds a checkpoint base (bootstrap
        #: state); the rest get one requested at the next boundary.
        self._covered: set[int] = set()
        #: Maintenance queued per backup slave, flushed with the next
        #: ``Replicate`` sent to it.
        self._pending: dict[int, _PendingReplication] = {}
        #: Pair chunks retired to the master by checkpoints and state
        #: moves — they survive any later crash of the producing slave.
        #: Keyed ``(slave, pid, epoch)`` so replication to the standby
        #: and post-takeover Rejoin resends deduplicate exactly.
        self._pair_store: dict[tuple[int, int, int], np.ndarray] = {}
        if self.replication:
            self._backup_of = plan_backups(
                self.buffer.mapping, set(self.active)
            )
            # The seed assignment doubles as the genesis checkpoint:
            # every partition starts empty, so the (implicit) empty
            # checkpoint at epoch 0 already covers it.
            self._covered = set(self._backup_of)

    # ------------------------------------------------------------------
    def _set_active(self, active: list[int]) -> None:
        """Install *active* as the active set, with its slot schedules."""
        self.active = active
        self.inactive = sorted(set(self.all_slaves) - set(active) - self.dead)
        cfg = self.cfg
        self.schedules = build_schedules(active, cfg.num_subgroups, cfg.dist_epoch)

    def run(self) -> t.Generator:
        """The master's main loop (a node generator)."""
        yield from self.run_from(0)

    def run_from(self, k0: int) -> t.Generator:
        """The main loop from round *k0* on.

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
                    n_active=len(self.active),
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
                        active=len(self.active),
                        buffered_bytes=self.buffer.total_bytes,
                    )
                )
            if reorg:
                yield from self._reorg_round(k)
            elif self._unrecovered:
                yield from self._recovery_round(k)
            else:
                yield from self._distribution_round(k)
            if self.standby_id is not None:
                yield from self._send_standby_sync(k)
            self.metrics.epochs += 1
            k += 1
        yield from self._halt_round(k)

    # -- failure detection (fault plane) -----------------------------------
    def _sync_or_detect(self, s: int, k: int) -> t.Generator:
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

    def _on_slave_silent(self, s: int, k: int, where: str) -> t.Generator:
        """Fence slave *s* and record the failure for recovery.

        Fencing makes "suspected dead" equivalent to "stopped": the
        slave's channel towards the master is drained (its pending and
        future sends complete silently) and a ``Halt`` is sent, so a
        live-but-late slave shuts down cleanly while a crashed one
        absorbs the Halt in the transport's buffered-write model.
        """
        rt = self.rt
        now = rt.now()
        self.dead.add(s)
        self.comm.drain(s)
        # Replication maintenance queued for a dead backup is moot; the
        # next placement refresh reassigns its partitions' backups.
        self._pending.pop(s, None)
        yield self.comm.send(s, Halt(k))
        report = self.latest_reports.get(s)
        record: dict[str, t.Any] = {
            "slave": s,
            "epoch": k,
            "detected_at": now,
            "where": where,
            "pids": tuple(self.buffer.pids_of(s)),
            "window_bytes_lost": 0 if report is None else report.window_bytes,
            "recovered_at": None,
            "recovery_latency": None,
        }
        self.metrics.failures.append(record)
        self._unrecovered.append(record)
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
            self._give_up(records)
            return
        now = self.rt.now()
        self._unrecovered = self._unrecovered[len(records):]
        for record in records:
            record["recovered_at"] = now
            record["recovery_latency"] = now - record["detected_at"]
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

    def _give_up(self, records: t.Sequence[dict[str, t.Any]]) -> None:
        """Mark failure records no round will recover — the run halts,
        or no slave survives to adopt anything — so reports tell "never
        recovered" from "recovery still in flight"."""
        for record in records:
            record["unrecovered_at_halt"] = True
        self._unrecovered = self._unrecovered[len(records):]

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

    # -- standby mirroring (master-failover plane) -------------------------
    def _log_op(self, kind: str, a: float, b: float) -> None:
        """Append one buffer-mutating op to the round's op log."""
        if self.standby_id is not None:
            self._round_ops.append((kind, a, b))

    def _send_standby_sync(self, k: int) -> t.Generator:
        """End-of-round sync: replicate this round's durable delta.

        Sent after every round the master survives; receipt of sync
        ``k`` tells the standby the whole of round ``k`` executed, so a
        later master death is always pinned to round ``k + 1``.
        """
        assert self.standby_id is not None
        sync = StandbySync(
            k,
            ops=tuple(self._round_ops),
            active=tuple(self.active),
            dead=tuple(sorted(self.dead)),
            next_gen_time=self._next_gen_time,
            backup_of=tuple(sorted(self._backup_of.items())),
            covered=tuple(sorted(self._covered)),
            pending=tuple(
                (s, p.message(k)) for s, p in sorted(self._pending.items())
            ),
            failures_json=json.dumps(self.metrics.failures),
            pairs=tuple(self._round_pairs),
        )
        self._round_ops = []
        self._round_pairs = []
        yield self.comm.send(self.standby_id, sync)

    def _pending_for(self, s: int) -> _PendingReplication:
        pending = self._pending.get(s)
        if pending is None:
            pending = self._pending[s] = _PendingReplication()
        return pending

    def _tee_parts(self, k: int, parts: t.Mapping[int, TupleBatch]) -> None:
        """Tee one shipment's per-partition parts to the backups' logs."""
        for pid in sorted(parts):
            backup = self._backup_of.get(pid)
            if backup is None or backup in self.dead:
                continue
            batch = parts[pid]
            self._pending_for(backup).entries.append((pid, k, batch))
            self.metrics.replication_bytes += len(batch) * self.cfg.tuple_bytes

    def _send_replicate(self, k: int, s: int) -> t.Generator:
        """Flush replication maintenance queued for backup *s*.

        Sent before every Shipment and every ReorgOrder when
        replication is on, so the backup's store is current before any
        restore it might be ordered to perform this round.
        """
        pending = self._pending.pop(s, None) or _PendingReplication()
        yield self.comm.send(s, pending.message(k))

    def _checkpoint_requests(self, reorg: bool) -> dict[int, tuple[int, ...]]:
        """Which owner must checkpoint which partitions this round.

        Stateless — derived from placement and coverage every round, so
        a request that dies with its owner is simply re-issued to the
        partition's next owner at the next boundary.
        """
        if not self.replication:
            return {}
        wanted: dict[int, list[int]] = {}
        for pid in sorted(self._backup_of):
            owner = self.buffer.mapping.get(pid)
            if owner is None or owner in self.dead:
                continue
            if (self._checkpoint_every and reorg) or pid not in self._covered:
                wanted.setdefault(owner, []).append(pid)
        return {s: tuple(pids) for s, pids in wanted.items()}

    def _accept_checkpoint(self, s: int, k: int, cp: Checkpoint) -> None:
        """Bank a checkpoint: retire its pairs, queue it to the backup."""
        if cp.pairs is not None and len(cp.pairs):
            self._bank_pairs(s, cp.pid, cp.epoch, cp.pairs)
        backup = self._backup_of.get(cp.pid)
        if backup is None or backup in self.dead:
            return
        self._pending_for(backup).checkpoints[cp.pid] = cp
        self._covered.add(cp.pid)
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

    # -- workload ingestion ------------------------------------------------
    def _generate_upto(self, now: float) -> None:
        """Ingest arrivals up to *now* — always a scheduled slot time.

        Callers pass the slot's *scheduled* boundary, not the wall
        clock: on the sim backend the two coincide exactly, and on the
        wall-clock backends quantizing to the schedule makes ingestion
        boundaries — and therefore every shipment's contents — a pure
        function of the round structure.  That is what lets a standby
        replay the rounds (and presume the fatal one) bit for bit.
        """
        if now > self._next_gen_time:
            batch = self.workload.generate(self._next_gen_time, now)
            self.buffer.ingest(batch)
            self.metrics.tuples_ingested += len(batch)
            self._log_op("gen", self._next_gen_time, now)
            self._next_gen_time = now
        self.metrics.sample_buffer(now, self.buffer.total_bytes)

    # -- normal epoch -----------------------------------------------------------
    def _distribution_round(self, k: int, plan: _Round | None = None) -> t.Generator:
        """Walk the slots, answering each sync with a shipment — or, in
        a recovery round, with the slave's order, then its shipment."""
        for t_slot, members in round_slots(self.cfg, k, self.active):
            yield self.rt.sleep_until(t_slot)
            self._generate_upto(t_slot)
            for s in members:
                if s in self.dead:
                    continue
                sync = yield from self._sync_or_detect(s, k)
                if sync is None:
                    continue
                if plan is None:
                    if self.replication:
                        yield from self._send_replicate(k, s)
                    yield from self._ship_to(k, s)
                    continue
                yield from self._send_order(plan, s)
                if (yield from self._collect_acks(plan, s)):
                    yield from self._checkpoint_and_ship(plan, s)

    def _ship_to(self, k: int, slave: int) -> t.Generator:
        now = self.rt.now()
        self._log_op("drain", slave, now)
        batch, epoch_start, parts = self.buffer.drain_for(slave, now)
        if self.replication:
            self._tee_parts(k, parts)
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
        reports = self.latest_reports
        occupancy = {
            s: reports[s].avg_occupancy if s in reports else 0.0 for s in live
        }
        recovering = list(self._unrecovered)
        adopt: dict[int, tuple[int, ...]] = {}
        restore: dict[int, tuple[int, ...]] = {}
        if recovering:
            lost = [
                p for p, owner in self.buffer.mapping.items() if owner in self.dead
            ]
            # Without replication no partition has a backup: all adopt.
            restore, leftovers = plan_restores(lost, self._backup_of, set(live))
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
                {s: self.buffer.pids_of(s) for s in live},
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

    def _apply_plan(self, plan: StandbyPlan) -> None:
        """Apply a round's plan to the coordinator's own state.

        Remaps the buffer (adoptions and restores, then moves) so the
        tuples buffered for a partition ship to its new owner, and
        recomputes backup placement for the ownership the slaves hold
        after the round.  A partition that changes owner, or whose
        backup moved, needs a fresh base image at its new owner or
        backup, so its coverage resets and :meth:`_checkpoint_requests`
        bootstraps it at this same boundary; the old backup, when still
        live, drops its replica.  Partitions being restored are exempt
        from that drop: their old backup is the restorer itself, which
        consumes (and thereby removes) the replica when it executes
        this round's Restore — a drop would race ahead of it and
        destroy the very state being recovered.

        The standby replays a fatal round's plan through this method.
        """
        for pid, dst in (*plan.remaps, *((m.pid, m.dst) for m in plan.moves)):
            self.buffer.remap(pid, dst)
            self._log_op("remap", pid, dst)
            self._covered.discard(pid)
        if not self.replication:
            return
        live = set(plan.new_active)
        new = plan_backups(self.buffer.mapping, live)
        for pid, old in self._backup_of.items():
            if new.get(pid) == old:
                continue
            self._covered.discard(pid)
            if pid in plan.restores:
                continue
            if old in self._pending:
                self._pending[old].purge(pid)
            if old in live:
                self._pending_for(old).drops.add(pid)
        for s in list(self._pending):
            if s not in live:
                del self._pending[s]
        self._backup_of = new

    def _open_round(self, k: int, live: list[int], reorg: bool) -> t.Generator:
        """Plan round *k*, apply the plan, and hand it to the standby."""
        plan = self._plan_round(k, live, reorg)
        standby_plan = plan.standby
        self._apply_plan(standby_plan)
        plan.checkpoints = self._checkpoint_requests(reorg)
        if self.standby_id is not None:
            # The plan reaches the standby before any slave sees an
            # order: if the standby never receives it, no slave acted
            # on it either, so a takeover can presume the fatal round
            # plan-free.
            yield self.comm.send(self.standby_id, standby_plan)
        return plan

    def _send_order(self, plan: _Round, s: int) -> t.Generator:
        """Replicate, then slave *s*'s ReorgOrder, then its Restore."""
        if self.replication:
            yield from self._send_replicate(plan.epoch, s)
        yield self.comm.send(s, plan.order(s, clock=self.rt.now()))
        if self.replication:
            yield self.comm.send(s, Restore(plan.epoch, plan.restore.get(s, ())))

    def _collect_acks(self, plan: _Round, s: int) -> t.Generator:
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

    def _checkpoint_and_ship(self, plan: _Round, s: int) -> t.Generator:
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
        the new active set and schedules."""
        if plan.reorg:
            self._finish_recovery(plan)
            deactivated = plan.deactivate
        else:
            # A recovery round's DoD change is its dead slaves leaving.
            deactivated = tuple(s for s in self.active if s in self.dead)
        if len(plan.new_active) != len(self.active):
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
        self._set_active(plan.new_active)
        self.metrics.moves_ordered += len(plan.moves)
        if not plan.reorg:
            self._finish_recovery(plan)

    def _reorg_round(self, k: int) -> t.Generator:
        rt = self.rt
        ((t_round, actives),) = round_slots(self.cfg, k, self.active)
        yield rt.sleep_until(t_round)
        self._generate_upto(t_round)
        for s in actives:
            if s not in self.dead:
                yield from self._sync_or_detect(s, k)
        live = [s for s in actives if s not in self.dead]
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
            if s not in plan.deactivate and s not in self.dead:
                yield from self._checkpoint_and_ship(plan, s)
        self._close_round(plan)
        self.metrics.reorgs += 1

    def _recovery_round(self, k: int) -> t.Generator:
        """A distribution round that folds in failure recovery.

        Runs at the first plain epoch after a failure was detected (a
        reorganization epoch handles recovery itself).  Keeps the old
        slot structure — the surviving slaves still hold last epoch's
        schedule — but answers each sync with a moves-free
        :class:`ReorgOrder` carrying the partition-groups to adopt and
        the new slot schedule, then ships after the adoption acks.
        """
        live = [s for s in self.active if s not in self.dead]
        plan = yield from self._open_round(k, live, reorg=False)
        yield from self._distribution_round(k, plan)
        self._close_round(plan)

    # -- shutdown ----------------------------------------------------------------
    def _halt_round(self, k: int) -> t.Generator:
        """One final exchange: answer each slave's sync with Halt."""
        comm = self.comm
        slots = round_slots(self.cfg, k, self.active)
        yield self.rt.sleep_until(slots[0][0])
        for s in (s for _, members in slots for s in members):
            if s in self.dead:
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
        self._give_up(self._unrecovered)
