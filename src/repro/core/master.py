"""The master node (Algorithm 1).

The master ingests the streams into its partitioned buffer, distributes
the buffered tuples to the active slaves at every distribution epoch
(sub-group by sub-group, serially within a group — the source of the
communication-time divergence of Figure 12), and runs the
reorganization protocol at every reorganization epoch:

1. collect :class:`~repro.core.protocol.SlaveSync` load reports;
2. let the :class:`~repro.core.declustering.DeclusteringController`
   classify slaves and plan moves / degree-of-declustering changes;
3. send each active slave its :class:`~repro.core.protocol.ReorgOrder`
   (with its new slot schedule and clock stamp — Algorithm 1 line 18);
4. ship pending tuples to non-participants immediately, collect
   :class:`~repro.core.protocol.MoveAck` from participants, then ship
   to them too (the ordering the paper specifies).

Failure handling (fault plane, see DESIGN.md "Fault model").  When the
run carries a fault plan, every scheduled receive from a slave is armed
with a detection timeout.  A slave that stays silent is declared dead
at that epoch boundary and *fenced*: its channel towards the master is
drained and a ``Halt`` is sent, so a merely-slow slave shuts down
cleanly instead of wedging the fixed schedule (suspected-dead becomes
actually-stopped — the classic fail-stop conversion).  At the next
epoch the master runs a *recovery round*: the dead slave's
partition-groups are reassigned to survivors via the declustering
machinery, survivors adopt them with empty window state (the lost
window is a documented deviation; master-buffered tuples are *not*
lost), and an updated slot schedule is broadcast.  ``self.active``
always mirrors the schedule last broadcast to the slaves — slaves that
die mid-round stay in it until the next recovery round re-plans, so
master-side slot offsets never diverge from slave-side ones.
"""

from __future__ import annotations

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
    ReorgOrder,
    Replicate,
    Restore,
    Shipment,
    SlaveSync,
    StandbyPlan,
    StandbySync,
)
from repro.core.subgroups import build_schedules, groups_in_order
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


class _PendingReplication:
    """Replication maintenance queued for one backup slave, delivered
    with the next :class:`Replicate` the master sends it."""

    __slots__ = ("entries", "drops", "checkpoints")

    def __init__(self) -> None:
        self.entries: list[tuple[int, int, TupleBatch]] = []
        self.drops: set[int] = set()
        self.checkpoints: dict[int, Checkpoint] = {}

    def purge(self, pid: int) -> None:
        self.entries = [e for e in self.entries if e[0] != pid]
        self.checkpoints.pop(pid, None)


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
        self.active = self.all_slaves[: cfg.n_active_initial]
        self.inactive = self.all_slaves[cfg.n_active_initial :]
        self.schedules = build_schedules(
            self.active, cfg.num_subgroups, cfg.dist_epoch
        )
        self._next_gen_time = 0.0
        #: Latest load report per slave (refreshed every sync).
        self.latest_reports: dict[int, t.Any] = {}
        #: Slaves declared dead (fenced); never contacted again.
        self.dead: set[int] = set()
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
    @property
    def _reorg_every(self) -> int:
        return max(1, round(self.cfg.reorg_epoch / self.cfg.dist_epoch))

    def _is_reorg_epoch(self, k: int) -> bool:
        return (k + 1) % self._reorg_every == 0

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
            reorg = self._is_reorg_epoch(k)
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

    def _plan_adoption(
        self,
        live: t.Sequence[int],
        records: t.Sequence[dict[str, t.Any]],
    ) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
        """Reassign every partition-group currently owned by a dead
        slave, remapping the master buffer so pending tuples follow.

        With replication on, each lost partition is routed to its live
        backup (``restore_map``: a checkpoint + log-replay rebuild);
        only partitions without a usable replica fall back to empty
        adoption.  Each failure record in *records* is annotated with
        the split (``restored_pids`` / ``lost_pids``) so the run's
        degraded verdict reflects actual data loss, not mere crashes.
        """
        lost = [
            pid for pid, owner in self.buffer.mapping.items() if owner in self.dead
        ]
        restore_map: dict[int, tuple[int, ...]] = {}
        leftovers: t.Sequence[int] = lost
        if self.replication:
            restore_map, leftovers = plan_restores(
                lost, self._backup_of, set(live)
            )
        occupancy = {
            s: (
                self.latest_reports[s].avg_occupancy
                if s in self.latest_reports
                else 0.0
            )
            for s in live
        }
        adopt = self.controller.plan_recovery(list(leftovers), occupancy)
        restored = {pid for pids in restore_map.values() for pid in pids}
        dropped = {int(pid) for pid in leftovers}
        for record in records:
            owned = set(record["pids"])
            record["restored_pids"] = tuple(sorted(owned & restored))
            record["lost_pids"] = tuple(sorted(owned & dropped))
        for plan in (adopt, restore_map):
            for s, pids in plan.items():
                for pid in pids:
                    self.buffer.remap(pid, s)
                    self._log_op("remap", pid, s)
        if self.replication:
            # Adopted and restored partitions both need a fresh base
            # image at their new owner before the log can stay short.
            for pids in (*adopt.values(), *restore_map.values()):
                self._covered.difference_update(pids)
        return adopt, restore_map

    def _finish_recovery(
        self,
        k: int,
        adopt: t.Mapping[int, tuple[int, ...]],
        records: t.Sequence[dict[str, t.Any]],
        restore: t.Mapping[int, tuple[int, ...]] | None = None,
    ) -> None:
        """Stamp recovery latency on the *covered* failure records.

        *records* is the snapshot taken at adoption-planning time — a
        prefix of ``_unrecovered``; slaves detected dead later in the
        same round stay queued for the next recovery round.
        """
        now = self.rt.now()
        self._unrecovered = self._unrecovered[len(records):]
        for record in records:
            record["recovered_at"] = now
            record["recovery_latency"] = now - record["detected_at"]
        if self.tracer.enabled and records:
            oldest = min(r["detected_at"] for r in records)
            self.tracer.emit(
                RecoveryEvent(
                    t=now,
                    node=self.comm.node_id,
                    epoch=k,
                    dead=tuple(sorted(r["slave"] for r in records)),
                    pids=tuple(
                        sorted(pid for pids in adopt.values() for pid in pids)
                    ),
                    adopters=tuple(sorted(adopt)),
                    latency=now - oldest,
                )
            )
            for s, pids in sorted((restore or {}).items()):
                self.tracer.emit(
                    RestoreEvent(
                        t=now,
                        node=self.comm.node_id,
                        epoch=k,
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

    # -- standby mirroring (master-failover plane) -------------------------
    def _log_op(self, kind: str, a: float, b: float) -> None:
        """Append one buffer-mutating op to the round's op log."""
        if self.standby_id is not None:
            self._round_ops.append((kind, a, b))

    @staticmethod
    def _plan_remaps(
        adopt: t.Mapping[int, tuple[int, ...]],
        restore_map: t.Mapping[int, tuple[int, ...]],
    ) -> tuple[tuple[int, int], ...]:
        """Adoption/restore remaps as ``(pid, dst)`` for a StandbyPlan."""
        return tuple(sorted(
            (pid, s)
            for plan in (adopt, restore_map)
            for s, pids in plan.items()
            for pid in pids
        ))

    def _send_standby_sync(self, k: int) -> t.Generator:
        """End-of-round sync: replicate this round's durable delta.

        Sent after every round the master survives; receipt of sync
        ``k`` tells the standby the whole of round ``k`` executed, so a
        later master death is always pinned to round ``k + 1``.
        """
        assert self.standby_id is not None
        pending = tuple(
            (
                s,
                Replicate(
                    k,
                    entries=tuple(p.entries),
                    drops=tuple(sorted(p.drops)),
                    checkpoints=tuple(
                        p.checkpoints[pid] for pid in sorted(p.checkpoints)
                    ),
                ),
            )
            for s, p in sorted(self._pending.items())
        )
        sync = StandbySync(
            k,
            ops=tuple(self._round_ops),
            active=tuple(self.active),
            dead=tuple(sorted(self.dead)),
            next_gen_time=self._next_gen_time,
            backup_of=tuple(sorted(self._backup_of.items())),
            covered=tuple(sorted(self._covered)),
            pending=pending,
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
        pending = self._pending.pop(s, None)
        if pending is None:
            msg = Replicate(k)
        else:
            msg = Replicate(
                k,
                entries=tuple(pending.entries),
                drops=tuple(sorted(pending.drops)),
                checkpoints=tuple(
                    pending.checkpoints[pid]
                    for pid in sorted(pending.checkpoints)
                ),
            )
        yield self.comm.send(s, msg)

    def _refresh_backups(
        self,
        owners: t.Mapping[int, int],
        live: t.Collection[int],
        restoring: t.Collection[int] = (),
    ) -> None:
        """Recompute backup placement after an ownership change.

        A partition whose backup moved gets its replica dropped at the
        old backup (when still live) and its coverage reset, so
        :meth:`_checkpoint_requests` bootstraps the new backup with a
        fresh base image at this same boundary.  Partitions in
        *restoring* are exempt from the drop/purge: their old backup is
        the restorer itself, which consumes (and thereby removes) the
        replica when it executes this round's Restore — a drop would
        race ahead of it and destroy the very state being recovered.
        """
        new = plan_backups(owners, live)
        restoring = set(restoring)
        for pid, old in self._backup_of.items():
            if new.get(pid) == old:
                continue
            if pid in restoring:
                self._covered.discard(pid)
                continue
            if old in self._pending:
                self._pending[old].purge(pid)
            if old in live:
                self._pending_for(old).drops.add(pid)
            self._covered.discard(pid)
        for s in list(self._pending):
            if s not in live:
                del self._pending[s]
        self._backup_of = new

    def _checkpoint_requests(
        self, owners: t.Mapping[int, int], reorg: bool
    ) -> dict[int, tuple[int, ...]]:
        """Which owner must checkpoint which partitions this round.

        Stateless — derived from placement and coverage every round, so
        a request that dies with its owner is simply re-issued to the
        partition's next owner at the next boundary.
        """
        if not self.replication:
            return {}
        wanted: dict[int, list[int]] = {}
        for pid in sorted(self._backup_of):
            owner = owners.get(pid)
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

    def _collect_checkpoints(self, s: int, k: int, n: int) -> t.Generator:
        """Receive *n* checkpoints from slave *s*; False if it died."""
        for _ in range(n):
            cp = yield from self.comm.recv_expect(
                s, Checkpoint, timeout=self._detect_timeout
            )
            if peer_silent(cp):
                yield from self._on_slave_silent(s, k, "checkpoint")
                return False
            self._accept_checkpoint(s, k, cp)
        return True

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
    def _distribution_round(self, k: int) -> t.Generator:
        rt, comm, cfg = self.rt, self.comm, self.cfg
        t_dist = (k + 1) * cfg.dist_epoch
        groups = groups_in_order(self.active, cfg.num_subgroups)
        slot_len = cfg.dist_epoch / len(groups)
        for g, members in enumerate(groups):
            yield rt.sleep_until(t_dist + g * slot_len)
            self._generate_upto(t_dist + g * slot_len)
            for s in members:
                if s in self.dead:
                    continue
                sync = yield from self._sync_or_detect(s, k)
                if sync is None:
                    continue
                if self.replication:
                    yield from self._send_replicate(k, s)
                yield from self._ship_to(k, s)

    def _ship_to(self, k: int, slave: int) -> t.Generator:
        now = self.rt.now()
        self._log_op("drain", slave, now)
        batch, epoch_start, parts = self.buffer.drain_for(slave, now)
        if self.replication:
            self._tee_parts(k, parts)
        yield self.comm.send(slave, Shipment(k, epoch_start, now, batch))

    # -- reorganization epoch --------------------------------------------------------
    def _reorg_round(self, k: int) -> t.Generator:
        rt, comm, cfg = self.rt, self.comm, self.cfg
        yield rt.sleep_until((k + 1) * cfg.dist_epoch)
        self._generate_upto((k + 1) * cfg.dist_epoch)

        actives = list(self.active)
        for s in actives:
            if s in self.dead:
                continue
            yield from self._sync_or_detect(s, k)

        live = [s for s in actives if s not in self.dead]
        recovering = list(self._unrecovered)
        adopt: dict[int, tuple[int, ...]] = {}
        restore_map: dict[int, tuple[int, ...]] = {}
        occupancy = {s: self.latest_reports[s].avg_occupancy for s in live}
        if recovering:
            # A recovery epoch performs exactly one control action:
            # adoption of the dead slaves' partition-groups.  Load
            # balancing and DoD adaptation resume at the next epoch.
            adopt, restore_map = self._plan_adoption(live, recovering)
            plan = ReorgPlan((), (), (), self.controller.classify(occupancy))
        else:
            ownership = {s: self.buffer.pids_of(s) for s in live}
            plan = self.controller.plan(
                occupancy, self.inactive, ownership, now=rt.now(), epoch=k
            )
        cls = plan.classification
        self.metrics.supplier_counts.append(
            (rt.now(), len(cls.suppliers), len(cls.consumers), len(cls.neutrals))
        )
        if self.tracer.enabled:
            self.tracer.emit(
                ReorgEvent(
                    t=rt.now(),
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

        new_active = sorted(
            (set(live) | set(plan.activate)) - set(plan.deactivate)
        )
        schedules = build_schedules(new_active, cfg.num_subgroups, cfg.dist_epoch)

        if self.standby_id is not None:
            # The plan reaches the standby before any slave sees an
            # order: if the standby never receives it, no slave acted
            # on it either, so a takeover can presume the fatal round
            # plan-free.
            yield comm.send(
                self.standby_id,
                StandbyPlan(
                    k,
                    moves=plan.moves,
                    new_active=tuple(new_active),
                    deactivate=plan.deactivate,
                    remaps=self._plan_remaps(adopt, restore_map),
                    restores=tuple(
                        sorted(p for pids in restore_map.values() for p in pids)
                    ),
                ),
            )

        for s in plan.activate:
            yield comm.send(s, Activate(k, clock=rt.now(), schedule=schedules[s]))

        cp_requests: dict[int, tuple[int, ...]] = {}
        if self.replication:
            # Placement follows the ownership the slaves will hold
            # *after* this round's moves, adoptions, and restores.
            owners_after = dict(self.buffer.mapping)
            for m in plan.moves:
                owners_after[m.pid] = m.dst
                # A moved partition needs a fresh base at its new
                # owner even if its backup slave happens to survive
                # the placement change (the pair accounting resets at
                # the extract).
                self._covered.discard(m.pid)
            self._refresh_backups(
                owners_after,
                set(new_active),
                restoring=[p for pids in restore_map.values() for p in pids],
            )
            cp_requests = self._checkpoint_requests(owners_after, reorg=True)

        order_targets = sorted(set(live) | set(plan.activate))
        acks_expected: dict[int, int] = {}
        for s in order_targets:
            outgoing = tuple(m for m in plan.moves if m.src == s)
            incoming = tuple(m for m in plan.moves if m.dst == s)
            adopted = adopt.get(s, ())
            restored = restore_map.get(s, ())
            if self.replication:
                yield from self._send_replicate(k, s)
            yield comm.send(
                s,
                ReorgOrder(
                    k,
                    outgoing=outgoing,
                    incoming=incoming,
                    deactivate=s in plan.deactivate,
                    clock=rt.now(),
                    schedule=schedules.get(s),
                    adopt=adopted,
                    checkpoint_pids=cp_requests.get(s, ()),
                ),
            )
            if self.replication:
                yield comm.send(s, Restore(k, restored))
            if outgoing or incoming or adopted or restored:
                acks_expected[s] = (
                    len(outgoing) + len(incoming) + len(adopted) + len(restored)
                )

        # The mapping changes take effect now: tuples buffered for a
        # moved partition will be shipped to the new owner below
        # (adoptions and restores were remapped by ``_plan_adoption``).
        for m in plan.moves:
            self.buffer.remap(m.pid, m.dst)
            self._log_op("remap", m.pid, m.dst)
        self.metrics.moves_ordered += len(plan.moves)

        participants = set(acks_expected)
        deactivated = set(plan.deactivate)
        for s in order_targets:
            if s not in participants and s not in deactivated:
                if cp_requests.get(s):
                    alive = yield from self._collect_checkpoints(
                        s, k, len(cp_requests[s])
                    )
                    if not alive:
                        continue
                yield from self._ship_to(k, s)
        for s in sorted(acks_expected):
            for _ in range(acks_expected[s]):
                ack = yield from comm.recv_expect(
                    s, MoveAck, timeout=self._detect_timeout
                )
                if peer_silent(ack):
                    yield from self._on_slave_silent(s, k, "ack")
                    break
                if ack.pairs is not None and len(ack.pairs):
                    self._bank_pairs(s, ack.pid, k, ack.pairs)
        for s in sorted(participants):
            if s not in deactivated and s not in self.dead:
                if cp_requests.get(s):
                    alive = yield from self._collect_checkpoints(
                        s, k, len(cp_requests[s])
                    )
                    if not alive:
                        continue
                yield from self._ship_to(k, s)

        if recovering:
            self._finish_recovery(k, adopt, recovering, restore_map)
        if len(new_active) != len(actives):
            self.metrics.dod_changes.append((rt.now(), len(new_active)))
            if self.tracer.enabled:
                self.tracer.emit(
                    DodEvent(
                        t=rt.now(),
                        node=self.comm.node_id,
                        epoch=k,
                        n_active=len(new_active),
                        activated=plan.activate,
                        deactivated=plan.deactivate,
                    )
                )
        self.active = new_active
        self.inactive = sorted(
            set(self.all_slaves) - set(new_active) - self.dead
        )
        self.schedules = schedules
        self.metrics.reorgs += 1

    # -- recovery epoch (fault plane) -------------------------------------
    def _recovery_round(self, k: int) -> t.Generator:
        """A distribution round that folds in failure recovery.

        Runs at the first plain epoch after a failure was detected (a
        reorganization epoch handles recovery itself).  Keeps the old
        slot structure — the surviving slaves still hold last epoch's
        schedule — but answers each sync with a moves-free
        :class:`ReorgOrder` carrying the partition-groups to adopt and
        the new slot schedule, then ships after the adoption acks.
        """
        rt, comm, cfg = self.rt, self.comm, self.cfg
        t_dist = (k + 1) * cfg.dist_epoch
        live = [s for s in self.active if s not in self.dead]
        if not live:
            # Nobody left to adopt anything: the failure records stay
            # unrecovered for good — mark them so reports distinguish
            # "never recovered" from "recovery still in flight".
            for record in self._unrecovered:
                record["unrecovered_at_halt"] = True
            self._unrecovered = []
            yield rt.sleep_until(t_dist)
            self._generate_upto(t_dist)
            return
        recovering = list(self._unrecovered)
        adopt, restore_map = self._plan_adoption(live, recovering)
        cp_requests: dict[int, tuple[int, ...]] = {}
        if self.replication:
            self._refresh_backups(
                dict(self.buffer.mapping),
                set(live),
                restoring=[p for pids in restore_map.values() for p in pids],
            )
            cp_requests = self._checkpoint_requests(
                self.buffer.mapping, reorg=False
            )
        new_schedules = build_schedules(live, cfg.num_subgroups, cfg.dist_epoch)
        if self.standby_id is not None:
            # Happens-before every ReorgOrder of the round, so the
            # standby always knows the adoption remaps a fatal recovery
            # round was executing.
            yield comm.send(
                self.standby_id,
                StandbyPlan(
                    k,
                    new_active=tuple(live),
                    remaps=self._plan_remaps(adopt, restore_map),
                    restores=tuple(
                        sorted(p for pids in restore_map.values() for p in pids)
                    ),
                ),
            )
        groups = groups_in_order(self.active, cfg.num_subgroups)
        slot_len = cfg.dist_epoch / len(groups)
        for g, members in enumerate(groups):
            yield rt.sleep_until(t_dist + g * slot_len)
            self._generate_upto(t_dist + g * slot_len)
            for s in members:
                if s in self.dead:
                    continue
                sync = yield from self._sync_or_detect(s, k)
                if sync is None:
                    continue
                adopted = adopt.get(s, ())
                restored = restore_map.get(s, ())
                if self.replication:
                    yield from self._send_replicate(k, s)
                yield comm.send(
                    s,
                    ReorgOrder(
                        k,
                        clock=rt.now(),
                        schedule=new_schedules.get(s),
                        adopt=adopted,
                        checkpoint_pids=cp_requests.get(s, ()),
                    ),
                )
                if self.replication:
                    yield comm.send(s, Restore(k, restored))
                alive = True
                for _ in range(len(adopted) + len(restored)):
                    ack = yield from comm.recv_expect(
                        s, MoveAck, timeout=self._detect_timeout
                    )
                    if peer_silent(ack):
                        yield from self._on_slave_silent(s, k, "ack")
                        alive = False
                        break
                    if ack.pairs is not None and len(ack.pairs):
                        self._bank_pairs(s, ack.pid, k, ack.pairs)
                if alive and cp_requests.get(s):
                    alive = yield from self._collect_checkpoints(
                        s, k, len(cp_requests[s])
                    )
                if alive:
                    yield from self._ship_to(k, s)
        if len(live) != len(self.active):
            self.metrics.dod_changes.append((rt.now(), len(live)))
            if self.tracer.enabled:
                self.tracer.emit(
                    DodEvent(
                        t=rt.now(),
                        node=self.comm.node_id,
                        epoch=k,
                        n_active=len(live),
                        activated=(),
                        deactivated=tuple(
                            s for s in self.active if s in self.dead
                        ),
                    )
                )
        self.active = live
        self.inactive = sorted(
            set(self.all_slaves) - set(live) - self.dead
        )
        self.schedules = new_schedules
        self._finish_recovery(k, adopt, recovering, restore_map)

    # -- shutdown ----------------------------------------------------------------
    def _halt_round(self, k: int) -> t.Generator:
        """One final exchange: answer each slave's sync with Halt."""
        rt, comm, cfg = self.rt, self.comm, self.cfg
        t_dist = (k + 1) * cfg.dist_epoch
        if self._is_reorg_epoch(k):
            yield rt.sleep_until(t_dist)
            order = list(self.active)
        else:
            order = [s for g in groups_in_order(self.active, cfg.num_subgroups) for s in g]
            yield rt.sleep_until(t_dist)
        for s in order:
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
        # round: mark them so downstream reporting distinguishes
        # "unrecovered at halt" from a latency not yet measured.
        for record in self._unrecovered:
            record["unrecovered_at_halt"] = True
        self._unrecovered = []
