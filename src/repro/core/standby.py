"""The standby coordinator (master failover).

A standby node mirrors the master's *durable* coordinator state and
assumes the master role when the master dies, so a run survives a
master crash without losing a single tuple or joined pair (see
DESIGN.md §8).

* Before a control round has any slave-visible effect, the master
  sends its :class:`~repro.core.protocol.StandbyPlan`: "no plan for
  round k" proves "no slave acted on a plan in round k".
* After every round ``k`` it survives, the master sends a
  :class:`~repro.core.protocol.StandbySync` with its whole
  :class:`~repro.core.coordinator.CoordinatorState`.  The standby redoes
  the round with :meth:`StandbyNode.replay_round` against its own
  workload replica and mini-buffers (tuples are rebuilt, not shipped),
  checks its generation clock and mapping against the sync, and adopts
  the synced state.

A master death is thus pinned to one *fatal round* ``synced + 1``.  The
takeover re-fences it — each live slave gets a
:class:`~repro.core.protocol.TakeOver` and answers with a
:class:`~repro.core.protocol.Rejoin` stating what it owns and saw —
replays it with the same :meth:`~StandbyNode.replay_round`, reconciles
the mapping against the slaves' claims, and resumes the schedule at
round ``fatal + 1`` as the acting master.  The replay is not charged
any modeled CPU: the standby is assumed to keep up with the syncs.
"""

from __future__ import annotations

import typing as t

from repro.core.master import MasterNode
from repro.core.protocol import (
    Halt,
    Rejoin,
    StandbyPlan,
    StandbySync,
    TakeOver,
)
from repro.core.subgroups import build_schedules, is_reorg_epoch, round_slots
from repro.errors import ProtocolError
from repro.faults.markers import peer_silent
from repro.obs.events import ElectionEvent, TakeoverEvent


class StandbyNode:
    """Hot-standby coordinator: mirror, detect, take over.

    *master* is a dormant :class:`MasterNode` built over this node's
    own endpoint and a shadow buffer/workload/controller — it holds
    the mirrored state while the real master lives, and literally
    becomes the acting master (``run``) after a takeover.
    """

    def __init__(self, master: MasterNode, master_id: int) -> None:
        self.master = master
        self.master_id = master_id
        self.cfg, self.rt, self.comm = master.cfg, master.rt, master.comm
        self.node_id, self.tracer = master.comm.node_id, master.tracer
        #: Last round whose StandbySync arrived (-1: none yet — the
        #: shadow master still holds the construction-time state, which
        #: is identical to the real master's).
        self.synced_epoch = -1
        #: The plan of the round after ``synced_epoch``, once received.
        self.plan: StandbyPlan | None = None
        self.took_over = False
        # Detection: NodeDown is the primary signal (immediate on the
        # sim transport, EOF-driven on the distributed ones); the timer
        # is a generous fallback so a wedged master cannot strand the
        # run.  Spurious expiry would split-brain, hence the margin.
        cfg = self.cfg
        self._margin: float | None = (
            2.0 * cfg.dist_epoch + cfg.faults.effective_timeout(cfg.dist_epoch)
            if cfg.faults.enabled
            else None
        )

    def _detect_deadline(self) -> float | None:
        """Timeout for the next mirror message, anchored to the sync
        cadence rather than to when this recv was posted: sync ``k+1``
        is due around ``(k + 2) * dist_epoch``.  A wall-clock node may
        start slightly *after* modeled t=0 (the start message's latency,
        thread spawning), never before it; anchored to the cadence, the
        deadline tracks when the master's next sync is due on the shared
        clock, however late this recv was posted."""
        if self._margin is None:
            return None
        due = (self.synced_epoch + 2) * self.cfg.dist_epoch
        return max(self._margin, due + self._margin - self.rt.now())

    # ------------------------------------------------------------------
    def run(self) -> t.Generator[t.Any, t.Any, None]:
        """Mirror the master until it halts — or dies, then take over."""
        while True:
            msg = yield from self.comm.recv_expect(
                self.master_id,
                StandbySync,
                StandbyPlan,
                Halt,
                timeout=self._detect_deadline(),
            )
            if peer_silent(msg):
                yield from self._take_over()
                return
            if isinstance(msg, Halt):
                return
            if isinstance(msg, StandbyPlan):
                self.plan = msg
                continue
            self._apply_sync(msg)

    # -- mirroring ------------------------------------------------------
    def replay_round(
        self, k: int, plan: StandbyPlan | None, shipped: t.Collection[int]
    ) -> int:
        """Redo round *k* on the shadow master: apply *plan*, then per
        slot ingest up to its start and drain (and tee) the members in
        *shipped*.  A drain depends only on the ingested prefix and the
        mapping, so this reproduces the master's buffer exactly.
        Returns how many tuples the drains teed."""
        m = self.master
        if plan is not None:
            m.state.apply_plan(plan)
        # A reorganization round is one slot and ships after its
        # orders — possibly to slaves the plan just activated, so all
        # of them are walked.
        members = m.all_slaves if is_reorg_epoch(self.cfg, k) else m.state.active
        teed = 0
        for t_slot, group in round_slots(self.cfg, k, members):
            m._ingest_upto(t_slot)
            for s in group:
                if s in shipped:
                    teed += m._drain(k, s, t_slot)[2]
        return teed

    def _apply_sync(self, sync: StandbySync) -> None:
        """Replay one completed round, check it, adopt its state."""
        m = self.master
        self.replay_round(sync.epoch, self.plan, sync.shipped)
        replayed = (m.state.next_gen_time, m.state.mapping)
        synced = (sync.state.next_gen_time, sync.state.mapping)
        if replayed != synced:
            raise ProtocolError(
                f"standby replay diverged at sync {sync.epoch}: generation "
                f"clock and mapping {replayed} != synced {synced}"
            )
        m.state = sync.state
        for slave, pid, epoch, rows in sync.pairs:
            m._pair_store.setdefault((slave, pid, epoch), rows)
        self.synced_epoch = sync.epoch
        self.plan = None

    # -- takeover -------------------------------------------------------
    def _take_over(self) -> t.Generator[t.Any, t.Any, None]:
        """Become the acting master: re-fence, replay, resume."""
        rt, cfg, m = self.rt, self.cfg, self.master
        state, plan = m.state, self.plan
        k_fatal = self.synced_epoch + 1
        k_next = k_fatal + 1
        detect_t = rt.now()
        if self.tracer.enabled:
            self.tracer.emit(
                ElectionEvent(
                    t=detect_t,
                    node=self.node_id,
                    fatal_epoch=k_fatal,
                    synced_epoch=self.synced_epoch,
                    plan_epoch=k_fatal if plan is not None else -1,
                )
            )

        # Re-fence: every live slave switches to this node as master.
        # Planned deactivations of the fatal round are *cancelled* (a
        # slave whose outbound moves never executed still owns state;
        # keeping everyone active is always safe — the next reorg can
        # shrink the degree of declustering again).  Slaves that were
        # already inactive before the fatal round stay inactive.
        planned = plan.new_active if plan is not None else ()
        active_after = tuple(
            sorted((set(state.active) | set(planned)) - state.dead)
        )
        schedules = build_schedules(
            active_after, cfg.num_subgroups, cfg.dist_epoch
        )
        moves = plan.moves if plan is not None else ()
        # Move consumers first: a supplier blocked in a rendezvous
        # StateTransfer send can only proceed once its consumer has
        # absorbed (or abandoned) the transfer.
        consumers = sorted({mv.dst for mv in moves})
        live = [s for s in m.all_slaves if s not in state.dead]
        targets = consumers + [s for s in live if s not in consumers]
        for s in targets:
            yield self.comm.send(
                s,
                TakeOver(
                    k_next,
                    clock=rt.now(),
                    schedule=schedules.get(s),
                    active=s in active_after,
                    plan_epoch=k_fatal if plan is not None else -1,
                    pending_in=tuple(mv for mv in moves if mv.dst == s),
                ),
            )
        rejoined: dict[int, Rejoin] = {}
        for s in targets:
            msg = yield from self.comm.recv_expect(
                s, Rejoin, timeout=m._detect_timeout
            )
            if peer_silent(msg):
                yield from m._on_slave_silent(s, k_fatal, "rejoin")
                continue
            rejoined[s] = msg
            for pid, epoch, rows in msg.pairs:
                # Same tag space as the sync's chunks: a chunk the dead
                # master banked *and* replicated deduplicates here.
                m._pair_store.setdefault((s, pid, epoch), rows)

        # Replay the fatal round like a synced one; a slave's Rejoin
        # proves whether it received the fatal shipment.
        pre_plan_owner = dict(state.mapping)
        shipped = {
            s for s, rj in rejoined.items() if rj.last_shipment_epoch == k_fatal
        }
        teed = self.replay_round(k_fatal, plan, shipped)
        m.metrics.replication_bytes += teed * cfg.tuple_bytes

        # Reconcile the mapping against the slaves' sworn claims: a
        # claimed partition belongs to its claimant; an unclaimed one
        # whose planned move/adoption/restore evidently never executed
        # falls back to its pre-plan owner, so the ordinary recovery
        # machinery re-adopts it from the (dead) owner next round.
        claims = {pid: s for s, rj in rejoined.items() for pid in rj.owned_pids}
        restore_dst = dict(plan.remaps) if plan is not None else {}
        for pid, owner in sorted(state.mapping.items()):
            claimant = claims.get(pid)
            if claimant is not None:
                if claimant != owner:
                    state.remap(pid, claimant)
                continue
            if plan is not None and pid in plan.restores:
                # Unexecuted restore: the replica still sits at the
                # planned restorer — point the backup map back at it or
                # the re-planned restore would rebuild from genesis.
                state.backup_of[pid] = restore_dst[pid]
            prev = pre_plan_owner.get(pid, owner)
            if prev != owner:
                state.remap(pid, prev)

        # The master's own crash is recovered the moment the takeover
        # completes (nothing was lost); every record the fatal round
        # left unrecovered stays queued for the next recovery round.
        now = rt.now()
        record = state.record_failure(self.master_id, k_fatal, detect_t, "standby")
        record.update(restored_pids=(), lost_pids=())
        state.finish_recovery([record], now)
        state.active = active_after
        if self.tracer.enabled:
            self.tracer.emit(
                TakeoverEvent(
                    t=now,
                    node=self.node_id,
                    epoch=k_next,
                    rejoined=tuple(sorted(rejoined)),
                    latency=now - detect_t,
                )
            )
        self.took_over = True
        yield from m.run(k_next)
