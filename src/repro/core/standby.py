"""The standby coordinator (master failover).

A standby node mirrors the master's *durable* coordinator state and
assumes the master role when the master dies, so a run survives a
master crash without losing a single tuple or joined pair.

The mirroring protocol (see DESIGN.md §8):

* The master ends every round ``k`` it survives with a
  :class:`~repro.core.protocol.StandbySync` — the round's op log
  (ingestions, drains, remaps), plus authoritative snapshots of the
  small coordinator structures (active set, dead set, backup placement,
  pending replication, failure records, banked pair chunks).  The
  standby *replays* the op log against its own shadow
  :class:`~repro.core.buffer.MasterBuffer` and workload replica, so the
  heavy state (buffered tuples) is reconstructed rather than shipped.
* Before a reorganization or recovery round has any slave-visible side
  effect, the master sends the full plan as a
  :class:`~repro.core.protocol.StandbyPlan`.  The plan send
  happens-before every order, so "standby has no plan for round k"
  proves "no slave acted on a plan in round k".

Receipt of sync ``k`` therefore proves all of round ``k`` executed, and
a master death is always pinned to exactly one *fatal round*
``synced + 1``.  The takeover re-fences that round: every live slave
gets a :class:`~repro.core.protocol.TakeOver` and answers with a
:class:`~repro.core.protocol.Rejoin` stating exactly what it owns, the
last shipment/order it saw, and any pair chunks the dead master may not
have banked.  The standby replays the fatal round against its shadow
buffer (generation is quantized to slot times, so the replay is
bit-identical to what the dead master computed), reconciles the
partition mapping against the slaves' claims, and resumes the schedule
at round ``fatal + 1`` as the acting master.

Deviation from a real deployment: the shadow replay is not charged any
modeled CPU — the standby is assumed to keep up with the sync stream.
"""

from __future__ import annotations

import json
import typing as t

from repro.config import SystemConfig
from repro.core.master import MasterNode, _PendingReplication
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
from repro.mp.comm import Communicator
from repro.obs.events import ElectionEvent, TakeoverEvent
from repro.obs.tracer import NULL_TRACER, Tracer


class StandbyNode:
    """Hot-standby coordinator: mirror, detect, take over.

    *master* is a dormant :class:`MasterNode` built over this node's
    own communicator and a shadow buffer/workload/controller — it holds
    the mirrored state while the real master lives, and literally
    becomes the acting master (``run_from``) after a takeover.
    """

    def __init__(
        self,
        node_id: int,
        cfg: SystemConfig,
        runtime: t.Any,
        comm: Communicator,
        master: MasterNode,
        master_id: int,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.node_id = node_id
        self.cfg = cfg
        self.rt = runtime
        self.comm = comm
        self.master = master
        self.master_id = master_id
        self.tracer = tracer
        #: Last round whose StandbySync arrived (-1: none yet — the
        #: shadow master still holds the construction-time state, which
        #: is identical to the real master's).
        self.synced_epoch = -1
        #: Plans received for rounds not yet synced, keyed by epoch.
        self.plans: dict[int, StandbyPlan] = {}
        self.took_over = False
        # Detection: NodeDown is the primary signal (immediate on the
        # sim transport, EOF-driven on the distributed ones); the timer
        # is a generous fallback so a wedged master cannot strand the
        # run.  Spurious expiry would split-brain, hence the margin.
        self._margin: float | None = (
            2.0 * cfg.dist_epoch + cfg.faults.effective_timeout(cfg.dist_epoch)
            if cfg.faults.enabled
            else None
        )

    def _detect_deadline(self) -> float | None:
        """Timeout for the next mirror message, anchored to the sync
        cadence rather than to when this recv was posted: sync ``k+1``
        is due around ``(k + 2) * dist_epoch``.  Wall-clock children
        spawn *before* modeled t=0 (the start barrier's grace period),
        so a fixed relative timeout would expire before the master's
        first sync was ever due."""
        if self._margin is None:
            return None
        due = (self.synced_epoch + 2) * self.cfg.dist_epoch
        return max(self._margin, due + self._margin - self.rt.now())

    # ------------------------------------------------------------------
    def run(self) -> t.Generator:
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
                self.plans[msg.epoch] = msg
                continue
            self._apply_sync(msg)

    # -- mirroring ------------------------------------------------------
    def _apply_sync(self, sync: StandbySync) -> None:
        """Fold one completed round into the shadow master."""
        m = self.master
        for kind, a, b in sync.ops:
            if kind == "gen":
                if abs(a - m._next_gen_time) > 1e-9:
                    raise ProtocolError(
                        f"standby replay diverged: sync {sync.epoch} "
                        f"generates from {a}, shadow is at "
                        f"{m._next_gen_time}"
                    )
                batch = m.workload.generate(a, b)
                m.buffer.ingest(batch)
                m.metrics.tuples_ingested += len(batch)
                m._next_gen_time = b
            elif kind == "drain":
                # Content discarded: the drained tuples were delivered
                # to the slave; only the buffer-emptying effect (and
                # the last-drain stamp) must be replayed.
                m.buffer.drain_for(int(a), b)
            else:  # remap
                m.buffer.remap(int(a), int(b))
        if abs(m._next_gen_time - sync.next_gen_time) > 1e-9:
            raise ProtocolError(
                f"standby replay diverged after sync {sync.epoch}: "
                f"generation clock {m._next_gen_time} != synced "
                f"{sync.next_gen_time}"
            )
        # The small coordinator structures travel whole — authoritative
        # snapshots, not deltas, so one lost field can never compound.
        m.dead = set(sync.dead)
        m._set_active(list(sync.active))
        m._backup_of = dict(sync.backup_of)
        m._covered = set(sync.covered)
        m._pending = {
            backup: _PendingReplication.of(rep) for backup, rep in sync.pending
        }
        m.metrics.failures[:] = json.loads(sync.failures_json)
        for slave, pid, epoch, rows in sync.pairs:
            m._pair_store.setdefault((slave, pid, epoch), rows)
        self.synced_epoch = sync.epoch
        for epoch in [e for e in self.plans if e <= sync.epoch]:
            del self.plans[epoch]

    # -- takeover -------------------------------------------------------
    def _take_over(self) -> t.Generator:
        """Become the acting master: re-fence, replay, resume."""
        rt, cfg, m = self.rt, self.cfg, self.master
        k_fatal = self.synced_epoch + 1
        k_next = k_fatal + 1
        plan = self.plans.get(k_fatal)
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
        active_after = sorted((set(m.active) | set(planned)) - m.dead)
        schedules = build_schedules(
            active_after, cfg.num_subgroups, cfg.dist_epoch
        )
        moves = plan.moves if plan is not None else ()
        # Move consumers first: a supplier blocked in a rendezvous
        # StateTransfer send can only proceed once its consumer has
        # absorbed (or abandoned) the transfer.
        consumers = sorted({mv.dst for mv in moves})
        live = [s for s in m.all_slaves if s not in m.dead]
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

        # Replay the fatal round against the shadow buffer.  The dead
        # master's ingestion boundaries are a pure function of the
        # round structure (generation is quantized to slot times), so
        # the shadow reproduces its buffer bit for bit; drains are
        # replayed exactly for the slaves whose Rejoin proves they
        # received the fatal shipment.
        pre_plan_owner = dict(m.buffer.mapping)
        if plan is not None:
            m._apply_plan(plan)
        # Generation interleaves with the slot schedule: each slot's
        # drains see exactly the tuples generated up to its start.  A
        # reorganization round is one slot, and ships after its orders
        # — possibly to slaves the plan just activated, so all of them
        # are walked (partitions are disjoint across slaves).
        members = m.all_slaves if is_reorg_epoch(cfg, k_fatal) else m.active
        for t_slot, group in round_slots(cfg, k_fatal, members):
            m._generate_upto(t_slot)
            for s in group:
                rj = rejoined.get(s)
                if rj is None or rj.last_shipment_epoch != k_fatal:
                    continue  # never shipped: the tuples stay buffered
                _batch, _start, parts = m.buffer.drain_for(s, t_slot)
                if m.replication:
                    m._tee_parts(k_fatal, parts)

        # Reconcile the mapping against the slaves' sworn claims: a
        # claimed partition belongs to its claimant; an unclaimed one
        # whose planned move/adoption/restore evidently never executed
        # falls back to its pre-plan owner, so the ordinary recovery
        # machinery re-adopts it from the (dead) owner next round.
        claims = {pid: s for s, rj in rejoined.items() for pid in rj.owned_pids}
        restore_dst = dict(plan.remaps) if plan is not None else {}
        for pid, owner in sorted(m.buffer.mapping.items()):
            claimant = claims.get(pid)
            if claimant is not None:
                if claimant != owner:
                    m.buffer.remap(pid, claimant)
                continue
            if plan is not None and pid in plan.restores:
                # Unexecuted restore: the replica still sits at the
                # planned restorer — point the backup map back at it or
                # the re-planned restore would rebuild from genesis.
                m._backup_of[pid] = restore_dst[pid]
            prev = pre_plan_owner.get(pid, owner)
            if prev != owner:
                m.buffer.remap(pid, prev)

        # Failure bookkeeping: the master's own crash is recovered the
        # moment the takeover completes (nothing was lost), and every
        # record the fatal round left unrecovered re-enters the queue.
        now = rt.now()
        latency = now - detect_t
        m.metrics.failures.append(
            {
                "slave": self.master_id,
                "epoch": k_fatal,
                "detected_at": detect_t,
                "where": "standby",
                "pids": (),
                "window_bytes_lost": 0,
                "recovered_at": now,
                "recovery_latency": latency,
                "restored_pids": (),
                "lost_pids": (),
            }
        )
        m._unrecovered = [
            r
            for r in m.metrics.failures
            if r.get("recovered_at") is None
            and not r.get("unrecovered_at_halt")
        ]
        m._set_active(active_after)
        if self.tracer.enabled:
            self.tracer.emit(
                TakeoverEvent(
                    t=now,
                    node=self.node_id,
                    epoch=k_next,
                    rejoined=tuple(sorted(rejoined)),
                    latency=latency,
                )
            )
        self.took_over = True
        yield from m.run_from(k_next)
