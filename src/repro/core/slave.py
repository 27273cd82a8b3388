"""The slave node (Figure 2's right-hand box).

A slave runs **two cooperating processes**, mirroring the paper's
software components (each node of the testbed has two CPUs):

* the **comm module** (:meth:`SlaveNode.comm_loop`) follows the fixed
  communication schedule: at its slot of every distribution epoch it
  sends a :class:`~repro.core.protocol.SlaveSync` (carrying the load
  report), receives the epoch's shipment, and forwards per-epoch result
  statistics to the collector.  At reorganization epochs it executes
  the state-movement protocol (supplier and/or consumer role) and acts
  on degree-of-declustering orders.  An inactive slave blocks waiting
  for :class:`~repro.core.protocol.Activate`.

* the **join module driver** (:meth:`SlaveNode.join_loop`) consumes
  shipments from an internal queue and works through the join module's
  steps (:func:`~repro.core.steps.run_steps`), charging their units'
  modeled CPU cost to virtual time.

The two share the join state under a lock; the comm module only touches
it for state moves, so a long processing pass delays a state move — as
it would on the real system — but never deadlocks.

Fault plane: a slave wired to a :class:`~repro.faults.injector.
FaultInjector` routes every CPU charge through it (planned slowdowns);
a consumer whose supplier died mid-transfer adopts the partition-group
with empty window state (the :class:`~repro.faults.markers.NodeDown`
marker replaces the :class:`~repro.core.protocol.StateTransfer`) and
still acknowledges, keeping the master's ack count exact.  Recovery
orders (``ReorgOrder.adopt``) can arrive at *plain* epochs too.
"""

from __future__ import annotations

import typing as t
from functools import partial

from repro.config import SystemConfig
from repro.faults.markers import NodeDown, RecvTimeout, peer_silent
from repro.core.join_module import JoinModule
from repro.core.metrics import SlaveMetrics
from repro.core.steps import run_steps
from repro.core.protocol import (
    Activate,
    Checkpoint,
    Halt,
    LoadReport,
    MoveAck,
    MoveDirective,
    Rejoin,
    ReorgOrder,
    Replicate,
    ResultReport,
    Restore,
    Shipment,
    SlaveSync,
    StateTransfer,
    TakeOver,
)
from repro.core.subgroups import SlotSchedule, is_reorg_epoch
from repro.net.comm import Endpoint
from repro.obs.events import DrainEvent, StateMoveEvent
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.replication import BackupStore

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

#: Sentinel waking the join loop for shutdown.
HALT_TOKEN = object()
#: Sentinel waking the join loop to look for newly buffered work.
WAKE_TOKEN = object()


class SlaveNode:
    """One slave: comm loop + join loop over a shared join module."""

    def __init__(
        self,
        node_id: int,
        cfg: SystemConfig,
        runtime: t.Any,
        comm: Endpoint,
        module: JoinModule,
        metrics: SlaveMetrics,
        master_id: int,
        collector_id: int,
        schedule: SlotSchedule | None,
        active: bool,
        tracer: Tracer = NULL_TRACER,
        faults: "FaultInjector | None" = None,
        standby_id: int | None = None,
    ) -> None:
        self.node_id = node_id
        self.cfg = cfg
        self.rt = runtime
        self.comm = comm
        self.module = module
        self.metrics = metrics
        self.tracer = tracer
        self.master_id = master_id
        self.collector_id = collector_id
        self.schedule = schedule
        self.active = active
        self.faults = faults
        self.epoch = 0
        # Share the module's cost model so a non-dedicated slave's
        # reduced speed also applies to its state-move work.
        self.cost_model = module.cost_model
        self.lock = runtime.make_lock(f"slave{node_id}.state")
        self.work_queue = runtime.make_queue(f"slave{node_id}.work")
        #: Replicated checkpoint + log images this slave backs up for
        #: its ring neighbour (``None`` with replication off).
        self.replication = cfg.replication != "off"
        self.backup_store: BackupStore | None = (
            BackupStore() if self.replication else None
        )
        self._halted = False
        self._occ_sum = 0.0
        self._occ_n = 0
        self._last_occ = 0.0
        # -- master-failover state (all inert without a standby) --------
        self.standby_id = standby_id
        #: Receives from *peers* (not the master) are only allowed to
        #: block forever when no standby exists: with one, a dead master
        #: can strand a consumer waiting on a never-ordered supplier.
        self._peer_timeout: float | None = (
            cfg.faults.effective_timeout(cfg.dist_epoch)
            if standby_id is not None and cfg.faults.enabled
            else None
        )
        self._took_over = False
        self._last_shipment_epoch = -1
        self._last_order_epoch = -1
        #: Pair chunks surrendered to the master (supplier MoveAcks and
        #: checkpoints) that a master crash may not have banked yet,
        #: keyed ``(pid, epoch)``.  Pruned when a later master message
        #: proves the round was banked; resent in :class:`Rejoin`.
        self._limbo_pairs: dict[tuple[int, int], t.Any] = {}
        #: Incoming moves of an aborted order whose transfers were not
        #: yet installed when we detected master death mid-consume.
        self._pending_in_left: list[MoveDirective] | None = None

    # ------------------------------------------------------------------
    def processes(self) -> list[t.Generator]:
        return [self.comm_loop(), self.join_loop()]

    def _charge_state_move(self, nbytes: int) -> t.Generator:
        """Charge the modeled CPU cost of moving *nbytes* of state, with
        planned slowdowns applied."""
        rt = self.rt
        cost = self.cost_model.state_move_cost(nbytes)
        if self.faults is not None:
            cost = self.faults.scaled_cpu(self.node_id, rt.now(), cost)
        t0 = rt.now()
        yield rt.cpu(cost)
        self.metrics.charge_cpu("state_move", t0, rt.now())

    # -- join loop ------------------------------------------------------
    def join_loop(self) -> t.Generator:
        rt, metrics = self.rt, self.metrics
        slowdown = (
            None
            if self.faults is None
            else partial(self.faults.slowed_units, self.node_id)
        )
        while True:
            token = yield self.work_queue.get()
            if token is HALT_TOKEN:
                return
            if not self.module.has_work:
                continue
            yield self.lock.acquire()
            yield from run_steps(rt, metrics, self.module.steps(), slowdown)
            metrics.sample_window(rt.now(), self.module.window_bytes)
            self.lock.release()
            if self.module.has_work:
                # Backlog remains (a pass is bounded): re-arm ourselves
                # so draining continues after state moves had a chance
                # to take the lock.
                yield self.work_queue.put(WAKE_TOKEN)
            elif self.tracer.enabled:
                self.tracer.emit(
                    DrainEvent(
                        t=rt.now(),
                        node=self.node_id,
                        epoch=self.epoch,
                        window_bytes=self.module.window_bytes,
                    )
                )

    # -- comm loop ---------------------------------------------------------
    def comm_loop(self) -> t.Generator:
        rt, comm, td = self.rt, self.comm, self.cfg.dist_epoch
        while not self._halted:
            if not self.active:
                msg = yield from comm.recv_expect(self.master_id, Activate, Halt)
                if peer_silent(msg):
                    halted = yield from self._master_silent()
                    if halted:
                        yield from self._shutdown()
                        return
                    self._took_over = False
                    continue
                if isinstance(msg, Halt):
                    yield from self._shutdown()
                    return
                # Join the cluster: adopt the master's epoch counter and
                # slot schedule, then take part in the current
                # reorganization as a consumer.
                self.epoch = msg.epoch
                self.schedule = msg.schedule
                self.active = True
                if self.backup_store is not None:
                    # Anything backed up before a deactivation is stale
                    # by now; the master re-bootstraps what it needs.
                    self.backup_store.clear()
                halted = yield from self._exchange(
                    self.epoch, reorg=True, send_sync=False
                )
                if halted:
                    yield from self._shutdown()
                    return
                yield from self._report_results(self.epoch)
                self.epoch += 1
                continue

            k = self.epoch
            reorg = is_reorg_epoch(self.cfg, k)
            offset = 0.0 if reorg else self.schedule.slot_offset
            yield rt.sleep_until((k + 1) * td + offset)
            self._sample_occupancy()
            halted = yield from self._exchange(k, reorg)
            if halted:
                yield from self._shutdown()
                return
            if self._took_over:
                # A standby became the acting master mid-exchange; it
                # set our epoch/schedule via TakeOver — restart the loop
                # at its round rather than finishing this one.
                self._took_over = False
                continue
            if self.active:
                yield from self._report_results(k)
            self.epoch = k + 1

    # -- epoch exchanges --------------------------------------------------------
    def _exchange(
        self, k: int, reorg: bool, send_sync: bool = True
    ) -> t.Generator:
        """Round *k*'s exchange with the master; True when it halted."""
        comm = self.comm
        if send_sync:
            yield comm.send(self.master_id, SlaveSync(k, self._make_report(k)))
        if reorg:
            self._reset_occupancy_window()
        halted = yield from self._apply_replication(k)
        if halted or self._took_over:
            return halted
        # A ReorgOrder at a plain epoch is a recovery round: the master
        # is reassigning a dead slave's partition-groups.  Either way an
        # executed order is followed by the round's shipment.
        expected = (ReorgOrder, Halt) if reorg else (Shipment, ReorgOrder, Halt)
        while True:
            msg = yield from comm.recv_expect(self.master_id, *expected)
            if peer_silent(msg):
                return (yield from self._master_silent())
            if isinstance(msg, Halt):
                return True
            if isinstance(msg, Shipment):
                yield from self._accept_shipment(msg)
                return False
            halted = yield from self._handle_order(msg)
            if halted or self._took_over or not self.active:
                return halted
            expected = (Shipment, Halt)

    def _apply_replication(self, k: int) -> t.Generator:
        """Receive and apply the round's replication maintenance.

        With replication on, the master precedes every Shipment and
        every ReorgOrder with one :class:`Replicate` (possibly empty).
        The halt round skips it, so Halt is accepted here too; returns
        True in that case.
        """
        if not self.replication:
            return False
        msg = yield from self.comm.recv_expect(self.master_id, Replicate, Halt)
        if peer_silent(msg):
            return (yield from self._master_silent())
        if isinstance(msg, Halt):
            return True
        assert self.backup_store is not None
        self.backup_store.apply(msg)
        return False

    def _accept_shipment(self, shipment: Shipment) -> t.Generator:
        self._last_shipment_epoch = max(self._last_shipment_epoch, shipment.epoch)
        self._prune_limbo(shipment.epoch)
        # Filed without the state lock, so a backlogged join pass never
        # delays the comm schedule: the comm and join processes take
        # turns on one kernel, so this runs between the pass's steps and
        # its next drain picks the tuples up.  Only state moves need the
        # state lock.
        self.module.enqueue(shipment)
        yield self.work_queue.put(WAKE_TOKEN)

    def _handle_order(self, order: ReorgOrder) -> t.Generator:
        """Execute one :class:`ReorgOrder` (reorganization or recovery).

        Returns True when the exchange ended in a Halt.
        """
        rt, comm = self.rt, self.comm
        tuple_bytes = self.cfg.tuple_bytes
        self._last_order_epoch = max(self._last_order_epoch, order.epoch)
        self._prune_limbo(order.epoch)
        restore_pids: tuple[int, ...] = ()
        if self.replication:
            # The Restore rides right behind every ReorgOrder (possibly
            # empty).  Take it before any peer-dependent step so the
            # master's rendezvous send never waits on a state move.
            restore = yield from comm.recv_expect(self.master_id, Restore)
            if peer_silent(restore):
                return (yield from self._master_silent())
            restore_pids = restore.pids
        if order.schedule is not None:
            self.schedule = order.schedule

        # Supplier role: extract and ship partition-group states.
        popped_pairs: dict[int, t.Any] = {}
        for mv in order.outgoing:
            yield self.lock.acquire()
            state, buffered = self.module.extract_partition(mv.pid)
            if self.replication:
                # Retire the pairs this partition produced here; the
                # master banks them so a later crash of the new owner
                # cannot lose them (replay regenerates only the rest).
                popped_pairs[mv.pid] = self._retire_pairs(mv.pid, order.epoch)
            self.lock.release()
            nbytes = (state.n_tuples + len(buffered)) * tuple_bytes
            self._trace_move("begin", "supplier", mv.pid, mv.dst, nbytes, rt.now())
            yield from self._charge_state_move(nbytes)
            if self._peer_timeout is not None:
                # A consumer only posts a *timed* receive for this
                # transfer once the master is dead, and may have given
                # up already — probe the master before committing to
                # the rendezvous send so we never send into a channel
                # nobody will read.  Zero-timeout: alive == RecvTimeout.
                probe = yield from comm.recv_expect(
                    self.master_id, Halt, timeout=0.0
                )
                if isinstance(probe, Halt):
                    return True
                if isinstance(probe, NodeDown):
                    # Master died before we shipped: keep the group (our
                    # Rejoin claims it; the consumer's absorb times out
                    # and abandons the move — both sides agree).
                    yield self.lock.acquire()
                    self.module.install_partition(mv.pid, state, buffered)
                    self.lock.release()
                    self._trace_move(
                        "lost", "supplier", mv.pid, mv.dst, nbytes, rt.now()
                    )
                    # Our own incoming transfers may still be in flight.
                    self._pending_in_left = list(order.incoming)
                    return (yield from self._master_silent())
            yield comm.send(mv.dst, StateTransfer(mv.pid, state, buffered))
            self._trace_move("end", "supplier", mv.pid, mv.dst, nbytes, rt.now())

        # Consumer role: receive and install.  With a standby wired in
        # the receive is armed with a timeout: a supplier that never got
        # its order (master died first) will never send, and only a
        # probe of the master's channel can tell that apart from a
        # supplier that is merely slow.
        for i, mv in enumerate(order.incoming):
            while True:
                transfer = yield from comm.recv_expect(
                    mv.src, StateTransfer, timeout=self._peer_timeout
                )
                if not isinstance(transfer, RecvTimeout):
                    break
                probe = yield from comm.recv_expect(
                    self.master_id, Halt, timeout=0.0
                )
                if isinstance(probe, Halt):
                    return True
                if isinstance(probe, NodeDown):
                    # The master is dead; this and the remaining moves
                    # are absorbed (or abandoned) during failover.
                    self._pending_in_left = list(order.incoming[i:])
                    return (yield from self._master_silent())
                # RecvTimeout on the probe: the master is alive, the
                # supplier is just slow — keep waiting.
            if peer_silent(transfer):
                # The supplier died before (or while) shipping this
                # group's state: adopt the partition with empty windows
                # — the same lost-state deviation as crash recovery —
                # and still acknowledge, so the master's count is exact.
                yield self.lock.acquire()
                self.module.add_partition(mv.pid)
                self.lock.release()
                self._trace_move("lost", "consumer", mv.pid, mv.src, 0, rt.now())
                continue
            yield from self._install_transfer(mv.src, transfer)

        # Recovery role: re-own a dead slave's groups with empty state.
        # Ack *before* installing: there is no transferred state to
        # confirm (recovery epochs are moves-free), and the install may
        # wait on the join lock behind a long pass — a saturated but
        # live adopter must not trip the master's ack timeout.
        for pid in order.adopt:
            yield comm.send(self.master_id, MoveAck(pid, "adopt"))
        for pid in restore_pids:
            yield comm.send(self.master_id, MoveAck(pid, "restore"))
        for pid in order.adopt:
            yield self.lock.acquire()
            self.module.add_partition(pid)
            self.lock.release()

        # Restore role: rebuild a dead slave's groups from this node's
        # backup store (checkpoint base + shipment-log replay).
        for pid in restore_pids:
            assert self.backup_store is not None
            state, buffered, log = self.backup_store.take(pid)
            nbytes = (
                (0 if state is None else state.n_tuples)
                + (0 if buffered is None else len(buffered))
                + sum(len(b) for b in log)
            ) * tuple_bytes
            yield from self._charge_state_move(nbytes)
            yield self.lock.acquire()
            self.module.restore_partition(pid, state, buffered, log)
            self.lock.release()
            # Replayed shipments are pending work; wake the join loop.
            yield self.work_queue.put(WAKE_TOKEN)

        for mv in order.outgoing:
            yield comm.send(
                self.master_id,
                MoveAck(mv.pid, "supplier", pairs=popped_pairs.get(mv.pid)),
            )
        for mv in order.incoming:
            yield comm.send(self.master_id, MoveAck(mv.pid, "consumer"))

        if order.deactivate:
            if self.backup_store is not None:
                self.backup_store.clear()
            self.active = False
            return False

        # Checkpoint role: snapshot the requested partitions for their
        # backups.  Atomic with the pair retirement under the lock, so
        # the base image and the banked pairs describe the same point.
        for pid in order.checkpoint_pids:
            yield self.lock.acquire()
            state, buffered = self.module.snapshot_partition(pid)
            pairs = self._retire_pairs(pid, order.epoch)
            self.lock.release()
            nbytes = (state.n_tuples + len(buffered)) * tuple_bytes
            yield from self._charge_state_move(nbytes)
            yield comm.send(
                self.master_id,
                Checkpoint(pid, order.epoch, state, buffered, pairs),
            )
        return False

    def _install_transfer(self, src: int, transfer: StateTransfer) -> t.Generator:
        """Charge, install and wake for one received state transfer."""
        rt = self.rt
        nbytes = (
            transfer.state.n_tuples + len(transfer.buffered)
        ) * self.cfg.tuple_bytes
        self._trace_move("begin", "consumer", transfer.pid, src, nbytes, rt.now())
        yield from self._charge_state_move(nbytes)
        yield self.lock.acquire()
        self.module.install_partition(transfer.pid, transfer.state, transfer.buffered)
        self.lock.release()
        self._trace_move("end", "consumer", transfer.pid, src, nbytes, rt.now())
        # The moved buffer may contain work; wake the join loop.
        yield self.work_queue.put(WAKE_TOKEN)

    def _retire_pairs(self, pid: int, epoch: int) -> t.Any:
        """Pop the pairs *pid* produced here, for the master to bank."""
        pairs = self.metrics.pop_pairs(pid)
        if self.standby_id is not None and pairs is not None and len(pairs):
            # Limbo copy from the moment of retirement: if the master
            # dies before banking the chunk, it rides our Rejoin
            # instead.  Pruned once a later master message proves the
            # round was banked.
            self._limbo_pairs[(pid, epoch)] = pairs
        return pairs

    def _prune_limbo(self, epoch: int) -> None:
        """Drop limbo pair chunks the (live) master has provably banked.

        Any master message carrying ``epoch`` proves every chunk this
        slave surrendered in *earlier* rounds reached a master that
        since synchronized with its standby (the sync ends the round).
        Never called on :class:`TakeOver` — the new master has *not*
        necessarily banked the fatal round's chunks.
        """
        if self._limbo_pairs:
            for key in [k for k in self._limbo_pairs if k[1] < epoch]:
                del self._limbo_pairs[key]

    def _master_silent(self) -> t.Generator:
        """The master's channel died mid-exchange: fail over.

        Waits for the standby's :class:`TakeOver`, absorbs any state
        transfers still in flight from the aborted order, and answers
        with a :class:`Rejoin` describing exactly what this slave owns
        and the last rounds it saw — the acting master rebuilds its
        shadow mapping from these.  Returns True when the slave should
        halt instead (no standby, standby dead too, or it sent Halt).
        """
        if self.standby_id is None:
            return True
        msg = yield from self.comm.recv_expect(self.standby_id, TakeOver, Halt)
        if peer_silent(msg) or isinstance(msg, Halt):
            return True
        yield from self._absorb_pending(msg)
        self.master_id = self.standby_id
        self.epoch = msg.epoch
        if msg.schedule is not None:
            self.schedule = msg.schedule
        self.active = msg.active
        yield self.comm.send(
            self.master_id,
            Rejoin(
                msg.epoch,
                owned_pids=tuple(sorted(self.module.owned_pids())),
                last_shipment_epoch=self._last_shipment_epoch,
                last_order_epoch=self._last_order_epoch,
                active=self.active,
                pairs=tuple(
                    (pid, e, rows)
                    for (pid, e), rows in sorted(self._limbo_pairs.items())
                ),
            ),
        )
        # The acting master banked (or deduplicated) every limbo chunk.
        self._limbo_pairs.clear()
        self._took_over = True
        return False

    def _absorb_pending(self, takeover: TakeOver) -> t.Generator:
        """Drain fatal-round state transfers that may be in flight.

        A supplier that executed its order before the master died is
        blocked in a rendezvous send towards this node; the matching
        receive must be posted or that supplier never reaches its own
        failover receive.  The receive is timed: a supplier that never
        got the order won't send (it keeps the partition and claims it
        in its Rejoin), and a dead one yields NodeDown — both leave the
        group with its pre-plan owner for ordinary recovery to handle.
        """
        if self._pending_in_left is not None:
            # We bailed out mid-consume: only the uninstalled tail of
            # our own aborted order can still be in flight.
            left = self._pending_in_left
        elif takeover.plan_epoch >= 0 and self._last_order_epoch < takeover.plan_epoch:
            # The fatal round's plan ordered moves to us but we never
            # received the order; suppliers that did may be mid-send.
            left = [mv for mv in takeover.pending_in if mv.dst == self.node_id]
        else:
            left = []
        self._pending_in_left = None
        for mv in left:
            transfer = yield from self.comm.recv_expect(
                mv.src, StateTransfer, timeout=self._peer_timeout
            )
            if peer_silent(transfer):
                continue
            yield from self._install_transfer(mv.src, transfer)

    def _trace_move(
        self, phase: str, role: str, pid: int, peer: int, nbytes: int, when: float
    ) -> None:
        if self.tracer.enabled:
            self.tracer.emit(
                StateMoveEvent(
                    t=when,
                    node=self.node_id,
                    phase=phase,
                    role=role,
                    pid=pid,
                    peer=peer,
                    nbytes=nbytes,
                )
            )

    # -- reporting ------------------------------------------------------------
    def _sample_occupancy(self) -> None:
        # The paper's metric is the fill fraction of a physical buffer,
        # bounded by 1.0; the module's raw value can exceed 1 when the
        # backlog would have overflowed the allotted memory.
        occ = min(1.0, self.module.occupancy(self.cfg.slave_buffer_bytes))
        self._occ_sum += occ
        self._occ_n += 1
        self._last_occ = occ
        self.metrics.sample_occupancy(self.rt.now(), occ)

    def _reset_occupancy_window(self) -> None:
        self._occ_sum = 0.0
        self._occ_n = 0

    def _make_report(self, k: int) -> LoadReport:
        avg = self._occ_sum / self._occ_n if self._occ_n else 0.0
        return LoadReport(k, avg, self._last_occ, self.module.window_bytes)

    def _report_results(self, k: int) -> t.Generator:
        stats = self.metrics.pop_unreported()
        yield self.comm.send(self.collector_id, ResultReport(k, stats))

    def _shutdown(self) -> t.Generator:
        self._halted = True
        yield self.work_queue.put(HALT_TOKEN)
        # Flush the outputs accumulated since the last report so the
        # collector's totals match the slaves' local statistics.
        yield from self._report_results(self.epoch)
        yield self.comm.send(self.collector_id, Halt(self.epoch))
