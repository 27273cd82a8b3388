"""Wire protocol between master, slaves and collector.

The communication pattern is *fixed* (Section III): every exchange
happens at a scheduled point of the epoch structure, so each message
type corresponds to exactly one step of the schedule.  Receiving an
unexpected type raises :class:`~repro.errors.ProtocolError` in the node
loops.

Payload sizes: tuple-bearing messages cost ``n * tuple_bytes`` wire
bytes (the paper's 64 B machine-independent tuple format); control
messages cost a small fixed size.

The field annotations below *are* the wire schema: :mod:`repro.net.wire`
derives every message's encoder and decoder from them at import, and
fails the import if an annotation has no wire rule or a ``Message``
subclass defined here has no row in its tag ledger.  Lint rule PROTO001
keeps the schedule side honest (every subclass is constructed and, when
sent, dispatched by a node loop).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from repro.core.metrics import DelayStats
from repro.core.partition_group import PartitionGroupState
from repro.core.subgroups import SlotSchedule
from repro.data.tuples import TupleBatch

#: Wire size of a bare control message (headers + a few ints).
CONTROL_BYTES = 64
#: Wire size of a per-epoch load report.
REPORT_BYTES = 96
#: Wire size of a per-epoch result report to the collector (stats +
#: log-spaced delay histogram).
RESULT_REPORT_BYTES = 640

#: An ``(n, 2)`` int64 matrix of joined ``(seq, seq)`` pairs.  Type
#: checkers see a plain ndarray; the wire codec keys its pair-matrix
#: rule (flattened on the wire, even element count) on the marker.
PairMatrix = t.Annotated[np.ndarray, "(n, 2) int64 pairs"]


@dataclass(frozen=True)
class Message:
    """Base class: every message knows its wire size."""

    def wire_bytes(self, tuple_bytes: int) -> int:
        return CONTROL_BYTES


@dataclass(frozen=True)
class Shipment(Message):
    """Master -> slave: the tuples of one distribution epoch.

    Tuples of both streams travel merged, distinguished by the
    stream-id column (the paper's augmented-attribute option).
    ``epoch_start`` lets the slave compute its exact expiry cutoff.
    """

    epoch: int
    epoch_start: float
    epoch_end: float
    batch: TupleBatch

    def wire_bytes(self, tuple_bytes: int) -> int:
        return CONTROL_BYTES + len(self.batch) * tuple_bytes


@dataclass(frozen=True)
class LoadReport(Message):
    """Slave -> master: average buffer occupancy over the last epochs."""

    epoch: int
    avg_occupancy: float
    last_occupancy: float
    window_bytes: int

    def wire_bytes(self, tuple_bytes: int) -> int:
        return REPORT_BYTES


class MoveDirective(t.NamedTuple):
    """One partition-group move: partition ``pid`` from ``src`` to ``dst``."""

    pid: int
    src: int
    dst: int


@dataclass(frozen=True)
class ReorgOrder(Message):
    """Master -> slave at a reorganization epoch.

    Carries the moves this slave participates in (as supplier and/or
    consumer), whether the slave is being deactivated afterwards, and a
    clock-synchronization stamp (Algorithm 1, line 18).

    Recovery orders additionally carry ``adopt``: partition-groups of a
    crashed slave this slave must re-own with *empty* window state (no
    supplier survives to send a :class:`StateTransfer`).  Each adoption
    is acknowledged with a ``role="adopt"`` :class:`MoveAck`.
    """

    epoch: int
    outgoing: tuple[MoveDirective, ...] = ()
    incoming: tuple[MoveDirective, ...] = ()
    deactivate: bool = False
    clock: float = 0.0
    #: This slave's communication slot from the next epoch on.
    schedule: SlotSchedule | None = None
    #: Partition-groups to adopt from a dead slave (rebuilt empty).
    adopt: tuple[int, ...] = ()
    #: Partitions this slave must checkpoint after applying the order
    #: (replication mode: owner-side snapshot shipped to the master).
    checkpoint_pids: tuple[int, ...] = ()

    def wire_bytes(self, tuple_bytes: int) -> int:
        return CONTROL_BYTES + 24 * (
            len(self.outgoing) + len(self.incoming)
        ) + 8 * (len(self.adopt) + len(self.checkpoint_pids))


@dataclass(frozen=True)
class StateTransfer(Message):
    """Supplier slave -> consumer slave: a partition-group's state."""

    pid: int
    state: PartitionGroupState
    buffered: TupleBatch

    def wire_bytes(self, tuple_bytes: int) -> int:
        n = self.state.n_tuples + len(self.buffered)
        return CONTROL_BYTES + n * tuple_bytes


@dataclass(frozen=True)
class MoveAck(Message):
    """Slave -> master: one side of a state move completed.

    In replication mode the supplier's ack carries the moved
    partition's collected join pairs (``pairs``), so already-produced
    output survives a later crash of either slave (the master keeps it
    durably).  ``None`` outside test/replication mode.
    """

    pid: int
    role: str  # "supplier" | "consumer" | "adopt" | "restore"
    pairs: PairMatrix | None = None

    def wire_bytes(self, tuple_bytes: int) -> int:
        n = 0 if self.pairs is None else len(self.pairs)
        return CONTROL_BYTES + 16 * n


@dataclass(frozen=True)
class Activate(Message):
    """Master -> slave: join the active set at the next epoch."""

    epoch: int
    clock: float = 0.0
    schedule: SlotSchedule | None = None


@dataclass(frozen=True)
class ResultReport(Message):
    """Slave -> collector: per-epoch output statistics.

    The collector merges statistics (a :class:`~repro.core.metrics.DelayStats`
    snapshot) rather than raw result tuples — see DESIGN.md, "known
    deviations".
    """

    epoch: int
    stats: DelayStats

    def wire_bytes(self, tuple_bytes: int) -> int:
        return RESULT_REPORT_BYTES


@dataclass(frozen=True)
class Halt(Message):
    """Master -> everyone: end of run, shut down cleanly."""

    epoch: int


@dataclass(frozen=True)
class SlaveSync(Message):
    """Slave -> master: per-epoch hello carrying the load sample.

    This is the slave-initiated connection of the fixed schedule: the
    slave contacts the master at its slot, hands over its status, and
    the master answers with the epoch's Shipment (or ReorgOrder).
    """

    epoch: int
    report: LoadReport

    def wire_bytes(self, tuple_bytes: int) -> int:
        return REPORT_BYTES


@dataclass(frozen=True)
class Checkpoint(Message):
    """A compact replica of one partition-group, as of ``epoch``.

    Travels twice: owner slave -> master (piggybacked on a reorg order
    via :attr:`ReorgOrder.checkpoint_pids`) and master -> backup slave
    (inside a :class:`Replicate`).  ``state``/``buffered`` mirror a
    :class:`StateTransfer` but are *copies* — the owner keeps working.
    ``pairs`` drains the owner's collected join output for the pid so
    it is held durably at the master (test/replication mode only).
    """

    pid: int
    epoch: int
    state: PartitionGroupState
    buffered: TupleBatch
    pairs: PairMatrix | None = None

    def wire_bytes(self, tuple_bytes: int) -> int:
        n = self.state.n_tuples + len(self.buffered)
        npairs = 0 if self.pairs is None else len(self.pairs)
        return CONTROL_BYTES + n * tuple_bytes + 16 * npairs


@dataclass(frozen=True)
class Replicate(Message):
    """Master -> backup slave: pending replication maintenance.

    Sent right before every Shipment/ReorgOrder in replication mode so
    the backup store stays current without extra schedule slots:

    * ``drops`` — partitions this slave no longer backs up;
    * ``checkpoints`` — fresh base images (truncate the pid's log);
    * ``entries`` — ``(pid, shipment_epoch, batch)`` log records teed
      from the owners' epoch shipments.

    Applied in that order (drop, re-base, append).
    """

    epoch: int
    entries: tuple[tuple[int, int, TupleBatch], ...] = ()
    drops: tuple[int, ...] = ()
    checkpoints: tuple[Checkpoint, ...] = ()

    def wire_bytes(self, tuple_bytes: int) -> int:
        total = CONTROL_BYTES + 8 * len(self.drops)
        for _pid, _epoch, batch in self.entries:
            total += 16 + len(batch) * tuple_bytes
        for cp in self.checkpoints:
            total += cp.wire_bytes(tuple_bytes)
        return total


@dataclass(frozen=True)
class Restore(Message):
    """Master -> backup slave: rebuild ``pids`` from the backup store.

    Always follows the epoch's :class:`ReorgOrder` in replication mode
    (often with no pids) so the schedule stays fixed.  The same round's
    :class:`Replicate` already flushed any pending maintenance, so the
    message only needs to name the partitions.  Each restore is
    acknowledged with a ``role="restore"`` :class:`MoveAck`.
    """

    epoch: int
    pids: tuple[int, ...] = ()

    def wire_bytes(self, tuple_bytes: int) -> int:
        return CONTROL_BYTES + 8 * len(self.pids)


@dataclass(frozen=True)
class StandbySync(Message):
    """Master -> standby: the coordinator's durable delta for one round.

    Sent once at the *end* of every epoch the master survives, so the
    standby's shadow state always reflects a round boundary.  Rather
    than shipping the mini-buffer contents, the sync carries the
    **operation log** of the round (``ops``): the standby holds its own
    deterministic workload replica, so replaying ``("gen", t0, t1)``,
    ``("drain", slave, now)`` and ``("remap", pid, dst)`` records in
    order reconstructs the buffers bit for bit (see DESIGN.md §8).

    The control-plane remainder travels explicitly: the active set, the
    fenced dead set, the backup-ring assignment, the covered-pid set,
    the un-flushed pending-replication ledger, the failure records
    (as JSON — they are plain dicts) and the pair chunks the master
    banked durably this round, tagged ``(slave, pid, epoch)``.
    """

    epoch: int
    ops: tuple[
        tuple[t.Literal["gen", "drain", "remap"], float, float], ...
    ] = ()
    active: tuple[int, ...] = ()
    dead: tuple[int, ...] = ()
    next_gen_time: float = 0.0
    #: Backup-ring assignment after this round, as ``(pid, backup)``.
    backup_of: tuple[tuple[int, int], ...] = ()
    covered: tuple[int, ...] = ()
    #: Un-flushed replication maintenance, per backup slave.
    pending: tuple[tuple[int, Replicate], ...] = ()
    failures_json: str = "[]"
    #: Durable pair chunks banked this round: ``(slave, pid, epoch, rows)``.
    pairs: tuple[tuple[int, int, int, PairMatrix], ...] = ()

    def wire_bytes(self, tuple_bytes: int) -> int:
        total = CONTROL_BYTES + 24 * len(self.ops) + 8 * (
            len(self.active) + len(self.dead) + len(self.covered)
        ) + 16 * len(self.backup_of) + len(self.failures_json)
        for _backup, rep in self.pending:
            total += rep.wire_bytes(tuple_bytes)
        for _slave, _pid, _epoch, rows in self.pairs:
            total += 24 + 16 * len(rows)
        return total


@dataclass(frozen=True)
class StandbyPlan(Message):
    """Master -> standby: a reorg/recovery decision, before execution.

    Sent right after the master computes a reorganization or recovery
    plan and *before* any order reaches a slave, so the standby always
    knows the plan a fatal round was executing.  If the standby never
    received the plan, no slave received an order either — the plan
    send happens-before every side effect of the round.
    """

    epoch: int
    moves: tuple[MoveDirective, ...] = ()
    new_active: tuple[int, ...] = ()
    deactivate: tuple[int, ...] = ()
    #: Buffer remaps ``(pid, dst)`` the plan applies at the master
    #: *before* any drain (adoption of dead slaves' partitions and the
    #: plan's own moves).  The standby cannot derive recovery-round
    #: adoption targets itself, yet they decide which tuples the fatal
    #: round's drains removed.
    remaps: tuple[tuple[int, int], ...] = ()
    #: The subset of remapped pids rebuilt from a backup replica (the
    #: rest are empty adoptions).  Needed to replay the round's backup
    #: placement refresh, which exempts in-restore partitions from the
    #: replica drop it would otherwise issue.
    restores: tuple[int, ...] = ()

    def wire_bytes(self, tuple_bytes: int) -> int:
        return CONTROL_BYTES + 24 * len(self.moves) + 8 * (
            len(self.new_active) + len(self.deactivate) + len(self.restores)
        ) + 16 * len(self.remaps)


@dataclass(frozen=True)
class TakeOver(Message):
    """Standby -> slave: the standby is the acting master now.

    Re-fences the in-flight epoch: the slave switches its master id to
    the standby, adopts ``epoch`` as the next round index and answers
    with a :class:`Rejoin`.  ``pending_in`` lists the fatal round's
    planned moves *into* this slave whose :class:`StateTransfer` may
    still be in flight — the slave absorbs each with a timed receive
    before rejoining (supplier dead or never ordered -> timeout ->
    the move is abandoned and the supplier keeps the partition).
    """

    epoch: int
    clock: float = 0.0
    schedule: SlotSchedule | None = None
    active: bool = True
    #: Epoch of the plan the moves belong to (-1: no plan in flight).
    plan_epoch: int = -1
    pending_in: tuple[MoveDirective, ...] = ()

    def wire_bytes(self, tuple_bytes: int) -> int:
        return CONTROL_BYTES + 24 * len(self.pending_in)


@dataclass(frozen=True)
class Rejoin(Message):
    """Slave -> standby: acknowledgement of a :class:`TakeOver`.

    Reports what the slave actually holds so the new master can rebuild
    the authoritative partition map: the owned partition-groups, the
    last epochs it received a shipment / a reorg order for, and any
    join-pair chunks it surrendered (in a Checkpoint or MoveAck) that
    the dead master may never have banked — tagged ``(pid, epoch)`` so
    the new master deduplicates against the replicated pair store.
    """

    epoch: int
    owned_pids: tuple[int, ...] = ()
    last_shipment_epoch: int = -1
    last_order_epoch: int = -1
    active: bool = True
    #: Possibly-unbanked pair chunks: ``(pid, epoch, rows)``.
    pairs: tuple[tuple[int, int, PairMatrix], ...] = ()

    def wire_bytes(self, tuple_bytes: int) -> int:
        total = CONTROL_BYTES + 8 * len(self.owned_pids)
        for _pid, _epoch, rows in self.pairs:
            total += 16 + 16 * len(rows)
        return total


MasterToSlave = t.Union[
    Shipment, ReorgOrder, Activate, Halt, Replicate, Restore, TakeOver
]
SlaveToMaster = t.Union[SlaveSync, MoveAck, Checkpoint, Rejoin]
MasterToStandby = t.Union[StandbySync, StandbyPlan, Halt]
