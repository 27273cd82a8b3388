"""The slave-side backup store: per-partition checkpoint + log."""

from __future__ import annotations

from repro.core.partition_group import PartitionGroupState
from repro.core.protocol import Checkpoint, Replicate
from repro.data.tuples import TupleBatch


class BackupEntry:
    """One backed-up partition: optional base image + shipment log.

    A missing base (``state is None``) is the implicit *genesis*
    checkpoint — the partition started empty and the log reaches back
    to epoch 0, so replaying it alone reconstructs the full state.
    """

    __slots__ = ("state", "buffered", "base_epoch", "log")

    def __init__(self) -> None:
        self.state: PartitionGroupState | None = None
        self.buffered: TupleBatch | None = None
        self.base_epoch = -1
        #: ``(shipment_epoch, batch)`` records newer than the base.
        self.log: list[tuple[int, TupleBatch]] = []

    def rebase(self, cp: Checkpoint) -> None:
        """Install a fresh base image and truncate the covered log.

        A checkpoint taken at reorg epoch *k* reflects every shipment
        up to and including epoch ``k - 1`` (the owner snapshots after
        buffering, before the epoch-*k* shipment), so log records with
        ``epoch < k`` are subsumed.
        """
        self.state = cp.state
        self.buffered = cp.buffered
        self.base_epoch = cp.epoch
        self.log = [(e, b) for e, b in self.log if e >= cp.epoch]

    def append(self, epoch: int, batch: TupleBatch) -> None:
        # Idempotent per epoch: a partition drains at most once per
        # round, so a re-delivered log record (the acting master
        # re-flushing pending replication it inherited after a master
        # failover) is a duplicate, not new data.
        if epoch >= self.base_epoch and all(e != epoch for e, _b in self.log):
            self.log.append((epoch, batch))


class BackupStore:
    """All partitions a slave currently backs up.

    Maintained exclusively through :class:`~repro.core.protocol.Replicate`
    messages from the master; drained through :meth:`take` when the
    master orders a restore.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: dict[int, BackupEntry] = {}

    def apply(self, msg: Replicate) -> None:
        """Apply one epoch's maintenance: drop, re-base, then append."""
        for pid in msg.drops:
            self.entries.pop(pid, None)
        for cp in msg.checkpoints:
            self.entries.setdefault(cp.pid, BackupEntry()).rebase(cp)
        for pid, epoch, batch in msg.entries:
            self.entries.setdefault(pid, BackupEntry()).append(epoch, batch)

    def take(
        self, pid: int
    ) -> tuple[PartitionGroupState | None, TupleBatch | None, list[TupleBatch]]:
        """Remove and return ``(state, buffered, log)`` for a restore.

        An unknown *pid* yields the empty genesis — a valid restore
        point for a partition that never accumulated backed-up state.
        """
        entry = self.entries.pop(pid, None)
        if entry is None:
            return None, None, []
        return entry.state, entry.buffered, [b for _e, b in entry.log]

    def clear(self) -> None:
        self.entries.clear()

    def pids(self) -> list[int]:
        return sorted(self.entries)

    def __contains__(self, pid: int) -> bool:
        return pid in self.entries

    def __len__(self) -> int:
        return len(self.entries)
