"""The master's partitioned buffer (Section IV-B, Figure 3).

Incoming tuples land in one *mini-buffer* per hash partition.  The
buffer also owns the **mapping** between partition ids and slave nodes;
draining for a slave concatenates exactly the mini-buffers of the
partitions currently assigned to it, merged across streams in timestamp
order (the machine-independent merged format of the paper, with the
stream-id column identifying sources).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.hashing import partition_of, split_by
from repro.data.tuples import TupleBatch
from repro.errors import ProtocolError


class MasterBuffer:
    """Partitioned tuple buffer + partition->slave mapping."""

    def __init__(self, npart: int, tuple_bytes: int) -> None:
        self.npart = int(npart)
        self.tuple_bytes = int(tuple_bytes)
        self._minibuffers: list[deque[TupleBatch]] = [
            deque() for _ in range(npart)
        ]
        self._bytes_per_pid = np.zeros(npart, dtype=np.int64)
        self.mapping: dict[int, int] = {}
        #: Per-slave timestamp of the last drain (epoch_start of the
        #: next shipment).
        self.last_drain: dict[int, float] = {}

    # -- mapping ---------------------------------------------------------
    def assign_round_robin(self, slaves: list[int], start_time: float = 0.0) -> None:
        """Initial placement: partitions dealt round-robin to *slaves*."""
        if not slaves:
            raise ProtocolError("cannot assign partitions to an empty slave set")
        for pid in range(self.npart):
            self.mapping[pid] = slaves[pid % len(slaves)]
        for s in slaves:
            self.last_drain.setdefault(s, start_time)

    def pids_of(self, slave: int) -> list[int]:
        return sorted(p for p, s in self.mapping.items() if s == slave)

    def remap(self, pid: int, dst: int) -> None:
        if pid not in self.mapping:
            raise ProtocolError(f"unknown partition {pid}")
        self.mapping[pid] = dst
        self.last_drain.setdefault(dst, 0.0)

    # -- data ----------------------------------------------------------------
    def ingest(self, batch: TupleBatch) -> None:
        """File a freshly generated batch into the mini-buffers."""
        pids = partition_of(batch.key, self.npart)
        for pid, rows in split_by(pids, self.npart):
            sub = batch.take(rows)
            self._minibuffers[pid].append(sub)
            self._bytes_per_pid[pid] += sub.payload_bytes(self.tuple_bytes)

    def drain_for(
        self, slave: int, now: float
    ) -> tuple[TupleBatch, float, dict[int, TupleBatch]]:
        """Remove and return all buffered tuples of *slave*'s partitions.

        Returns ``(batch, epoch_start, parts)`` where ``epoch_start``
        is the time of the previous drain for this slave (the
        shipment's coverage interval starts there) and ``parts`` holds
        the same tuples keyed per partition — the replication tee logs
        each pid's slice at its backup without re-partitioning.
        """
        parts: dict[int, TupleBatch] = {}
        for pid in self.pids_of(slave):
            queue = self._minibuffers[pid]
            if queue:
                parts[pid] = TupleBatch.concat(list(queue))
                queue.clear()
                self._bytes_per_pid[pid] = 0
        epoch_start = self.last_drain.get(slave, 0.0)
        self.last_drain[slave] = now
        merged = TupleBatch.concat(list(parts.values()))
        if len(merged) > 1:
            order = np.argsort(merged.ts, kind="stable")
            merged = merged.take(order)
        return merged, epoch_start, parts

    # -- accounting ------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return int(self._bytes_per_pid.sum())

    def bytes_of(self, slave: int) -> int:
        return int(sum(self._bytes_per_pid[pid] for pid in self.pids_of(slave)))
