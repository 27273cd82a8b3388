"""Replication building blocks: backup placement, the slave-side
backup store, and the snapshot -> crash -> restore round-trip on the
join module itself (checkpoint + log replay reproduces the window
state *and* exactly the post-snapshot join output)."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.costmodel import CostModel
from repro.core.declustering import plan_backups, plan_restores
from repro.core.join_module import JoinModule
from repro.core.metrics import MeasurementWindow, SlaveMetrics
from repro.core.protocol import Checkpoint, Replicate, Shipment
from repro.data.tuples import TupleBatch
from repro.replication import BackupStore
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from tests.conftest import drain


class TestPlanBackups:
    def test_successor_on_sorted_ring(self):
        owners = {0: 2, 1: 3, 2: 4}
        assert plan_backups(owners, {2, 3, 4}) == {0: 3, 1: 4, 2: 2}

    def test_fewer_than_two_live_slaves_yields_nothing(self):
        assert plan_backups({0: 2}, {2}) == {}
        assert plan_backups({0: 2}, set()) == {}

    def test_dead_owner_skipped(self):
        owners = {0: 2, 1: 9}
        assert plan_backups(owners, {2, 4}) == {0: 4}

    def test_backup_never_equals_owner(self):
        owners = {pid: 2 + pid % 4 for pid in range(16)}
        backups = plan_backups(owners, {2, 3, 4, 5})
        assert all(backups[pid] != owners[pid] for pid in owners)


class TestPlanRestores:
    def test_routes_to_live_backup(self):
        restore, leftovers = plan_restores(
            [3, 1], {1: 4, 3: 4}, live={2, 4}
        )
        assert restore == {4: (1, 3)}
        assert leftovers == ()

    def test_dead_or_unassigned_backup_left_over(self):
        restore, leftovers = plan_restores(
            [1, 2, 3], {1: 9, 2: 4}, live={2, 4}
        )
        assert restore == {4: (2,)}
        assert leftovers == (1, 3)


def batch(ts, keys, seqs, stream):
    n = len(ts)
    return TupleBatch.build(
        ts=ts, key=keys, seq=seqs, stream=[stream] * n
    )


class TestBackupStore:
    def checkpoint(self, pid, epoch, buffered=None):
        from repro.core.partition_group import PartitionGroupState

        state = PartitionGroupState(pid, 0, ())
        return Checkpoint(
            pid, epoch, state, buffered or TupleBatch.empty()
        )

    def test_unknown_pid_takes_genesis(self):
        store = BackupStore()
        assert store.take(7) == (None, None, [])

    def test_apply_order_drop_rebase_append(self):
        store = BackupStore()
        store.apply(
            Replicate(0, entries=((5, 0, TupleBatch.empty()),))
        )
        assert 5 in store
        # One message carrying all three actions for the same pid: the
        # drop clears history first, then the checkpoint re-bases, then
        # the entry lands on the fresh log.
        store.apply(
            Replicate(
                1,
                entries=((5, 1, TupleBatch.empty()),),
                drops=(5,),
                checkpoints=(self.checkpoint(5, 1),),
            )
        )
        state, buffered, log = store.take(5)
        assert state is not None
        assert len(log) == 1

    def test_rebase_truncates_covered_log(self):
        store = BackupStore()
        for epoch in range(4):
            store.apply(
                Replicate(epoch, entries=((3, epoch, TupleBatch.empty()),))
            )
        # Checkpoint at epoch 2 covers shipments <= 1.
        store.apply(Replicate(4, checkpoints=(self.checkpoint(3, 2),)))
        entry = store.entries[3]
        assert entry.base_epoch == 2
        assert [e for e, _b in entry.log] == [2, 3]

    def test_stale_entry_older_than_base_ignored(self):
        store = BackupStore()
        store.apply(Replicate(4, checkpoints=(self.checkpoint(3, 2),)))
        store.apply(Replicate(5, entries=((3, 1, TupleBatch.empty()),)))
        assert store.entries[3].log == []

    def test_take_removes_and_clear_empties(self):
        store = BackupStore()
        store.apply(Replicate(0, checkpoints=(self.checkpoint(1, 0),)))
        store.apply(Replicate(0, checkpoints=(self.checkpoint(2, 0),)))
        assert store.pids() == [1, 2]
        store.take(1)
        assert store.pids() == [2]
        store.clear()
        assert len(store) == 0


class TestSnapshotRestoreRoundTrip:
    """The pair-exactness invariant behind lossless recovery: a
    snapshot plus replay of everything shipped after it reproduces
    exactly the pairs the owner would have produced after the
    snapshot."""

    def make_module(self, geometry, npart=4, owned=True):
        metrics = SlaveMetrics(0, MeasurementWindow(0.0))
        module = JoinModule(
            0,
            geometry,
            CostModel(SystemConfig.paper_defaults().cost),
            npart,
            metrics,
            collect_pairs=True,
        )
        if owned:
            for pid in range(npart):
                module.add_partition(pid)
        return module, metrics

    @staticmethod
    def split_by_pid(batch, npart):
        from repro.core.hashing import partition_of

        pids = partition_of(batch.key, npart)
        return {
            int(pid): batch.take(np.flatnonzero(pids == pid))
            for pid in np.unique(pids)
        }

    def drain(self, module):
        drain(module, 100.0)

    def shipments(self, n_epochs=4, rate=150.0, seed=3):
        wl = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(seed), rate, 0.7, 500
        )
        out = []
        for k in range(n_epochs):
            out.append(
                Shipment(k, 2.0 * k, 2.0 * (k + 1), wl.generate(2.0 * k, 2.0 * (k + 1)))
            )
        return out

    def all_pairs(self, metrics):
        chunks = [c for c in metrics.pair_chunks()]
        if not chunks:
            return set()
        return {tuple(map(int, r)) for r in np.concatenate(chunks)}

    def test_checkpoint_plus_log_replay_is_exact(self, geometry):
        npart = 4
        ships = self.shipments()
        # Reference: one uninterrupted owner.
        ref_module, ref_metrics = self.make_module(geometry, npart)
        for s in ships:
            ref_module.enqueue(s)
            self.drain(ref_module)
        expected = self.all_pairs(ref_metrics)
        assert expected  # non-vacuous

        # Crashing owner: snapshot after epoch 1, then continue.
        owner, owner_metrics = self.make_module(geometry, npart)
        for s in ships[:2]:
            owner.enqueue(s)
            self.drain(owner)
        snapshots = {
            pid: owner.snapshot_partition(pid) for pid in range(npart)
        }
        pre_crash = {
            pid: owner_metrics.pop_pairs(pid) for pid in range(npart)
        }
        for s in ships[2:3]:
            owner.enqueue(s)
            self.drain(owner)
        # Epoch-2 output dies with the owner; epoch 2..3 shipments were
        # teed to the backup log (split per pid, as the master tees
        # them) and replay at the restorer.
        restorer, restorer_metrics = self.make_module(
            geometry, npart, owned=False
        )
        log = [self.split_by_pid(s.batch, npart) for s in ships[2:]]
        for pid in range(npart):
            state, buffered = snapshots[pid]
            restorer.restore_partition(
                pid,
                state,
                buffered,
                [parts[pid] for parts in log if pid in parts],
            )
        self.drain(restorer)
        got = set()
        for chunk in pre_crash.values():
            if chunk is not None and len(chunk):
                got |= {tuple(map(int, r)) for r in chunk}
        got |= self.all_pairs(restorer_metrics)
        assert got == expected
