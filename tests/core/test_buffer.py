"""The master's partitioned buffer and mapping table."""

import numpy as np
import pytest

from repro.core.buffer import MasterBuffer
from repro.core.hashing import partition_of
from repro.data.tuples import TupleBatch
from repro.errors import ProtocolError


def batch_with_keys(keys, t0=0.0):
    n = len(keys)
    return TupleBatch.build(
        ts=np.linspace(t0, t0 + 1.0, n), key=keys, stream=0
    )


@pytest.fixture
def buffer():
    buf = MasterBuffer(npart=8, tuple_bytes=64)
    buf.assign_round_robin([10, 11])
    return buf


class TestMapping:
    def test_round_robin_assignment(self, buffer):
        assert buffer.pids_of(10) == [0, 2, 4, 6]
        assert buffer.pids_of(11) == [1, 3, 5, 7]

    def test_remap(self, buffer):
        buffer.remap(0, 11)
        assert 0 in buffer.pids_of(11)
        assert 0 not in buffer.pids_of(10)

    def test_remap_unknown_pid(self, buffer):
        with pytest.raises(ProtocolError):
            buffer.remap(99, 10)

    def test_empty_slave_set_rejected(self):
        with pytest.raises(ProtocolError):
            MasterBuffer(4, 64).assign_round_robin([])


class TestIngestDrain:
    def test_drain_returns_only_owned_partitions(self, buffer):
        keys = np.arange(400, dtype=np.int64)
        buffer.ingest(batch_with_keys(keys))
        drained, _, _ = buffer.drain_for(10, now=2.0)
        pids = partition_of(drained.key, 8)
        assert set(np.unique(pids)) <= {0, 2, 4, 6}

    def test_drains_are_disjoint_and_complete(self, buffer):
        keys = np.arange(500, dtype=np.int64)
        buffer.ingest(batch_with_keys(keys))
        a, _, _ = buffer.drain_for(10, now=2.0)
        b, _, _ = buffer.drain_for(11, now=2.0)
        assert len(a) + len(b) == 500
        assert not set(a.key.tolist()) & set(b.key.tolist())
        assert buffer.total_bytes == 0

    def test_drain_is_time_sorted(self, buffer):
        buffer.ingest(batch_with_keys(np.arange(100), t0=0.0))
        buffer.ingest(batch_with_keys(np.arange(100, 200), t0=1.0))
        drained, _, _ = buffer.drain_for(10, now=3.0)
        assert np.all(np.diff(drained.ts) >= 0)

    def test_epoch_start_tracks_previous_drain(self, buffer):
        _, start0, _ = buffer.drain_for(10, now=2.0)
        assert start0 == 0.0
        _, start1, _ = buffer.drain_for(10, now=4.0)
        assert start1 == 2.0

    def test_remapped_partition_flows_to_new_owner(self, buffer):
        keys = np.arange(300, dtype=np.int64)
        pids = partition_of(keys, 8)
        pid0_count = int(np.count_nonzero(pids == 0))
        buffer.ingest(batch_with_keys(keys))
        buffer.remap(0, 11)
        drained, _, _ = buffer.drain_for(11, now=2.0)
        drained_pids = partition_of(drained.key, 8)
        assert int(np.count_nonzero(drained_pids == 0)) == pid0_count

    def test_bytes_accounting(self, buffer):
        buffer.ingest(batch_with_keys(np.arange(100)))
        assert buffer.total_bytes == 100 * 64
        assert buffer.bytes_of(10) + buffer.bytes_of(11) == 100 * 64

    def test_empty_ingest(self, buffer):
        buffer.ingest(TupleBatch.empty())
        assert buffer.total_bytes == 0

    @pytest.mark.parametrize("npart", [1, 8, 60, 300])
    def test_ingest_files_what_a_filter_per_pid_would(self, npart):
        """One sort splits a batch: every pid's mini-buffer gets the
        batch a ``pids == pid`` filter would give it (so arrival order
        inside a pid is kept), and the same bytes."""
        buffer = MasterBuffer(npart=npart, tuple_bytes=64)
        rng = np.random.default_rng(npart)
        expected = [[] for _ in range(npart)]
        for i, n in enumerate((700, 1, 0, 2500)):
            batch = TupleBatch.build(
                ts=np.sort(rng.random(n)) + i,
                key=rng.integers(-(10**7), 10**7, n),
                seq=rng.permutation(10**6)[:n],
                stream=rng.integers(0, 2, n),
            )
            buffer.ingest(batch)
            pids = partition_of(batch.key, npart)
            for pid in np.unique(pids):
                expected[pid].append(batch.take(np.flatnonzero(pids == pid)))
        for pid in range(npart):
            got = list(buffer._minibuffers[pid])
            assert len(got) == len(expected[pid])
            for mine, theirs in zip(got, expected[pid]):
                for column in ("ts", "key", "seq", "stream"):
                    np.testing.assert_array_equal(
                        getattr(mine, column), getattr(theirs, column)
                    )
        assert buffer._bytes_per_pid.tolist() == [
            sum(len(b) * 64 for b in batches) for batches in expected
        ]
