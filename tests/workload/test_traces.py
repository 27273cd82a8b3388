"""Trace save/load and epoch-by-epoch replay."""

import numpy as np
import pytest

from repro.data.tuples import TupleBatch
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer, load_trace, save_trace


@pytest.fixture
def trace():
    wl = TwoStreamWorkload.poisson_bmodel(RngRegistry(0), 300.0, 0.7, 10_001)
    return wl.generate(0.0, 20.0)


class TestSaveLoad:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert np.array_equal(loaded.ts, trace.ts)
        assert np.array_equal(loaded.key, trace.key)
        assert np.array_equal(loaded.seq, trace.seq)
        assert np.array_equal(loaded.stream, trace.stream)


class TestReplayer:
    def test_epochwise_replay_covers_everything_once(self, trace):
        replayer = TraceReplayer(trace)
        total = 0
        for t in range(0, 20, 2):
            batch = replayer.generate(float(t), float(t + 2))
            assert np.all(batch.ts >= t)
            assert np.all(batch.ts < t + 2)
            total += len(batch)
        assert total == len(trace)

    def test_replay_matches_generator_boundaries(self, trace):
        """Replaying with different epoch boundaries yields the same
        tuples overall — the property that makes oracle tests possible."""
        fine = TraceReplayer(trace)
        coarse = TraceReplayer(trace)
        fine_out = [fine.generate(t / 2, (t + 1) / 2) for t in range(80)]
        coarse_out = [coarse.generate(5.0 * t, 5.0 * (t + 1)) for t in range(8)]
        a = np.concatenate([b.seq for b in fine_out if len(b)])
        b = np.concatenate([b.seq for b in coarse_out if len(b)])
        assert np.array_equal(a, b)

    def test_backwards_read_rejected(self, trace):
        replayer = TraceReplayer(trace)
        replayer.generate(0.0, 10.0)
        with pytest.raises(ValueError):
            replayer.generate(0.0, 5.0)

    def test_sorted_trace_is_kept_not_copied(self, trace):
        replayer = TraceReplayer(trace)
        assert replayer.batch is trace
        assert replayer.replica().batch is trace

    def test_unsorted_trace_is_stably_sorted(self):
        # Ties at ts 1.0 and 2.0 keep their input order.
        batch = TupleBatch.build(
            ts=[2.0, 1.0, 3.0, 1.0, 2.0, 0.5],
            key=[10, 11, 12, 13, 14, 15],
            seq=[0, 0, 1, 1, 2, 3],
            stream=[0, 1, 0, 1, 1, 0],
        )
        replayer = TraceReplayer(batch)
        assert replayer.batch.ts.tolist() == [0.5, 1.0, 1.0, 2.0, 2.0, 3.0]
        assert replayer.batch.key.tolist() == [15, 11, 13, 10, 14, 12]
        assert replayer.batch.seq.tolist() == [3, 0, 1, 0, 2, 1]
        assert replayer.batch.stream.tolist() == [0, 1, 1, 0, 1, 0]
        assert batch.key.tolist() == [10, 11, 12, 13, 14, 15]
        assert replayer.replica().batch is replayer.batch
