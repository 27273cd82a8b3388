"""The headline correctness property: the full parallel pipeline
produces exactly the naive sliding-window join's output pairs —
including under hash partitioning, head-block batching, fine-tuning
splits/merges, supplier->consumer state moves and adaptive degree of
declustering."""

import numpy as np
import pytest

from repro import JoinSystem, SystemConfig
from repro.analysis.experiments import base_config
from repro.core.hashing import partition_of
from repro.core.system import slave_node_id
from repro.faults.plan import FaultPlan
from repro.reference import naive_window_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer


def closed_trace(cfg, seed):
    """A workload trace ending a few epochs before the run does, so
    every tuple is distributed and joined before shutdown."""
    rng = RngRegistry(seed)
    wl = TwoStreamWorkload.poisson_bmodel(
        rng, cfg.rate, cfg.b_skew, cfg.key_domain
    )
    return wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)


def run_and_compare(cfg, seed=1):
    trace = closed_trace(cfg, seed)
    result = JoinSystem(
        cfg, collect_pairs=True, workload=TraceReplayer(trace)
    ).run()
    got = result.pairs
    got = got[np.lexsort((got[:, 1], got[:, 0]))]
    expected = naive_window_join(trace, cfg.window_seconds)
    return got, expected, result


@pytest.fixture
def base_cfg(tiny_cfg):
    return tiny_cfg


class TestOracleEquivalence:
    def test_two_slaves(self, base_cfg):
        got, expected, _ = run_and_compare(base_cfg)
        assert np.array_equal(got, expected)
        assert len(expected) > 0  # non-vacuous

    def test_four_slaves_with_moves(self, base_cfg):
        cfg = base_cfg.with_(num_slaves=4, rate=800.0)
        got, expected, result = run_and_compare(cfg, seed=2)
        assert np.array_equal(got, expected)

    def test_adaptive_declustering(self, base_cfg):
        cfg = base_cfg.with_(
            num_slaves=4,
            rate=600.0,
            adaptive_declustering=True,
            run_seconds=24.0,
            warmup_seconds=6.0,
        )
        got, expected, result = run_and_compare(cfg, seed=3)
        assert np.array_equal(got, expected)

    def test_growth_from_single_slave(self, base_cfg):
        cfg = base_cfg.with_(
            num_slaves=3,
            rate=3000.0,
            adaptive_declustering=True,
            initial_active_slaves=1,
            run_seconds=24.0,
            warmup_seconds=6.0,
        )
        got, expected, result = run_and_compare(cfg, seed=4)
        assert result.final_active_slaves > 1  # growth actually happened
        assert np.array_equal(got, expected)

    def test_no_fine_tuning(self, base_cfg):
        got, expected, _ = run_and_compare(
            base_cfg.with_(fine_tuning=False), seed=5
        )
        assert np.array_equal(got, expected)

    def test_subgroups(self, base_cfg):
        cfg = base_cfg.with_(num_slaves=4, num_subgroups=2, rate=700.0)
        got, expected, _ = run_and_compare(cfg, seed=6)
        assert np.array_equal(got, expected)

    def test_skewed_keys(self, base_cfg):
        cfg = base_cfg.with_(b_skew=0.9, key_domain=5000, rate=500.0)
        got, expected, _ = run_and_compare(cfg, seed=7)
        assert len(expected) > 1000  # heavy skew means many matches
        assert np.array_equal(got, expected)

    def test_overloaded_system_still_exact(self, base_cfg):
        """Backlog changes timing, never results: even saturated, every
        shipped tuple is eventually joined exactly once."""
        cfg = base_cfg.with_(num_slaves=1, rate=2500.0)
        got, expected, result = run_and_compare(cfg, seed=8)
        assert np.array_equal(got, expected)

    def test_short_epochs(self, base_cfg):
        cfg = base_cfg.with_(dist_epoch=0.5, reorg_epoch=2.0, rate=600.0)
        got, expected, _ = run_and_compare(cfg, seed=9)
        assert np.array_equal(got, expected)

    def test_paper_geometry_is_oracle_exact(self):
        """Table I's geometry: 60 partitions over 4 slaves (15
        partition-groups per slave share one store), the paper's cost
        model and fine tuning, on a 10 % horizon."""
        cfg = base_config(0.1).with_(rate=3000.0, num_slaves=4)
        assert cfg.npart == 60 and cfg.fine_tuning
        got, expected, result = run_and_compare(cfg)
        assert sum(s["splits"] for s in result.slaves) > 0
        assert len(expected) > 100_000
        assert np.array_equal(got, expected)


def pair_partitions(trace, pairs, npart):
    """Partition id of each output pair (via its stream-0 tuple's key)."""
    s0 = trace.stream == 0
    key_by_seq = np.zeros(int(trace.seq[s0].max()) + 1, dtype=trace.key.dtype)
    key_by_seq[trace.seq[s0]] = trace.key[s0]
    return partition_of(key_by_seq[pairs[:, 0]], npart)


class TestDegradedOracle:
    """Failure semantics: a crash loses only the dead slave's window
    state.  Output restricted to partitions that never lived on the
    victim must still match the naive oracle exactly, and nothing the
    degraded run produces may be spurious."""

    def test_surviving_partitions_stay_exact_under_crash(self, base_cfg):
        cfg = base_cfg.with_(
            num_slaves=3,
            run_seconds=18.0,
            # Keep partition placement static so "never lived on the
            # victim" is exactly the complement of the lost pids.
            load_balancing=False,
            faults=FaultPlan.parse(["crash:1@7s"]),
        )
        trace = closed_trace(cfg, seed=11)
        result = JoinSystem(
            cfg, collect_pairs=True, workload=TraceReplayer(trace)
        ).run()
        assert result.degraded
        assert result.faults[0]["slave"] == slave_node_id(1)
        lost_pids = sorted(result.faults[0]["pids"])
        assert lost_pids  # the victim owned state when it died

        got = result.pairs
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        expected = naive_window_join(trace, cfg.window_seconds)

        # No spurious output: every produced pair is a true join result.
        got_set = set(map(tuple, got.tolist()))
        expected_set = set(map(tuple, expected.tolist()))
        assert got_set <= expected_set
        # The lost window state cost actual output (non-vacuous).
        assert len(got) < len(expected)

        # Surviving partitions are exact.
        exp_surviving = expected[
            ~np.isin(pair_partitions(trace, expected, cfg.npart), lost_pids)
        ]
        got_surviving = got[
            ~np.isin(pair_partitions(trace, got, cfg.npart), lost_pids)
        ]
        assert len(exp_surviving) > 0
        assert np.array_equal(got_surviving, exp_surviving)
