"""Baselines: exactness and the qualitative claims of Section VII.

ATR and CTR are ``SystemConfig.routing`` values of the one system; the
centralized reference point is the system with one slave."""

import numpy as np
import pytest

from repro import JoinSystem, SystemConfig
from repro.baselines import (
    no_fine_tuning,
    non_adaptive,
    static_partitioning,
)
from repro.config import ObservabilityConfig
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.reference import naive_window_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer


@pytest.fixture
def cfg(tiny_cfg):
    return tiny_cfg.with_(num_slaves=3, rate=500.0)


def run(cfg, routing="hash", **kw):
    return JoinSystem(cfg.with_(routing=routing), **kw).run()


def utilization(result):
    [cpu] = result.cpu_times
    return cpu / result.duration


def closed_trace(cfg, seed=11):
    wl = TwoStreamWorkload.poisson_bmodel(
        RngRegistry(seed), cfg.rate, cfg.b_skew, cfg.key_domain
    )
    return wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)


class TestVariantHelpers:
    def test_no_fine_tuning(self, cfg):
        assert no_fine_tuning(cfg).fine_tuning is False

    def test_static_partitioning(self, cfg):
        assert static_partitioning(cfg).load_balancing is False

    def test_non_adaptive(self, cfg):
        assert non_adaptive(cfg).adaptive_declustering is False


class TestAtr:
    def test_oracle_exact(self, cfg):
        trace = closed_trace(cfg)
        result = run(
            cfg, "atr", workload=TraceReplayer(trace), collect_pairs=True
        )
        got = result.pairs
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        expected = naive_window_join(trace, cfg.window_seconds)
        assert np.array_equal(got, expected)

    def test_oracle_exact_single_node(self, cfg):
        trace = closed_trace(cfg, seed=12)
        result = run(
            cfg.with_(num_slaves=1),
            "atr",
            workload=TraceReplayer(trace),
            collect_pairs=True,
        )
        got = result.pairs
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        assert np.array_equal(
            got, naive_window_join(trace, cfg.window_seconds)
        )

    def test_concentrates_whole_window_on_one_node(self, cfg):
        """The paper's criticism: the segment node holds ~the complete
        two-stream window, so ATR's per-node window is ~N times ours."""
        atr = run(cfg, "atr")
        ours = run(cfg)
        assert atr.max_window_bytes > 1.5 * ours.max_window_bytes

    def test_segment_shorter_than_window_rejected(self, cfg):
        """ATR's segment is fixed at twice the window, so what a routing
        config rejects is what the light slaves cannot honour."""
        for unsupported in (
            {"faults": FaultPlan.parse(["crash:0@5s"])},
            {"standby": True},
            {"replication": "log"},
            {"n_streams": 3},
            {"obs": ObservabilityConfig(sample_period=1.0)},
        ):
            with pytest.raises(ConfigError, match="routing='atr'"):
                cfg.with_(routing="atr", **unsupported)


class TestCtr:
    def test_oracle_exact(self, cfg):
        trace = closed_trace(cfg, seed=13)
        result = run(
            cfg, "ctr", workload=TraceReplayer(trace), collect_pairs=True
        )
        got = result.pairs
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        assert np.array_equal(
            got, naive_window_join(trace, cfg.window_seconds)
        )

    def test_network_overhead_scales_with_nodes(self, cfg):
        """Every tuple is forwarded to every node: CTR moves ~N times
        the payload bytes our hash-partitioned distribution moves."""
        ctr = run(cfg, "ctr")
        ours = run(cfg)
        ctr_bytes = sum(s["bytes_received"] for s in ctr.slaves)
        ours_bytes = sum(s["bytes_received"] for s in ours.slaves)
        assert ctr_bytes > 2.0 * ours_bytes

    def test_per_node_fixed_cpu_does_not_divide(self, cfg):
        """CTR charges the fixed per-tuple work on all N nodes."""
        ctr = run(cfg, "ctr")
        total_input = ctr.tuples_generated
        per_node = [s["tuples_processed"] for s in ctr.slaves]
        for n in per_node:
            assert n >= 0.8 * total_input  # everyone sees ~everything


class TestCentralized:
    """One machine: the system with a single slave."""

    @pytest.fixture
    def central(self, cfg):
        return cfg.with_(num_slaves=1)

    def test_produces_outputs(self, central):
        result = run(central)
        assert result.outputs > 0
        assert 0.0 < utilization(result)

    def test_saturates_beyond_single_node_capacity(self, central):
        light = run(central.with_(rate=300.0))
        heavy = run(central.with_(rate=4000.0))
        assert utilization(light) < 1.0
        assert utilization(heavy) == pytest.approx(1.0, abs=0.05)
        assert heavy.avg_delay > 3 * light.avg_delay

    def test_cluster_beats_centralized_under_load(self, cfg, central):
        rate = 2500.0
        centralized = run(central.with_(rate=rate))
        cluster = run(cfg.with_(rate=rate, num_slaves=3))
        assert cluster.avg_delay < centralized.avg_delay
