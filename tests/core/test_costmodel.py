"""Cost model formulas and calibration anchors."""

import pytest

from repro.config import CostModelConfig, SystemConfig
from repro.core.costmodel import CostModel


@pytest.fixture
def model():
    return CostModel(SystemConfig.paper_defaults().cost)


def slave_capacity_estimate(
    model: CostModel, rate_per_stream: float, n_active: int, mean_scan_bytes: float
) -> float:
    """Analytic utilization of a slave: the calibration reference the
    anchors below are stated in."""
    per_tuple = model.cfg.tuple_cost + model.cfg.scan_byte_cost * mean_scan_bytes
    return (2.0 * rate_per_stream / n_active) * per_tuple


class TestFormulas:
    def test_probe_cost_scales_with_cross_product(self, model):
        one = model.probe_cost(1, 1_000_000)
        many = model.probe_cost(64, 1_000_000)
        assert many == pytest.approx(64 * one)

    def test_probe_cost_scales_with_scanned_bytes(self, model):
        small = model.probe_cost(10, 100_000)
        large = model.probe_cost(10, 1_000_000)
        assert large > small

    def test_zero_probe_is_free(self, model):
        assert model.probe_cost(0, 10**9) == 0.0

    def test_expire_and_tuning_costs(self, model):
        assert model.expire_cost(0) == 0.0
        assert model.expire_cost(1000) > 0.0
        assert model.tuning_cost(1000) > 0.0
        assert model.state_move_cost(1000) > 0.0


class TestCalibrationAnchors:
    """The documented anchors of repro/core/costmodel.py."""

    def test_no_tuning_crosses_saturation_at_3600(self, model):
        # N=4, no fine tuning: a probe scans the opposite stream's
        # whole partition; utilization hits 1.0 near 3600 t/s ...
        partition_bytes = 3600 * 600 * 64 / 60
        util = slave_capacity_estimate(model, 3600.0, 4, partition_bytes)
        assert util == pytest.approx(1.0, rel=0.05)

    def test_no_tuning_visibly_overloaded_at_4000(self, model):
        # ... so that at 4000 t/s (Figure 8's blow-up point) the system
        # is clearly past capacity.
        partition_bytes = 4000 * 600 * 64 / 60
        util = slave_capacity_estimate(model, 4000.0, 4, partition_bytes)
        assert util > 1.1

    def test_tuning_saturates_near_6000(self, model):
        # With tuning the mean scan is ~1.125 MB (half of the mean
        # mini-group size of 1.5*theta).
        util = slave_capacity_estimate(model, 6000.0, 4, 1.125e6)
        assert util == pytest.approx(1.0, rel=0.1)

    def test_single_slave_saturates_below_2500(self, model):
        partition_bytes = 2500 * 600 * 64 / 60 / 2  # tuned scan ~ theta-ish
        util = slave_capacity_estimate(model, 2500.0, 1, min(partition_bytes, 1.125e6))
        assert util > 1.0

    def test_scaled_config_preserves_utilization(self):
        """scaled() keeps the utilization at any rate invariant."""
        base = SystemConfig.paper_defaults()
        scaled = base.scaled(0.05)
        for rate in (2000.0, 4000.0, 6000.0):
            part = lambda cfg: cfg.rate_partition_bytes if False else (
                rate * cfg.window_seconds * cfg.tuple_bytes / cfg.npart
            )
            u_full = slave_capacity_estimate(
                CostModel(base.cost), rate, 4, part(base)
            )
            u_scaled = slave_capacity_estimate(
                CostModel(scaled.cost), rate, 4, part(scaled)
            )
            assert u_scaled == pytest.approx(u_full, rel=1e-9)


class TestValidation:
    def test_negative_cost_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            CostModel(CostModelConfig(scan_byte_cost=-1.0))
