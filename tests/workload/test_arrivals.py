"""Poisson arrivals and rate profiles."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workload.arrivals import PoissonArrivals, RateProfile


class TestRateProfile:
    def test_constant(self):
        p = RateProfile.constant(100.0)
        assert p.rate_at(0.0) == 100.0
        assert p.rate_at(1e9) == 100.0

    def test_step(self):
        p = RateProfile.step(10.0, before=100.0, after=500.0)
        assert p.rate_at(9.99) == 100.0
        assert p.rate_at(10.0) == 500.0

    def test_segments_split_at_breakpoints(self):
        p = RateProfile.step(10.0, 100.0, 500.0)
        assert p.segments_in(5.0, 15.0) == [
            (5.0, 10.0, 100.0),
            (10.0, 15.0, 500.0),
        ]

    def test_segments_empty_interval(self):
        assert RateProfile.constant(1.0).segments_in(5.0, 5.0) == []

    def test_validation(self):
        with pytest.raises(ConfigError):
            RateProfile([1.0], [100.0])  # too few rates
        with pytest.raises(ConfigError):
            RateProfile([2.0, 1.0], [1.0, 2.0, 3.0])  # unsorted
        with pytest.raises(ConfigError):
            RateProfile([], [-1.0])  # negative rate


class TestPoissonArrivals:
    def _arrivals(self, rate=1000.0, seed=0):
        rng = np.random.default_rng(seed)
        return PoissonArrivals(RateProfile.constant(rate), rng)

    def test_times_sorted_and_in_range(self):
        times = self._arrivals().times_in(3.0, 7.0)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 3.0
        assert times.max() < 7.0

    def test_count_matches_rate(self):
        """Over a long interval the count is within 5 sigma of r*T."""
        rate, span = 1000.0, 50.0
        n = len(self._arrivals(rate).times_in(0.0, span))
        mean = rate * span
        assert abs(n - mean) < 5 * np.sqrt(mean)

    def test_zero_rate_produces_nothing(self):
        times = self._arrivals(rate=0.0).times_in(0.0, 100.0)
        assert len(times) == 0

    def test_deterministic_for_seed(self):
        a = self._arrivals(seed=42).times_in(0.0, 5.0)
        b = self._arrivals(seed=42).times_in(0.0, 5.0)
        assert np.array_equal(a, b)

    def test_step_profile_changes_density(self):
        rng = np.random.default_rng(0)
        profile = RateProfile.step(50.0, 100.0, 2000.0)
        times = PoissonArrivals(profile, rng).times_in(0.0, 100.0)
        before = np.count_nonzero(times < 50.0)
        after = np.count_nonzero(times >= 50.0)
        assert after > 10 * before

    def test_interval_additivity(self):
        """Counts over adjacent intervals are independent draws, but the
        process is still statistically consistent: E[N(0,10)] ~ 10r."""
        arr = self._arrivals(rate=500.0)
        total = sum(
            len(arr.times_in(t, t + 1.0)) for t in range(10)
        )
        assert abs(total - 5000) < 5 * np.sqrt(5000)
