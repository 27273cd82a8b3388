"""Decimating reservoir and the keyed time-series sampler."""

import pytest

from repro.obs.sampler import Reservoir, TimeSeriesSampler


class TestReservoir:
    def test_keeps_everything_under_capacity(self):
        res = Reservoir(16)
        for i in range(10):
            res.add(float(i), float(i) * 2)
        assert res.items() == [(float(i), float(i) * 2) for i in range(10)]
        assert res.stride == 1
        assert res.total == 10

    def test_never_exceeds_capacity(self):
        res = Reservoir(8)
        for i in range(10_000):
            res.add(float(i), 0.0)
        assert len(res) <= 8
        assert res.total == 10_000

    def test_decimation_doubles_stride(self):
        res = Reservoir(4)
        for i in range(5):
            res.add(float(i), 0.0)
        # Overflowed once: half the samples dropped, stride doubled.
        assert res.stride == 2
        assert [t for t, _ in res.items()] == [0.0, 2.0, 4.0]

    def test_coverage_stays_uniform(self):
        # After heavy decimation the retained samples still span the
        # whole run rather than only its tail (ring-buffer behavior).
        res = Reservoir(32)
        n = 32 * 64
        for i in range(n):
            res.add(float(i), 0.0)
        times = [t for t, _ in res.items()]
        assert times[0] == 0.0
        assert times[-1] >= n * 0.75
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) == min(gaps)  # uniform spacing

    def test_retained_samples_follow_stride(self):
        res = Reservoir(4)
        for i in range(100):
            res.add(float(i), 0.0)
        stride = res.stride
        assert all(int(t) % stride == 0 for t, _ in res.items())

    def test_capacity_below_two_rejected(self):
        with pytest.raises(ValueError):
            Reservoir(1)

    def test_values_view(self):
        res = Reservoir(8)
        res.add(0.0, 1.5)
        res.add(1.0, 2.5)
        assert res.values() == [1.5, 2.5]


class TestTimeSeriesSampler:
    def test_keyed_per_node_and_gauge(self):
        sampler = TimeSeriesSampler(period=2.0, capacity=8)
        sampler.observe(1.0, 2, "occupancy", 0.5)
        sampler.observe(1.0, 3, "occupancy", 0.7)
        sampler.observe(1.0, 2, "window_bytes", 1024.0)
        assert len(sampler) == 3
        assert sampler.get(2, "occupancy") == [(1.0, 0.5)]
        assert sampler.get(9, "occupancy") == []

    def test_series_dict_keys(self):
        sampler = TimeSeriesSampler(period=1.0)
        sampler.observe(0.5, 2, "occupancy", 0.1)
        sampler.observe(0.5, 0, "buffer_bytes", 10.0)
        assert sorted(sampler.series_dict()) == [
            "n0.buffer_bytes",
            "n2.occupancy",
        ]

    def test_bounded_per_key(self):
        sampler = TimeSeriesSampler(period=1.0, capacity=4)
        for i in range(1000):
            sampler.observe(float(i), 2, "occupancy", 0.0)
        assert len(sampler.get(2, "occupancy")) <= 4

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(period=0.0)
