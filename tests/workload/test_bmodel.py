"""The b-model key generator: bounds, skew, analytic properties, and
the chunked draw's bytes and memory."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workload.bmodel import CHUNK_ROWS, BModelKeys


def gen(b=0.7, domain=10_000_001, seed=0, levels=None):
    return BModelKeys(domain, b, np.random.default_rng(seed), levels=levels)


class TestBounds:
    def test_keys_in_domain(self):
        keys = gen().draw(10_000)
        assert keys.min() >= 0
        assert keys.max() < 10_000_001

    def test_empty_draw(self):
        assert len(gen().draw(0)) == 0

    def test_dtype(self):
        assert gen().draw(10).dtype == np.int64

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            BModelKeys(0, 0.7, rng)
        with pytest.raises(ConfigError):
            BModelKeys(10, 1.5, rng)


class TestSkew:
    def test_b_half_is_roughly_uniform(self):
        keys = gen(b=0.5).draw(50_000)
        # Mean of uniform over [0, D) is D/2; allow 2% drift.
        assert abs(keys.mean() / 10_000_001 - 0.5) < 0.02

    def test_higher_b_concentrates_mass(self):
        """With hot halves at the low end, larger b pushes mass down."""
        lo = gen(b=0.9).draw(20_000)
        hi = gen(b=0.6).draw(20_000)
        assert np.median(lo) < np.median(hi)

    def test_eighty_twenty_law(self):
        """b=0.8 puts ~80% of tuples in the hot half at every scale."""
        keys = gen(b=0.8).draw(100_000)
        hot = np.count_nonzero(keys < 10_000_001 / 2)
        assert abs(hot / 100_000 - 0.8) < 0.01

    def test_empirical_collision_mass_matches_analytic(self):
        """sum p_k^2 estimated by birthday counting ~= (b^2+(1-b)^2)^L."""
        model = gen(b=0.7, levels=12, domain=4096)
        keys = model.draw(200_000)
        _, counts = np.unique(keys, return_counts=True)
        # Unbiased estimator of collision probability.
        n = len(keys)
        est = (counts * (counts - 1)).sum() / (n * (n - 1))
        assert est == pytest.approx(model.collision_mass(), rel=0.05)


class TestAnalytics:
    def test_hottest_key_probability(self):
        model = gen(b=0.7, levels=10)
        assert model.hottest_key_probability() == pytest.approx(0.7**10)

    def test_collision_mass_formula(self):
        model = gen(b=0.7, levels=10)
        assert model.collision_mass() == pytest.approx((0.49 + 0.09) ** 10)

    def test_expected_matches_per_probe(self):
        model = gen(b=0.7, levels=10)
        assert model.expected_matches_per_probe(1000) == pytest.approx(
            1000 * model.collision_mass()
        )

    def test_uniform_levels_default_covers_domain(self):
        model = gen(domain=1 << 20)
        assert model.levels == 20


def unchunked(model, n, seed):
    """The draw as one ``(n, levels)`` block, frozen as it was written
    before the draw was chunked."""
    rng = np.random.default_rng(seed)
    bits = rng.random((n, model.levels)) >= model.b
    weights = np.ldexp(1.0, -np.arange(1, model.levels + 1))
    keys = np.floor((bits @ weights) * model.domain).astype(np.int64)
    return np.clip(keys, 0, model.domain - 1)


class TestChunkedDraw:
    SIZES = (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 7)

    @pytest.mark.parametrize(
        "b, domain, levels",
        [
            (0.7, 10_000_001, None),
            (0.8, 1 << 20, None),
            (0.5, 7, None),
            (0.9, 4096, 1),
            (0.7, 10_000_001, 53),
            (0.6, (1 << 53) + 1, 53),
            (0.0, 1000, 12),
            (1.0, 1000, 12),
        ],
    )
    def test_keys_equal_the_unchunked_formula(self, b, domain, levels):
        for seed, n in enumerate(self.SIZES):
            model = gen(b=b, domain=domain, seed=seed, levels=levels)
            got = model.draw(n)
            assert got.dtype == np.int64
            assert np.array_equal(got, unchunked(model, n, seed)), n

    @pytest.mark.parametrize(
        "a, b",
        [(1, CHUNK_ROWS), (CHUNK_ROWS - 1, 2), (CHUNK_ROWS, CHUNK_ROWS + 3), (0, 5)],
    )
    def test_consecutive_draws_equal_one_draw(self, a, b):
        split = gen(seed=3)
        whole = gen(seed=3)
        joined = np.concatenate([split.draw(a), split.draw(b)])
        assert np.array_equal(joined, whole.draw(a + b))
        # ... and leave the generator where one draw would.
        assert np.array_equal(split.draw(10), whole.draw(10))

    def test_scratch_is_a_few_chunks_not_the_horizon(self):
        model = gen()
        n = 300_000
        chunk_bytes = CHUNK_ROWS * model.levels * 8
        tracemalloc.start()
        try:
            keys = model.draw(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(keys) == n
        # One (n, levels) block would need ~115 MiB here.
        assert peak < keys.nbytes + 2 * chunk_bytes
