"""b-model join-attribute generator.

The b-model of Wang, Ailamaki & Faloutsos captures self-similar
("80/20-law") value distributions with a single bias parameter ``b``:
at every dyadic scale, one half of the value range receives a fraction
``b`` of the probability mass and the other half ``1 - b``.  With
``b = 0.5`` the distribution is uniform; the paper's default ``b = 0.7``
concentrates roughly 70% of tuples in half the key space at every scale
(``b = 0.8`` is the classic 80/20 law).

Generation is vectorized: a key is built from ``levels`` independent
biased bits, each selecting the hot or cold half at one scale.  The
probability of the single hottest key is ``b ** levels`` and the
collision ("self-join") mass is ``(b^2 + (1-b)^2) ** levels``, both of
which are exposed for tests.

Memory: a draw's only ``n``-sized array is its output.  The bits are
drawn, thresholded and summed :data:`CHUNK_ROWS` rows at a time, and the
keys are the bytes one ``(n, levels)`` draw would give: ``Generator.random``
fills row-major, so consecutive ``(k, levels)`` draws consume the stream
exactly as one ``(n, levels)`` draw does, and a row's
``sum(bit_i * 2**-(i+1))`` is exact in float64 for ``levels <= 53``, so
neither the chunking nor the order of the additions can change it.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError

#: Rows of biased bits drawn at once.  A draw's scratch is one reused
#: block of this many rows of ``levels`` float64s -- 1.5 MiB at the
#: default 24 levels, 3.3 MiB at 53 -- whatever ``n`` is.
CHUNK_ROWS: t.Final = 1 << 13


class BModelKeys:
    """Draws join-attribute values in ``[0, domain)`` from a b-model."""

    def __init__(
        self,
        domain: int,
        b: float,
        rng: np.random.Generator,
        levels: int | None = None,
    ) -> None:
        if domain < 1:
            raise ConfigError(f"domain must be >= 1: {domain}")
        if not 0.0 <= b <= 1.0:
            raise ConfigError(f"b must lie in [0, 1]: {b}")
        self.domain = int(domain)
        self.b = float(b)
        self.rng = rng
        #: Cascade depth; default resolves individual keys of the domain.
        self.levels = (
            int(levels)
            if levels is not None
            else max(1, int(np.ceil(np.log2(self.domain))))
        )

    def draw(self, n: int) -> npt.NDArray[np.int64]:
        """Return ``n`` keys (int64) in ``[0, domain)``."""
        keys = np.empty(max(n, 0), dtype=np.int64)
        weights = np.ldexp(1.0, -np.arange(1, self.levels + 1))
        block = np.empty((min(len(keys), CHUNK_ROWS), self.levels))
        for start in range(0, len(keys), CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, len(keys))
            # One biased bit per level, 0.0 selecting the hot half
            # (probability b) and 1.0 the cold half, written over the
            # uniforms.  The fractional position in [0, 1) is the binary
            # expansion of the bits.
            bits = self.rng.random(out=block[: stop - start])
            np.greater_equal(bits, self.b, out=bits)
            keys[start:stop] = np.floor((bits @ weights) * self.domain)
        # floor can hit `domain` only if the product rounds up to it.
        np.clip(keys, 0, self.domain - 1, out=keys)
        return keys

    # -- analytic properties (used by statistical tests) ---------------------
    def hottest_key_probability(self) -> float:
        """Probability mass of the most frequent key."""
        return max(self.b, 1.0 - self.b) ** self.levels

    def collision_mass(self) -> float:
        """``sum_k p_k^2`` — probability two draws collide."""
        return (self.b**2 + (1.0 - self.b) ** 2) ** self.levels

    def expected_matches_per_probe(self, window_tuples: int) -> float:
        """Expected equi-join partners of one tuple in a window."""
        return window_tuples * self.collision_mass()
