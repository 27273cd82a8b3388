"""Poisson arrival processes.

Tuples within a stream arrive with Poisson arrival rate ``lambda``
(paper Section VI-A).  For a homogeneous Poisson process, the arrivals
inside an interval ``[t0, t1)`` are exactly: a Poisson-distributed count
with mean ``lambda * (t1 - t0)``, at i.i.d. uniform times — which is
what :meth:`PoissonArrivals.times_in` generates (vectorized, per the
HPC guides).  Time-varying rates are supported through a
piecewise-constant :class:`RateProfile` via interval splitting.
"""

from __future__ import annotations

import bisect
import typing as t

import numpy as np

from repro.errors import ConfigError


class RateProfile:
    """Piecewise-constant arrival rate ``r(t)``.

    ``RateProfile.constant(1500)`` is the paper's default.  Breakpoints
    allow experiments with load surges (used to exercise the
    supplier/consumer rebalancing and adaptive declustering).
    """

    def __init__(self, breakpoints: t.Sequence[float], rates: t.Sequence[float]):
        if len(rates) != len(breakpoints) + 1:
            raise ConfigError("need len(rates) == len(breakpoints) + 1")
        if any(r < 0 for r in rates):
            raise ConfigError("rates must be non-negative")
        if list(breakpoints) != sorted(set(breakpoints)):
            raise ConfigError("breakpoints must be strictly increasing")
        self.breakpoints = [float(b) for b in breakpoints]
        self.rates = [float(r) for r in rates]

    @classmethod
    def constant(cls, rate: float) -> "RateProfile":
        return cls([], [rate])

    @classmethod
    def step(cls, t_change: float, before: float, after: float) -> "RateProfile":
        """A single load step at time *t_change*."""
        return cls([t_change], [before, after])

    def rate_at(self, time: float) -> float:
        return self.rates[bisect.bisect_right(self.breakpoints, time)]

    def segments_in(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        """Constant-rate segments ``(start, stop, rate)`` covering [t0, t1)."""
        if t1 <= t0:
            return []
        edges = [t0] + [b for b in self.breakpoints if t0 < b < t1] + [t1]
        return [
            (lo, hi, self.rate_at(lo)) for lo, hi in zip(edges[:-1], edges[1:])
        ]


class PoissonArrivals:
    """Generates arrival timestamps for one stream."""

    def __init__(self, profile: RateProfile, rng: np.random.Generator) -> None:
        self.profile = profile
        self.rng = rng

    def times_in(self, t0: float, t1: float) -> np.ndarray:
        """Sorted arrival times in ``[t0, t1)`` (float64 array)."""
        parts: list[np.ndarray] = []
        for lo, hi, rate in self.profile.segments_in(t0, t1):
            mean = rate * (hi - lo)
            if mean <= 0:
                continue
            n = int(self.rng.poisson(mean))
            if n:
                parts.append(self.rng.uniform(lo, hi, size=n))
        if not parts:
            return np.empty(0, dtype=np.float64)
        times = np.concatenate(parts) if len(parts) > 1 else parts[0]
        times.sort()
        return times
