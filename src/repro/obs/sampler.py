"""Bounded time-series storage: decimating reservoirs + the sampler.

:class:`Reservoir` is a bounded ring for ``(time, value)`` samples: it
keeps every *stride*-th offered sample and, when full, drops every
other retained sample and doubles the stride.  Memory is therefore
O(capacity) regardless of run length while temporal coverage stays
uniform over the whole run — unlike a plain ring buffer, which forgets
everything before the last ``capacity`` samples.

:class:`TimeSeriesSampler` is a keyed collection of reservoirs, one per
``(node, gauge)`` pair, filled by the cluster's periodic sampling
process and threaded into :class:`~repro.core.system.RunResult` so
analysis code can plot per-node adaptive dynamics.
"""

from __future__ import annotations

import typing as t

__all__ = ["Reservoir", "TimeSeriesSampler"]

#: Samples each ``(node, gauge)`` reservoir retains.
RESERVOIR_CAPACITY = 512


class Reservoir:
    """Bounded decimating reservoir of ``(time, value)`` samples."""

    __slots__ = ("capacity", "total", "_stride", "_data")

    def __init__(self, capacity: int = RESERVOIR_CAPACITY) -> None:
        if capacity < 2:
            raise ValueError(f"reservoir capacity must be >= 2: {capacity!r}")
        self.capacity = capacity
        #: Samples offered over the reservoir's lifetime (kept or not).
        self.total = 0
        self._stride = 1
        self._data: list[tuple[float, float]] = []

    def add(self, when: float, value: float) -> None:
        index = self.total
        self.total += 1
        if index % self._stride:
            return
        if len(self._data) >= self.capacity:
            # Decimate: retained indices stay ≡ 0 (mod the new stride).
            self._data = self._data[::2]
            self._stride *= 2
            if index % self._stride:
                return
        self._data.append((float(when), float(value)))

    def items(self) -> list[tuple[float, float]]:
        """Retained ``(time, value)`` samples, oldest first."""
        return list(self._data)

    def values(self) -> list[float]:
        return [v for _, v in self._data]

    @property
    def stride(self) -> int:
        """Current decimation stride (1 until the first overflow)."""
        return self._stride

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Reservoir {len(self._data)}/{self.capacity} "
            f"stride={self._stride} total={self.total}>"
        )


class TimeSeriesSampler:
    """Per-``(node, gauge)`` reservoirs filled at a fixed cadence."""

    def __init__(
        self, period: float, capacity: int = RESERVOIR_CAPACITY
    ) -> None:
        if period <= 0:
            raise ValueError(f"sample period must be positive: {period!r}")
        self.period = float(period)
        self.capacity = int(capacity)
        self.series: dict[tuple[int, str], Reservoir] = {}

    def observe(self, now: float, node: int, gauge: str, value: float) -> None:
        key = (node, gauge)
        reservoir = self.series.get(key)
        if reservoir is None:
            reservoir = self.series[key] = Reservoir(self.capacity)
        reservoir.add(now, value)

    def get(self, node: int, gauge: str) -> list[tuple[float, float]]:
        reservoir = self.series.get((node, gauge))
        return reservoir.items() if reservoir else []

    def series_dict(self) -> dict[str, list[tuple[float, float]]]:
        """Flattened ``{"n<node>.<gauge>": [(t, v), ...]}`` view."""
        return {
            f"n{node}.{gauge}": reservoir.items()
            for (node, gauge), reservoir in sorted(self.series.items())
        }

    def __len__(self) -> int:
        return len(self.series)
