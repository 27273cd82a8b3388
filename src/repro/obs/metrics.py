"""Typed per-node metrics registry (counters, gauges, histograms).

Each cluster node owns one :class:`MetricsRegistry`; instruments are
created once at wiring time and updated from hot paths behind the same
null-object discipline the tracer uses (rule OBS002)::

    self.m_outputs = registry.counter("outputs", "joined tuples emitted")
    ...
    if self.registry.enabled:
        self.m_outputs.inc(n)

When observability is off, :data:`NULL_REGISTRY` hands out shared no-op
instruments and every instrumentation site pays one attribute load and
branch — measured by ``benchmarks/bench_obs.py``.

Snapshots are plain nested dicts (JSON-serializable, picklable across
the process backend's control channels); :func:`render_prometheus` renders
a set of per-node snapshots in the Prometheus text exposition format
for the admin endpoint's ``/metrics``.
"""

from __future__ import annotations

import bisect
import typing as t

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "render_prometheus",
]

#: Default histogram bucket upper bounds, seconds (1 ms .. ~2 min).
#: Log-spaced like :data:`repro.core.metrics.DELAY_BIN_EDGES` but much
#: coarser: registry histograms feed dashboards, not figures.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 30.0, 120.0,
)


class Instrument:
    """Base class: a named, typed metric owned by one registry."""

    kind: t.ClassVar[str] = "instrument"

    __slots__ = ("name", "help")

    def __init__(self, name: str, help_: str = "") -> None:
        self.name = name
        self.help = help_

    def snapshot(self) -> dict[str, t.Any]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, help_: str = "") -> None:
        super().__init__(name, help_)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict[str, t.Any]:
        return {"kind": self.kind, "value": self.value}


class Gauge(Instrument):
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self, name: str, help_: str = "") -> None:
        super().__init__(name, help_)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> dict[str, t.Any]:
        return {"kind": self.kind, "value": self.value}


class Histogram(Instrument):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches
    the tail.  ``counts[i]`` is the number of observations ``<=
    buckets[i]`` in that bin (non-cumulative internally; the renderer
    accumulates).
    """

    kind = "histogram"

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help_: str = "",
        buckets: t.Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_)
        ordered = tuple(float(b) for b in buckets)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram {name!r} buckets must strictly increase")
        self.buckets = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: t.Iterable[float]) -> None:
        for value in values:
            self.observe(float(value))

    def snapshot(self) -> dict[str, t.Any]:
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: t.Iterable[float]) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """One node's set of typed instruments.

    Instrument factories are idempotent: asking twice for the same name
    returns the same object; asking with a different type raises.  A
    disabled registry (:data:`NULL_REGISTRY`) hands out shared no-op
    instruments and registers nothing.
    """

    __slots__ = ("node", "enabled", "_instruments")

    def __init__(self, node: int = -1, enabled: bool = True) -> None:
        self.node = node
        self.enabled = enabled
        self._instruments: dict[str, Instrument] = {}

    def _get(
        self,
        name: str,
        factory: t.Callable[[], Instrument],
        cls: type,
    ) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"instrument {name!r} already registered as "
                    f"{existing.kind}, not {cls.__name__.lower()}"
                )
            return existing
        instrument = factory()
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_: str = "") -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        out = self._get(name, lambda: Counter(name, help_), Counter)
        assert isinstance(out, Counter)
        return out

    def gauge(self, name: str, help_: str = "") -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        out = self._get(name, lambda: Gauge(name, help_), Gauge)
        assert isinstance(out, Gauge)
        return out

    def histogram(
        self,
        name: str,
        help_: str = "",
        buckets: t.Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        out = self._get(name, lambda: Histogram(name, help_, buckets), Histogram)
        assert isinstance(out, Histogram)
        return out

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def snapshot(self) -> dict[str, dict[str, t.Any]]:
        """All instruments as ``{name: {kind, value|counts...}}``,
        sorted by name (JSON-serializable and picklable)."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def __len__(self) -> int:
        return len(self._instruments)


#: Shared disabled registry; the default for every instrumented component.
NULL_REGISTRY = MetricsRegistry(enabled=False)


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def render_prometheus(
    node_snapshots: t.Mapping[int, t.Mapping[str, t.Mapping[str, t.Any]]],
    prefix: str = "swjoin",
) -> str:
    """Prometheus text exposition of per-node registry snapshots.

    ``node_snapshots`` maps node id -> :meth:`MetricsRegistry.snapshot`
    output.  Metrics sharing a name across nodes become one family with
    a ``node`` label; output order is deterministic (name, then node).
    """
    families: dict[str, str] = {}
    samples: dict[str, list[str]] = {}
    for node in sorted(node_snapshots):
        for name, snap in sorted(node_snapshots[node].items()):
            metric = f"{prefix}_{_sanitize(name)}"
            kind = str(snap["kind"])
            families.setdefault(metric, kind)
            rows = samples.setdefault(metric, [])
            if kind == "counter":
                rows.append(f'{metric}_total{{node="{node}"}} {snap["value"]:g}')
            elif kind == "gauge":
                rows.append(f'{metric}{{node="{node}"}} {snap["value"]:g}')
            elif kind == "histogram":
                cumulative = 0
                for edge, count in zip(snap["buckets"], snap["counts"]):
                    cumulative += int(count)
                    rows.append(
                        f'{metric}_bucket{{node="{node}",le="{edge:g}"}} '
                        f"{cumulative}"
                    )
                cumulative += int(snap["counts"][-1])
                rows.append(
                    f'{metric}_bucket{{node="{node}",le="+Inf"}} {cumulative}'
                )
                rows.append(f'{metric}_sum{{node="{node}"}} {snap["sum"]:g}')
                rows.append(f'{metric}_count{{node="{node}"}} {snap["count"]}')
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown instrument kind {kind!r}")
    lines: list[str] = []
    for metric in sorted(samples):
        lines.append(f"# TYPE {metric} {families[metric]}")
        lines.extend(samples[metric])
    return "\n".join(lines) + ("\n" if lines else "")
