"""Typed per-node metric samples and their Prometheus rendering.

Nothing is counted here.  Every number lives once, as a plain
attribute of the object that owns it (:mod:`repro.core.metrics`, the
socket transports' per-peer tallies); when ``/metrics``, ``swjoin run
--metrics`` or :attr:`~repro.core.system.RunResult.node_metrics` asks,
each owner's ``series()`` builds ``{name: sample}`` out of the three
constructors below and
:meth:`~repro.core.cluster.Cluster.node_metrics` gathers them per node.

Samples are plain dicts (JSON-serializable, picklable across the
process backend's control channels); :func:`render_prometheus` renders
a set of per-node views in the Prometheus text exposition format.
"""

from __future__ import annotations

import typing as t

__all__ = ["counter", "gauge", "histogram", "render_prometheus"]


def counter(value: float) -> dict[str, t.Any]:
    """Sample of a monotonically increasing count."""
    return {"kind": "counter", "value": value}


def gauge(value: float) -> dict[str, t.Any]:
    """Sample of a point-in-time value that can move both ways."""
    return {"kind": "gauge", "value": value}


def histogram(
    buckets: t.Sequence[float], counts: t.Sequence[int], total: float
) -> dict[str, t.Any]:
    """Sample of a bucketed distribution (Prometheus semantics).

    ``buckets`` are upper bounds; ``counts`` holds one per-bin count
    for each (non-cumulative; the renderer accumulates) plus a last
    one for the implicit ``+Inf`` tail.  ``count`` is summed from the
    counts handed in, so a scrape racing a live update still agrees
    with itself.
    """
    return {
        "kind": "histogram",
        "buckets": list(buckets),
        "counts": list(counts),
        "sum": total,
        "count": sum(counts),
    }


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def render_prometheus(
    node_snapshots: t.Mapping[int, t.Mapping[str, t.Mapping[str, t.Any]]],
    prefix: str = "swjoin",
) -> str:
    """Prometheus text exposition of per-node sample views.

    ``node_snapshots`` maps node id -> ``{name: sample}`` (what
    :meth:`~repro.core.cluster.Cluster.node_metrics` returns).  Metrics
    sharing a name across nodes become one family with a ``node``
    label; output order is deterministic (name, then node).
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
