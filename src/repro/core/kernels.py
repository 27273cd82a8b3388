"""Benchmark seam for the ``kernel.probe`` span; not a program interface.

``perf/spans.py`` (frozen outside ``benchmark`` PRs) finds the probe it
times as ``get_kernel(SystemConfig.kernel).probe``.  There is one probe
path, :meth:`repro.core.partition_group.WindowStore.probe`: a join
module's pass calls it at most four times.  The ``benchmark`` PR that
points the span at it deletes this module.
"""

from __future__ import annotations

from repro.core.partition_group import WindowStore

__all__ = ["get_kernel"]


def get_kernel(name: str) -> type[WindowStore]:
    """The class whose ``probe`` the ``kernel.probe`` span wraps."""
    return WindowStore
