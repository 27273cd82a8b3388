"""Benchmark seam for the ``kernel.probe`` span; not a program interface.

``perf/spans.py`` (frozen outside ``benchmark`` PRs) finds the probe it
times as ``get_kernel(SystemConfig.kernel).probe``.  There is one probe
path, :meth:`repro.core.window.StreamWindow.probe`.  The ``benchmark``
PR that points the span at it deletes this module.
"""

from __future__ import annotations

from repro.core.window import StreamWindow

__all__ = ["get_kernel"]


def get_kernel(name: str) -> type[StreamWindow]:
    """The class whose ``probe`` the ``kernel.probe`` span wraps."""
    return StreamWindow
