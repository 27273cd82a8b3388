"""The baseline block-NLJ kernel: key-sorted run + binary search.

This is the seed system's probe path behind the kernel interface: the
committed window keeps its tuples in a stable key-sorted *run*
(:meth:`~repro.core.window.StreamWindow.sorted_view`) and every probe
binary-searches it.  The run is maintained incrementally, pull-style:
at the next probe the head blocks committed since the last one are
sorted on their own and merged in, and the tuples expired since are
masked out by logical id -- O(window) copying per changed probe, never
a re-sort of the live window.  A full sort happens only where a window
is rebuilt wholesale (first use, a state install, a split/merge child,
:meth:`warm`).  The *computed result* is exact; the *charged* simulated
CPU follows the paper's block nested-loop scan model — every probing
tuple pays for every committed block scanned
(:meth:`~repro.core.costmodel.CostModel.probe_cost`).
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.core.kernels import JoinKernel
from repro.core.probe import ProbeResult, probe_sorted

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.costmodel import CostModel


class BlockNLJKernel(JoinKernel):
    """Sorted-key probe over the committed window (the seed baseline)."""

    name: t.ClassVar[str] = "blocknlj"

    def probe(
        self,
        probe_ts: np.ndarray,
        probe_key: np.ndarray,
        probe_seq: np.ndarray,
        window_seconds: float,
        collect_pairs: bool = False,
    ) -> ProbeResult:
        sorted_key, sorted_ts, sorted_seq = self.window.sorted_view(
            need_seq=collect_pairs
        )
        return probe_sorted(
            probe_ts,
            probe_key,
            probe_seq,
            sorted_key,
            sorted_ts,
            sorted_seq,
            window_seconds,
            collect_pairs=collect_pairs,
        )

    def probe_scan_bytes(self, probe_key: np.ndarray, tuple_bytes: int) -> int:
        # Block-NLJ scans the committed blocks wholesale, whatever the
        # probe keys are; block granularity matches the paper's model.
        return int(self.window.committed_bytes)

    @staticmethod
    def probe_cost(
        model: "CostModel",
        n_probe_tuples: int,
        scanned_bytes: int,
        spilled_bytes: int,
    ) -> float:
        return model.probe_cost(n_probe_tuples, scanned_bytes, spilled_bytes)

    def warm(self) -> None:
        # Builds the run now (a full sort of an installed window), so
        # the first probe after a restore only merges, as on a live node.
        self.window.sorted_view()
