"""Calibrated CPU cost model for the simulated slaves.

The join module computes *exact* join outputs, but the simulated time a
slave spends on a probe is charged by this model, which represents the
paper's testbed (two Pentium III 930 MHz CPUs per node, Java/mpiJava
stack).

Model
-----
A probe of ``n`` fresh tuples that block-nested-loop scans ``s`` bytes
of the opposite (mini-)partition costs::

    cost = tuple_cost * n + scan_byte_cost * s          [CPU seconds]

Calibration
-----------
Utilization of one slave at per-stream rate ``r`` with ``N`` active
slaves is ``(2 r / N) * (tuple_cost + scan_byte_cost * s̄)`` where
``s̄`` is the mean scanned size.  Anchors from the paper (N = 4,
Figures 7–10):

* **without** fine tuning the system crosses 100% utilization slightly
  below 4000 t/s (~3600), so that at 4000 the delay has visibly blown
  up as in Figure 8 (the paper reports ~48 s there) and the idle time
  of Figure 9 hits zero at 4000.  At 3600 t/s a partition holds
  ``3600 * 600 * 64 / 60 ≈ 2.30 MB`` per stream, giving
  ``1800 * (tuple_cost + scan_byte_cost * 2.30e6) = 1``;
* **with** fine tuning it saturates near r = 6000 t/s with the scanned
  mini-group bounded by ``[theta, 2 theta]`` (mean opposite-stream scan
  ≈ 1.125 MB), giving ``3000 * (tuple_cost + scan_byte_cost * 1.125e6) = 1``.

Solving the two equations yields ``tuple_cost ≈ 1.21e-4`` s and
``scan_byte_cost ≈ 1.885e-10`` s/B — the defaults in
:class:`~repro.config.CostModelConfig`.  These also land the tuned
single-slave saturation near 1500 t/s, the 2-slave point near 3000 and
the 5-slave point near 7500, matching Figures 5 and 6.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.config import CostModelConfig

_IntArray = npt.NDArray[np.int64]
_FloatArray = npt.NDArray[np.float64]


class CostModel:
    """Maps join-module work to simulated CPU seconds.

    ``speed`` models a non-dedicated node: the fraction of the CPU
    available to the join (background applications consume the rest).
    All costs scale by ``1/speed``.
    """

    __slots__ = ("cfg", "speed")

    def __init__(self, cfg: CostModelConfig, speed: float = 1.0) -> None:
        if speed <= 0:
            raise ValueError(f"speed must be positive: {speed!r}")
        self.cfg = cfg.validated()
        self.speed = float(speed)

    @t.overload
    def probe_cost(
        self, n_probe_tuples: int, scanned_bytes: int, spilled_bytes: int = 0
    ) -> float: ...

    @t.overload
    def probe_cost(
        self,
        n_probe_tuples: int | _IntArray,
        scanned_bytes: _IntArray,
        spilled_bytes: int | _IntArray = 0,
    ) -> _FloatArray: ...

    def probe_cost(
        self,
        n_probe_tuples: int | _IntArray,
        scanned_bytes: int | _IntArray,
        spilled_bytes: int | _IntArray = 0,
    ) -> float | _FloatArray:
        """Block-NLJ probe of *n* fresh tuples over *scanned_bytes* —
        one probe, or an array of them costed element by element (the
        same operations in the same order, so the same floats).

        The comparison work of a block nested-loop join is the cross
        product: every probing tuple is compared against every scanned
        byte's tuple, so the scan term scales with ``n * bytes``.
        ``spilled_bytes`` of the scan live on disk (memory-limited
        nodes) and are read back once per probe block.
        """
        cpu = (
            self.cfg.tuple_cost
            + self.cfg.scan_byte_cost * scanned_bytes
        ) * n_probe_tuples
        disk = self.cfg.disk_read_byte_cost * spilled_bytes
        return (cpu + disk) / self.speed

    def expire_cost(self, expired_bytes: int) -> float:
        """Dropping expired blocks from the front of windows."""
        return self.cfg.expire_byte_cost * expired_bytes / self.speed

    def tuning_cost(self, moved_bytes: int) -> float:
        """Splitting or merging a mini-partition-group in memory."""
        return self.cfg.state_move_byte_cost * moved_bytes / self.speed

    def state_move_cost(self, moved_bytes: int) -> float:
        """Extracting/installing a partition-group during migration
        (charged on each of the two participating slaves)."""
        return self.cfg.state_move_byte_cost * moved_bytes / self.speed
