"""A centralized (single machine, no cluster) windowed join.

The reference point the paper's scalability argument starts from: one
node running the same block-based join module with no master, no
network and no epoch distribution — tuples are handed to the join the
moment the epoch ends.  Its saturation rate is the per-machine capacity
every multi-node configuration is measured against.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.config import SystemConfig
from repro.core.costmodel import CostModel
from repro.core.join_module import JoinModule
from repro.core.metrics import DelayStats, MeasurementWindow, SlaveMetrics
from repro.core.partition_group import JoinGeometry
from repro.core.protocol import Shipment
from repro.core.steps import run_steps
from repro.runtime.sim import SimRuntime
from repro.simul.kernel import Simulator
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload


@dataclasses.dataclass
class CentralizedResult:
    cfg: SystemConfig
    duration: float
    delays: DelayStats
    cpu_total: float
    max_window_bytes: int
    tuples_processed: int

    @property
    def avg_delay(self) -> float:
        return self.delays.mean

    @property
    def outputs(self) -> int:
        return self.delays.count

    @property
    def utilization(self) -> float:
        return self.cpu_total / self.duration if self.duration else 0.0


class CentralizedJoin:
    """Single-node baseline runner."""

    def __init__(self, cfg: SystemConfig, workload: t.Any = None) -> None:
        self.cfg = cfg.validated()
        self._workload_override = workload

    def run(self) -> CentralizedResult:
        cfg = self.cfg
        sim = Simulator()
        runtime = SimRuntime(sim)
        gate = MeasurementWindow(cfg.warmup_seconds, cfg.run_seconds)
        rng = RngRegistry(cfg.seed)
        workload = self._workload_override or TwoStreamWorkload.poisson_bmodel(
            rng, cfg.rate, cfg.b_skew, cfg.key_domain
        )
        geometry = JoinGeometry(
            tuples_per_block=cfg.tuples_per_block,
            block_bytes=cfg.block_bytes,
            theta_bytes=cfg.theta_bytes,
            window_seconds=cfg.window_seconds,
            fine_tuning=cfg.fine_tuning,
            tuple_bytes=cfg.tuple_bytes,
        )
        metrics = SlaveMetrics(0, gate)
        module = JoinModule(
            0, geometry, CostModel(cfg.cost), cfg.npart, metrics
        )
        for pid in range(cfg.npart):
            module.add_partition(pid)

        def node() -> t.Generator:
            epoch = 0
            prev = 0.0
            while (epoch + 1) * cfg.dist_epoch <= cfg.run_seconds + 1e-9:
                boundary = (epoch + 1) * cfg.dist_epoch
                yield runtime.sleep_until(boundary)
                batch = workload.generate(prev, boundary)
                module.enqueue(Shipment(epoch, prev, boundary, batch))
                prev = boundary
                while module.has_work:  # passes are bounded; drain all
                    yield from run_steps(runtime, metrics, module.steps())
                metrics.sample_window(runtime.now(), module.window_bytes)
                epoch += 1

        process = sim.process(node(), name="centralized")
        sim.run(None)
        assert not process.is_alive

        return CentralizedResult(
            cfg=cfg,
            duration=cfg.run_seconds - cfg.warmup_seconds,
            delays=metrics.delays,
            cpu_total=metrics.cpu_total,
            max_window_bytes=metrics.max_window_bytes,
            tuples_processed=metrics.tuples_processed,
        )
