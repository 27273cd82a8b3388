"""Memory-limited slaves and disk spill (paper's future-work extension)."""

import numpy as np
import pytest

from repro import JoinSystem, SystemConfig
from repro.config import CostModelConfig
from repro.core.costmodel import CostModel
from repro.errors import ConfigError
from repro.reference import naive_window_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer
from tests.conftest import drain


class TestSpillCost:
    def test_probe_cost_includes_disk_term(self):
        model = CostModel(CostModelConfig())
        in_memory = model.probe_cost(10, 100_000, spilled_bytes=0)
        spilled = model.probe_cost(10, 100_000, spilled_bytes=50_000)
        assert spilled > in_memory
        assert spilled - in_memory == pytest.approx(
            CostModelConfig().disk_read_byte_cost * 50_000
        )

    def test_disk_term_not_multiplied_by_tuples(self):
        """Disk is read once per probe block, not per tuple."""
        model = CostModel(CostModelConfig())
        one = model.probe_cost(1, 0, spilled_bytes=1000)
        many = model.probe_cost(64, 0, spilled_bytes=1000)
        disk = CostModelConfig().disk_read_byte_cost * 1000
        assert one - model.probe_cost(1, 0) == pytest.approx(disk)
        assert many - model.probe_cost(64, 0) == pytest.approx(disk)


class TestSpillFraction:
    def test_unlimited_memory_never_spills(self, geometry, metrics, cost_model):
        from repro.core.join_module import JoinModule

        module = JoinModule(0, geometry, cost_model, 4, metrics)
        assert module.spill_fraction() == 0.0

    def test_fraction_tracks_excess(self, geometry, metrics, cost_model):
        from repro.core.join_module import JoinModule
        from repro.core.protocol import Shipment
        from repro.data.tuples import TupleBatch

        module = JoinModule(
            0, geometry, cost_model, 4, metrics, memory_bytes=512
        )
        for pid in range(4):
            module.add_partition(pid)
        n = 64
        batch = TupleBatch.build(
            ts=np.linspace(0, 1, n), key=np.arange(n) * 7, stream=0
        )
        module.enqueue(Shipment(0, 0.0, 1.0, batch))
        drain(module, 1.0)
        assert module.window_bytes > 512
        expected = 1.0 - 512 / module.window_bytes
        assert module.spill_fraction() == pytest.approx(expected)


class TestConfig:
    def test_default_unlimited(self):
        assert SystemConfig.paper_defaults().slave_memory_bytes is None

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig.paper_defaults().with_(slave_memory_bytes=16)

    def test_scaled_shrinks_memory(self):
        cfg = SystemConfig.paper_defaults().with_(
            slave_memory_bytes=10 * 1024 * 1024
        )
        assert cfg.scaled(0.1).slave_memory_bytes == 1024 * 1024

    def test_scaled_keeps_none(self):
        assert SystemConfig.paper_defaults().scaled(0.1).slave_memory_bytes is None


class TestMemoryLimitedCluster:
    def test_spill_slows_but_stays_exact(self, tiny_cfg):
        cfg = tiny_cfg.with_(rate=800.0)
        share = int(
            2 * cfg.rate * cfg.window_seconds * cfg.tuple_bytes / cfg.num_slaves
        )
        limited = cfg.with_(slave_memory_bytes=max(4096, share // 4))

        wl = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(31), cfg.rate, cfg.b_skew, cfg.key_domain
        )
        trace = wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)

        full = JoinSystem(
            cfg, collect_pairs=True, workload=TraceReplayer(trace)
        ).run()
        spilling = JoinSystem(
            limited, collect_pairs=True, workload=TraceReplayer(trace)
        ).run()

        # Same results...
        expected = naive_window_join(trace, cfg.window_seconds)
        for result in (full, spilling):
            got = result.pairs
            got = got[np.lexsort((got[:, 1], got[:, 0]))]
            assert np.array_equal(got, expected)
        # ...but the memory-limited run paid disk time.
        disk = sum(s["disk_bytes_read"] for s in spilling.slaves)
        assert disk > 0
        assert sum(s["disk_bytes_read"] for s in full.slaves) == 0
        assert spilling.avg_cpu_time > full.avg_cpu_time
