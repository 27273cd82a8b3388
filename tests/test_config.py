"""Configuration: Table I defaults, validation, scaling invariants."""

import dataclasses

import pytest

from repro.config import (
    CostModelConfig,
    MIB,
    NetworkConfig,
    SystemConfig,
    parse_hostport,
)
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan


class TestPaperDefaults:
    """The defaults must match Table I of the paper exactly."""

    def setup_method(self) -> None:
        self.cfg = SystemConfig.paper_defaults()

    def test_window_is_ten_minutes(self):
        assert self.cfg.window_seconds == 600.0

    def test_rate_is_1500(self):
        assert self.cfg.rate == 1500.0

    def test_b_skew(self):
        assert self.cfg.b_skew == 0.7

    def test_thresholds(self):
        assert self.cfg.th_con == 0.01
        assert self.cfg.th_sup == 0.5

    def test_theta_is_1_5_mb(self):
        assert self.cfg.theta_bytes == int(1.5 * MIB)

    def test_block_4kb_tuple_64b(self):
        assert self.cfg.block_bytes == 4096
        assert self.cfg.tuple_bytes == 64
        assert self.cfg.tuples_per_block == 64

    def test_epochs(self):
        assert self.cfg.dist_epoch == 2.0
        assert self.cfg.reorg_epoch == 20.0

    def test_sixty_partitions(self):
        assert self.cfg.npart == 60

    def test_slave_buffer_1mb(self):
        assert self.cfg.slave_buffer_bytes == MIB

    def test_key_domain(self):
        assert self.cfg.key_domain == 10_000_001

    def test_run_and_warmup(self):
        assert self.cfg.run_seconds == 1200.0
        assert self.cfg.warmup_seconds == 600.0

    def test_validates(self):
        assert self.cfg.validated() is self.cfg


class TestWith:
    def test_with_changes_field(self):
        cfg = SystemConfig.paper_defaults().with_(rate=99.0)
        assert cfg.rate == 99.0

    def test_with_unknown_field_raises(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            SystemConfig.paper_defaults().with_(bogus=1)

    def test_with_validates(self):
        with pytest.raises(ConfigError):
            SystemConfig.paper_defaults().with_(rate=-1.0)

    def test_original_unchanged(self):
        cfg = SystemConfig.paper_defaults()
        cfg.with_(rate=99.0)
        assert cfg.rate == 1500.0


class TestScaled:
    def test_geometry_shrinks(self):
        cfg = SystemConfig.paper_defaults().scaled(0.1)
        assert cfg.window_seconds == 60.0
        assert cfg.run_seconds == 120.0
        assert cfg.warmup_seconds == 60.0
        assert cfg.theta_bytes == int(1.5 * MIB * 0.1)

    def test_scan_cost_grows_inversely(self):
        base = SystemConfig.paper_defaults()
        cfg = base.scaled(0.1)
        assert cfg.cost.scan_byte_cost == pytest.approx(
            base.cost.scan_byte_cost / 0.1
        )

    def test_rate_and_epochs_unchanged(self):
        cfg = SystemConfig.paper_defaults().scaled(0.1)
        assert cfg.rate == 1500.0
        assert cfg.dist_epoch == 2.0
        assert cfg.reorg_epoch == 20.0

    def test_scan_bytes_per_probe_invariant(self):
        """The product (window partition bytes) x (scan cost) — what a
        probe costs per tuple — is scale-invariant."""
        base = SystemConfig.paper_defaults()
        scaled = base.scaled(0.05)
        partition = lambda c: c.rate * c.window_seconds * c.tuple_bytes / c.npart
        assert partition(base) * base.cost.scan_byte_cost == pytest.approx(
            partition(scaled) * scaled.cost.scan_byte_cost
        )

    def test_scale_records_factor(self):
        assert SystemConfig.paper_defaults().scaled(0.05).scale == 0.05

    def test_scale_composes(self):
        cfg = SystemConfig.paper_defaults().scaled(0.5).scaled(0.1)
        assert cfg.scale == pytest.approx(0.05)
        assert cfg.window_seconds == pytest.approx(30.0)

    @pytest.mark.parametrize("sigma", [0.0, -0.5, 1.5])
    def test_invalid_scale(self, sigma):
        with pytest.raises(ConfigError):
            SystemConfig.paper_defaults().scaled(sigma)


class TestValidation:
    @pytest.mark.parametrize(
        "changes",
        [
            {"rate": 0.0},
            {"b_skew": 1.5},
            {"key_domain": 0},
            {"block_bytes": 100},  # not a multiple of tuple_bytes
            {"window_seconds": 0.0},
            {"npart": 0},
            {"theta_bytes": 100},
            {"num_slaves": 0},
            {"num_subgroups": 0},
            {"num_subgroups": 10},  # > num_slaves
            {"dist_epoch": 0.0},
            {"reorg_epoch": 1.0},  # < dist_epoch
            {"th_con": 0.6},  # >= th_sup
            {"beta": 0.0},
            {"beta": 1.0},
            {"warmup_seconds": 2000.0},  # >= run_seconds
            {"slave_buffer_bytes": 16},
            {"backend": "quantum"},
            # The wall-clock backends inject crash faults only.
            {"backend": "tcp", "faults": FaultPlan.parse(["slow:0x2@1-2s"])},
            {"routing": "random"},
        ],
    )
    def test_rejects(self, changes):
        with pytest.raises(ConfigError):
            SystemConfig.paper_defaults().with_(**changes)

    @pytest.mark.parametrize("addr", ["h:0", "h", ":70", "h:x", "h:65536"])
    def test_rejects_a_peer_address(self, addr):
        cfg = dataclasses.replace(
            SystemConfig.paper_defaults(), backend="tcp", tcp_peers=((2, addr),)
        )
        with pytest.raises(ConfigError):
            cfg.validated()

    def test_a_listen_address_may_take_an_ephemeral_port(self):
        # `swjoin worker --listen` parses with the same function.
        assert parse_hostport("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_hostport("::1:7000") == ("::1", 7000)

    def test_network_validation(self):
        with pytest.raises(ConfigError):
            NetworkConfig(bandwidth=0.0).validated()
        with pytest.raises(ConfigError):
            NetworkConfig(latency=-1.0).validated()

    def test_cost_validation(self):
        with pytest.raises(ConfigError):
            CostModelConfig(tuple_cost=-1.0).validated()


class TestRemovedKernelKnob:
    """There is one probe path; nothing that selected or priced a second
    one is settable any more."""

    def test_kernel_is_not_a_config_field(self):
        assert "kernel" not in {f.name for f in dataclasses.fields(SystemConfig)}
        with pytest.raises(TypeError, match="kernel"):
            SystemConfig(kernel="indexed")
        with pytest.raises(ConfigError, match=r"unknown config field.*kernel"):
            SystemConfig.paper_defaults().with_(kernel="indexed")

    def test_index_lookup_cost_is_gone(self):
        with pytest.raises(TypeError, match="index_lookup_cost"):
            CostModelConfig(index_lookup_cost=5.0e-6)

    def test_cli_rejects_kernel_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--kernel", "indexed"])
        assert exit_info.value.code == 2
        assert "--kernel" in capsys.readouterr().err


class TestNetworkModel:
    def test_transfer_time(self):
        net = NetworkConfig(latency=1e-3, bandwidth=1e6)
        assert net.transfer_time(1_000_000) == pytest.approx(1.001)

    def test_endpoint_overhead(self):
        net = NetworkConfig(per_message_overhead=0.01, per_byte_overhead=1e-6)
        assert net.endpoint_overhead(1000) == pytest.approx(0.011)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SystemConfig.paper_defaults().rate = 1.0
