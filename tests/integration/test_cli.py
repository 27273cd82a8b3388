"""The command-line interface."""

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.cli import _parse_peers, build_parser, main
from repro.errors import ConfigError


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.rate == 1500.0
        assert args.slaves == 4

    def test_run_tcp_backend_with_peers(self):
        args = build_parser().parse_args(
            ["run", "--backend", "tcp",
             "--peers", "3=10.0.0.2:7000", "--peers", "4=10.0.0.3:7001"]
        )
        assert args.backend == "tcp"
        assert _parse_peers(args.peers) == (
            (3, "10.0.0.2:7000"), (4, "10.0.0.3:7001"),
        )

    def test_peers_accept_comma_separated_entries(self):
        assert _parse_peers(["2=h1:70, 3=h2:71"]) == (
            (2, "h1:70"), (3, "h2:71"),
        )

    def test_malformed_peers_entry_rejected(self):
        with pytest.raises(ConfigError, match="NODE=HOST:PORT"):
            _parse_peers(["not-a-peer"])
        with pytest.raises(ConfigError, match="NODE=HOST:PORT"):
            _parse_peers(["x=host:70"])

    def test_worker_requires_listen(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])
        args = build_parser().parse_args(
            ["worker", "--listen", "0.0.0.0:7000"]
        )
        assert args.command == "worker"
        assert args.listen == "0.0.0.0:7000"

    def test_experiment_args(self):
        args = build_parser().parse_args(
            ["experiment", "fig07", "--quick", "--scale", "0.02"]
        )
        assert args.name == "fig07"
        assert args.quick
        assert args.scale == 0.02

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out
        assert "baselines_skew" in out
        # Every experiment is listed with a description, not a bare name.
        lines = out.splitlines()
        assert len(lines) == len(EXPERIMENTS)
        for line in lines:
            name, _, description = line.partition(" ")
            assert name in EXPERIMENTS and description.strip(), line

    def test_run_tiny(self, capsys):
        code = main(
            [
                "run",
                "--rate",
                "300",
                "--slaves",
                "2",
                "--scale",
                "0.01",
                "--npart",
                "12",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outputs:" in out
        assert "per-slave cpu" in out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["experiment", "fig99"])
