"""The ``swjoin lint`` subcommand and the standalone lint entry point."""

import json

import pytest

from repro.cli import main as swjoin_main
from repro.lint.cli import main as lint_main
from repro.lint.rules import BANNED_SINKS

BAD = "import time\nnow = time.time()\n"
CLEAN = "def f(rt):\n    return rt.now()\n"


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "core_x.py"
    path.write_text(BAD)
    return path


class TestExitCodes:
    def test_findings_exit_1(self, bad_file, capsys):
        assert swjoin_main(["lint", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out
        assert f"{bad_file}:2" in out

    def test_clean_exit_0(self, tmp_path, capsys):
        path = tmp_path / "core_x.py"
        path.write_text(CLEAN)
        assert swjoin_main(["lint", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestOutput:
    def test_json_format(self, bad_file, capsys):
        code = swjoin_main(["lint", str(bad_file), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["n_files"] == 1
        assert sorted(payload) == ["findings", "n_files", "ok"]
        assert [f["rule"] for f in payload["findings"]] == ["SIM001"]
        assert payload["findings"][0]["line"] == 2

    def test_list_rules(self, capsys):
        assert swjoin_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [
            "CFG001",
            "OBS001",
            "PERF001",
            "PROTO001",
            "SIM001",
            "SIM002",
            "SIM003",
        ]

    def test_list_rules_prints_every_allowlisted_path(self, capsys):
        assert swjoin_main(["lint", "--list-rules"]) == 0
        lines = {
            line.split()[0]: line for line in capsys.readouterr().out.splitlines()
        }
        for row in BANNED_SINKS:
            for entry in row.allowed:
                assert entry in lines[row.id], (row.id, entry)

    @pytest.mark.parametrize(
        "flag",
        [
            ["--explain", "SIM001", "x.py:1"],
            ["--cache", "c.json"],
            ["--baseline", "x"],
            ["--no-baseline"],
            ["--write-baseline"],
        ],
        ids=["explain", "cache", "baseline", "no-baseline", "write-baseline"],
    )
    def test_removed_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            swjoin_main(["lint", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_select_restricts_rules(self, tmp_path, capsys):
        path = tmp_path / "core_x.py"
        path.write_text("import random\nimport time\nx = time.time()\n")
        assert swjoin_main(["lint", str(path), "--select", "SIM002"]) == 1
        out = capsys.readouterr().out
        assert "SIM002" in out
        assert "SIM001" not in out


class TestStandaloneEntry:
    def test_module_entry_prepends_lint(self, bad_file, capsys):
        assert lint_main([str(bad_file)]) == 1
        assert "SIM001" in capsys.readouterr().out

    def test_module_entry_accepts_explicit_lint(self, capsys):
        assert lint_main(["lint", "--list-rules"]) == 0
