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
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_malformed_baseline_exit_2(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("not an entry\n")
        code = swjoin_main(
            ["lint", str(bad_file), "--baseline", str(baseline)]
        )
        assert code == 2
        assert "malformed" in capsys.readouterr().err

    def test_stale_baseline_exit_1(self, tmp_path, capsys):
        path = tmp_path / "core_x.py"
        path.write_text(CLEAN)
        baseline = tmp_path / "baseline.txt"
        baseline.write_text(f"SIM001 {path}:2  # TODO(repro#1): fixed now\n")
        code = swjoin_main(["lint", str(path), "--baseline", str(baseline)])
        assert code == 1
        assert "stale" in capsys.readouterr().out


class TestBaselineWorkflow:
    def test_write_then_pass_then_shrink(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        # Accept the current findings (the file need not exist yet).
        code = swjoin_main(
            ["lint", str(bad_file), "--baseline", str(baseline), "--write-baseline"]
        )
        assert code == 0
        assert "TODO" in baseline.read_text()
        # Baselined findings no longer fail the run.
        assert swjoin_main(["lint", str(bad_file), "--baseline", str(baseline)]) == 0
        # Fixing the violation makes the entry stale: the baseline must shrink.
        bad_file.write_text(CLEAN)
        assert swjoin_main(["lint", str(bad_file), "--baseline", str(baseline)]) == 1
        assert "stale" in capsys.readouterr().out

    def test_no_baseline_reports_everything(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.txt"
        swjoin_main(
            ["lint", str(bad_file), "--baseline", str(baseline), "--write-baseline"]
        )
        capsys.readouterr()
        assert (
            swjoin_main(["lint", str(bad_file), "--baseline", str(baseline)]) == 0
        )
        assert (
            swjoin_main(["lint", str(bad_file), "--no-baseline"]) == 1
        )


class TestOutput:
    def test_json_format(self, bad_file, capsys):
        code = swjoin_main(["lint", str(bad_file), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["n_files"] == 1
        assert [f["rule"] for f in payload["fresh"]] == ["SIM001"]
        assert payload["fresh"][0]["line"] == 2

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
        [["--explain", "SIM001", "x.py:1"], ["--cache", "c.json"]],
        ids=["explain", "cache"],
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
