"""The ``swjoin lint`` subcommand and the standalone lint entry point."""

import json

import pytest

from repro.cli import main as swjoin_main
from repro.lint.cli import main as lint_main

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
        for rule_id in (
            "SIM001",
            "SIM002",
            "SIM003",
            "SIM004",
            "SIM005",
            "OBS001",
            "PERF001",
            "PROTO001",
            "CFG001",
        ):
            assert rule_id in out

    def test_json_findings_carry_the_chain_field(self, tmp_path, capsys):
        root = tmp_path / "src" / "repro"
        (root / "util").mkdir(parents=True)
        (root / "core").mkdir()
        (root / "util" / "helper.py").write_text(
            "import time\ndef now():\n    return time.time()\n"
        )
        (root / "core" / "thing.py").write_text(
            "from repro.util.helper import now\ndef tick():\n    return now()\n"
        )
        code = swjoin_main(
            ["lint", str(root), "--select", "SIM004", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload["fresh"]
        assert finding["rule"] == "SIM004"
        assert finding["chain"][-1] == "time.time"
        assert len(finding["chain"]) == 3

    def test_select_restricts_rules(self, tmp_path, capsys):
        path = tmp_path / "core_x.py"
        path.write_text("import random\nimport time\nx = time.time()\n")
        assert swjoin_main(["lint", str(path), "--select", "SIM002"]) == 1
        out = capsys.readouterr().out
        assert "SIM002" in out
        assert "SIM001" not in out


@pytest.fixture
def taint_tree(tmp_path):
    """A tiny project with one SIM004 chain, rooted at tmp_path."""
    root = tmp_path / "src" / "repro"
    (root / "util").mkdir(parents=True)
    (root / "core").mkdir()
    (root / "util" / "helper.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n"
    )
    (root / "core" / "thing.py").write_text(
        "from repro.util.helper import now\n\n\ndef tick():\n    return now()\n"
    )
    return root


class TestExplain:
    def test_prints_the_finding_and_its_chain(self, taint_tree, capsys):
        anchor = f"{taint_tree}/core/thing.py:5"
        code = swjoin_main(
            ["lint", "--explain", "SIM004", anchor, str(taint_tree)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SIM004" in out
        assert "repro.core.thing.tick" in out
        assert "-> repro.util.helper.now" in out
        assert "-> time.time" in out

    def test_repo_relative_anchor_matches(self, taint_tree, capsys, monkeypatch):
        monkeypatch.chdir(taint_tree.parents[1])
        code = swjoin_main(
            [
                "lint",
                "--explain",
                "SIM004",
                "src/repro/core/thing.py:5",
                "src/repro",
            ]
        )
        assert code == 0
        assert "time.time" in capsys.readouterr().out

    def test_no_match_exits_1(self, taint_tree, capsys):
        anchor = f"{taint_tree}/core/thing.py:99"
        code = swjoin_main(
            ["lint", "--explain", "SIM004", anchor, str(taint_tree)]
        )
        assert code == 1
        assert "no SIM004 finding" in capsys.readouterr().err

    def test_unknown_rule_exits_2(self, taint_tree, capsys):
        code = swjoin_main(
            ["lint", "--explain", "NOPE", "x.py:1", str(taint_tree)]
        )
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_malformed_anchor_exits_2(self, taint_tree, capsys):
        code = swjoin_main(
            ["lint", "--explain", "SIM004", "thing.py", str(taint_tree)]
        )
        assert code == 2
        assert "FILE:LINE" in capsys.readouterr().err


class TestCacheFlag:
    def test_cache_file_is_created_and_reused(self, bad_file, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        args = ["lint", str(bad_file), "--cache", str(cache), "--no-baseline"]
        assert swjoin_main(args) == 1
        assert cache.exists()
        first = capsys.readouterr().out
        assert swjoin_main(args) == 1
        assert capsys.readouterr().out == first

    def test_corrupt_cache_is_ignored(self, bad_file, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text("garbage")
        args = ["lint", str(bad_file), "--cache", str(cache), "--no-baseline"]
        assert swjoin_main(args) == 1
        assert "SIM001" in capsys.readouterr().out


class TestStandaloneEntry:
    def test_module_entry_prepends_lint(self, bad_file, capsys):
        assert lint_main([str(bad_file)]) == 1
        assert "SIM001" in capsys.readouterr().out

    def test_module_entry_accepts_explicit_lint(self, capsys):
        assert lint_main(["lint", "--list-rules"]) == 0
