"""Engine mechanics: no suppression, parse errors, selection, collection."""

from repro.lint import Finding, collect_files, lint_paths, lint_sources
from repro.lint.engine import PARSE_RULE

BAD = "import time\nnow = time.time()\n"
PATH = "src/repro/core/x.py"


def test_pragma_comment_does_not_suppress():
    """Nothing silences a finding: a ``# lint: disable=`` comment is an
    ordinary comment, and the line it sits on is still flagged."""
    src = "import time\nnow = time.time()  # lint: disable=SIM001\n"
    result = lint_sources({PATH: src}, only={"SIM001"})
    assert [f.key for f in result.findings] == [f"SIM001 {PATH}:2"]
    assert not result.ok


class TestEngine:
    def test_syntax_error_becomes_a_parse_finding(self):
        result = lint_sources({PATH: "def broken(:\n"})
        assert [f.rule for f in result.findings] == [PARSE_RULE]
        assert not result.ok

    def test_only_restricts_the_rule_set(self):
        src = "import random\nimport time\nx = time.time()\n"
        result = lint_sources({PATH: src}, only={"SIM002"})
        assert {f.rule for f in result.findings} == {"SIM002"}

    def test_findings_are_sorted_and_deduplicated(self):
        result = lint_sources({PATH: BAD, "src/repro/core/a.py": BAD})
        paths = [f.path for f in result.findings]
        assert paths == sorted(paths)
        assert len(set(result.findings)) == len(result.findings)

    def test_finding_render_format(self):
        finding = Finding(path="a.py", line=3, rule="SIM001", message="boom")
        assert finding.render() == "a.py:3: SIM001 boom"
        assert finding.key == "SIM001 a.py:3"


class TestCollectFiles:
    def test_walks_dirs_skips_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-312.pyc").write_text("")
        (tmp_path / "pkg" / "notes.txt").write_text("")
        (tmp_path / "top.py").write_text("y = 2\n")
        files = collect_files([str(tmp_path)])
        names = [f.rsplit("/", 1)[-1] for f in files]
        assert names == ["top.py", "a.py"] or sorted(names) == ["a.py", "top.py"]
        assert all("__pycache__" not in f for f in files)
        assert all(f.endswith(".py") for f in files)

    def test_lint_paths_reads_from_disk(self, tmp_path):
        target = tmp_path / "core_x.py"
        target.write_text(BAD)
        result = lint_paths([str(target)], only={"SIM001"})
        assert [f.line for f in result.findings] == [2]
        assert result.n_files == 1
