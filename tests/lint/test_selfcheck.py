"""Self-check: the repo's own sources must satisfy their own linter.

This is the ISSUE's acceptance gate: ``swjoin lint src/repro`` exits 0
with no (or an annotated, shrinking) baseline.  Running it as a pytest
test keeps the invariant enforced even where CI is unavailable.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def test_src_repro_is_lint_clean():
    result = lint_paths([str(SRC_REPRO)])
    detail = "\n".join(f.render() for f in result.fresh)
    assert result.ok, f"fresh lint findings in src/repro:\n{detail}"
    assert result.n_files > 50  # sanity: we actually walked the tree


def test_lint_baseline_stays_empty():
    """The SIM003 epoch-arithmetic entry (repro#7) was the baseline's
    last accepted finding.  With it retired the file is header-only and
    must stay that way: new findings get fixed, not baselined."""
    from repro.lint.baseline import Baseline

    path = REPO_ROOT / "lint-baseline.txt"
    assert path.exists(), "lint-baseline.txt deleted: keep the header file"
    baseline = Baseline.load(str(path))
    rendered = "\n".join(e.render() for e in baseline.entries)
    assert len(baseline) == 0, f"lint-baseline.txt grew entries:\n{rendered}"


def test_tcp_modules_are_allowlisted_and_carry_zero_findings():
    """Regression for the TCP allowlist widening: the TCP connect path
    is a wall-clock/socket module (on SIM001's allowlist, and inside
    PERF001's ``repro/net/`` + ``repro/runtime/`` layers) and must land
    with zero fresh findings of its own.  The TCP *backend* module only
    wires sockets — the shared launcher owns everything that reads the
    clock — so it must stay clean with no SIM001 entry at all."""
    from repro.lint.rules import BANNED_SINKS

    rows = {row.id: row for row in BANNED_SINKS}
    assert rows["SIM001"].allows("src/repro/net/tcp_transport.py")
    assert not rows["SIM001"].allows("src/repro/runtime/tcp.py")
    assert rows["PERF001"].allows("src/repro/net/tcp_transport.py")
    assert rows["PERF001"].allows("src/repro/runtime/tcp.py")

    result = lint_paths([str(SRC_REPRO)])
    tcp_findings = [
        f
        for f in result.fresh
        if f.path.endswith(("net/tcp_transport.py", "runtime/tcp.py"))
    ]
    detail = "\n".join(f.render() for f in tcp_findings)
    assert tcp_findings == [], f"fresh findings in the TCP modules:\n{detail}"


def test_full_pass_fits_the_precommit_budget():
    """The whole-project pass (one parse per file, the per-file rules,
    and the PROTO001/CFG001 cross-module checks) must stay fast enough
    to run on every commit: < 30 s wall, with the CI lint job asserting
    the same bound end-to-end."""
    import time

    start = time.perf_counter()  # lint: disable=SIM001
    result = lint_paths([str(SRC_REPRO)])
    elapsed = time.perf_counter() - start  # lint: disable=SIM001
    assert result.n_files > 50
    assert elapsed < 30.0, f"lint pass took {elapsed:.1f}s (budget 30s)"


def test_tests_trees_parse():
    # Rules target src/repro; for tests we only insist the engine can
    # parse everything (PARSE findings would hide real syntax errors).
    result = lint_paths([str(REPO_ROOT / "tests")], only={"__none__"})
    parse_errors = [f for f in result.fresh if f.rule == "PARSE"]
    assert parse_errors == []


@pytest.mark.skipif(
    shutil.which("mypy") is None, reason="mypy not installed (lint extra)"
)
def test_mypy_strict_gate():
    """Run the pinned mypy configuration when the tool is available.

    The strict set and the shrink-only exclusion allowlist live in
    pyproject.toml; this test just executes them.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
