"""Smoke test of the benchmark through its real entry point.

Not part of tier-1 (``testpaths`` stays ``tests/``); run it with
``python -m pytest perf -q``.  One ``--quick`` run (a fifth of every
horizon, one rep) takes well under a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick(tmp_path_factory: pytest.TempPathFactory) -> tuple[str, dict]:
    out = str(tmp_path_factory.mktemp("perf") / "quick.json")
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--out", out],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return out, json.load(handle)


def test_every_declared_name_is_reported(declared: dict, quick: tuple) -> None:
    _, result = quick
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert set(result["workloads"]) == {w["name"] for w in declared["workloads"]}
    for name, row in result["workloads"].items():
        assert set(row["end_to_end"]) == end_to_end, name
        assert set(row["per_layer"]) == per_layer, name
        for metric in declared["end_to_end"] + declared["per_layer"]:
            cell = {**row["end_to_end"], **row["per_layer"]}[metric["name"]]
            assert cell["unit"] == metric["unit"], (name, metric["name"])


def test_every_run_matches_the_oracle(quick: tuple) -> None:
    _, result = quick
    for name, row in result["workloads"].items():
        assert row["correct"], name
        assert row["failed_share"] == 0, name
        assert row["oracle_pairs"] > 0 and row["trace_tuples"] > 0, name
        assert all(rep["ok"] for rep in row["reps"]), name


def test_span_table_sums_to_the_traced_wall(quick: tuple) -> None:
    _, result = quick
    for name, row in result["workloads"].items():
        layers = {k: v["value"] for k, v in row["per_layer"].items()}
        if not layers["trace.wall_s"]:  # spans are sim-only
            assert name == "proc_paced"
            continue
        spans = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert spans + layers["simul.other_s"] == pytest.approx(
            layers["trace.wall_s"], rel=1e-9
        ), name
        assert layers["kernel.probe.calls"] > 0, name


def test_compare_accepts_a_result_against_itself(quick: tuple) -> None:
    out, _ = quick
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), out, out],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse" not in done.stdout
