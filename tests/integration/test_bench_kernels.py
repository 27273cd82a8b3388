"""Smoke test for the kernel matrix's equal-work verification.

The kernel benchmark only publishes a speedup after proving that every
registered kernel produced the identical joined-pair multiset over the
identical probe stream, and that end-to-end runs reproduce the naive
oracle on the sim and thread backends.  Running the real entry point
at a small iteration count means any kernel divergence — a stale
index, a broken lazy-expiry floor, a boundary off-by-one — fails here
before it can reach a published artifact.
"""

import json

from benchmarks.bench_kernels import main


def test_benchmark_verifies_equal_work_across_kernels(tmp_path):
    out = tmp_path / "bench.json"
    assert main(
        ["--iters", "20", "--e2e-horizon", "10", "--out", str(out)]
    ) == 0

    report = json.loads(out.read_text())
    assert report["verified"] is True
    kernels = {cell["kernel"] for cell in report["cells"]}
    assert kernels == {"blocknlj", "indexed"}
    # Equal work per window size: one pair count shared by all kernels.
    by_size: dict[int, set[int]] = {}
    for cell in report["cells"]:
        assert "DIVERGED" not in cell
        assert cell["pairs"] > 0
        by_size.setdefault(cell["window_tuples"], set()).add(cell["pairs"])
    for size, counts in by_size.items():
        assert len(counts) == 1, f"unequal pair counts at {size}: {counts}"
    # End-to-end conformance ran and matched the oracle everywhere.
    e2e = report["end_to_end"]
    assert e2e["oracle_pairs"] > 0
    assert all(
        v == "oracle-exact"
        for k, v in e2e.items()
        if k != "oracle_pairs"
    )
    assert set(report["indexed_over_blocknlj_speedup"]) == {"10000", "100000"}
    # Beside the microbench cells: every kernel's whole-run tuples/s,
    # fine tuning on and off, each run oracle-exact on one trace.
    rows = report["end_to_end_tuples_per_s"]
    assert {(r["kernel"], r["fine_tuning"]) for r in rows} == {
        (k, ft) for k in kernels for ft in (True, False)
    }
    assert len({r["trace_tuples"] for r in rows}) == 1
    assert all(r["oracle_exact"] and r["tuples_per_s"] > 0 for r in rows)
