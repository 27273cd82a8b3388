"""Benchmark package (pytest-benchmark harness reproducing the paper's
tables and figures; see bench_figures.py)."""
