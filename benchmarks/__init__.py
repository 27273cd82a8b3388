"""Benchmark scripts: backend throughput, fault recovery and tracer
overhead, each writing a ``BENCH_*.json`` report."""
