"""Join-kernel benchmarks: micro targets plus the kernel matrix.

Two layers:

* **pytest-benchmark micro targets** (``pytest benchmarks/``): the
  inner loops the HPC guides say to profile before optimizing — the
  vectorized probe, key generation, hash partitioning, directory
  routing and the DES event loop.
* **The kernel-matrix benchmark** (``python benchmarks/bench_kernels.py
  --out BENCH_kernels.json``): sustained probe-commit-expire cycles at
  realistic window sizes for every registered join kernel, an
  end-to-end cross-kernel x cross-backend verification pass, and —
  beside the microbench cells — each kernel's whole-run sim tuples/s
  with fine tuning on and off on one pinned, oracle-verified trace.

The matrix measures the pattern production runs actually execute —
probe a head block, commit it, advance the expiry watermark — because
that is where the kernels diverge: each commit makes block-NLJ merge
the new block into its key-sorted run and mask the expired tuples out
(O(window) copying, no sort), while the indexed kernel's hash buckets
absorb the same commit in O(block) and expire lazily.  Probing an
*unchanging* window would flatter blocknlj (its run would be built
once and binary-searched forever) and measure nothing real.

A microbench cell predicts nothing on its own: fine tuning keeps real
windows near a thousand tuples, where per-call overhead, not the data
structure, sets the speed.  The end-to-end rows are the numbers a
kernel is judged by; the cells explain them.

No speedup is publishable without proof of equal work: the matrix
refuses to write a report (exit 1) unless (a) every kernel produced
the identical joined-pair multiset over the identical probe stream at
every window size, and (b) end-to-end runs on the sim and thread
backends for every kernel, and every timed end-to-end row, reproduced
the ``naive_window_join`` oracle exactly.  The JSON's ``"verified"``
flag records that both held.
"""

from __future__ import annotations

import argparse
import json
import time
import typing as t

import numpy as np
import pytest

from repro.config import CostModelConfig, SystemConfig
from repro.core.hashing import directory_hash, partition_of
from repro.core.kernels import available_kernels
from repro.core.partition_group import JoinGeometry, PartitionGroup
from repro.core.probe import probe_sorted
from repro.core.system import JoinSystem
from repro.core.window import StreamWindow
from repro.reference import naive_window_join
from repro.simul.kernel import Simulator
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer


@pytest.fixture(scope="module")
def probe_inputs():
    rng = np.random.default_rng(0)
    n_window, n_probe = 100_000, 64
    window_key = np.sort(rng.integers(0, 1_000_000, n_window))
    window_ts = rng.uniform(0, 600, n_window)
    probe_key = rng.integers(0, 1_000_000, n_probe)
    probe_ts = rng.uniform(500, 600, n_probe)
    seq = np.arange(n_probe)
    return probe_ts, probe_key, seq, window_key, window_ts


def test_probe_kernel(benchmark, probe_inputs):
    """One head-block probe against a 100k-tuple sorted window."""
    probe_ts, probe_key, seq, window_key, window_ts = probe_inputs
    result = benchmark(
        probe_sorted,
        probe_ts,
        probe_key,
        seq,
        window_key,
        window_ts,
        None,
        600.0,
    )
    assert result.n_pairs >= 0


def test_bmodel_generation(benchmark):
    """Drawing one distribution epoch's worth of skewed keys."""
    model = BModelKeys(10_000_001, 0.7, np.random.default_rng(0))
    keys = benchmark(model.draw, 12_000)
    assert len(keys) == 12_000


def test_partition_hash(benchmark):
    keys = np.random.default_rng(0).integers(0, 10_000_001, 12_000)
    pids = benchmark(partition_of, keys, 60)
    assert pids.max() < 60


def test_directory_hash(benchmark):
    keys = np.random.default_rng(0).integers(0, 10_000_001, 12_000)
    g = benchmark(directory_hash, keys)
    assert len(g) == 12_000


def test_directory_routing(benchmark):
    from repro.data.tuples import TupleBatch

    geometry = JoinGeometry(64, 4096, 32 * 1024, 600.0, True, 64)
    group = PartitionGroup(0, geometry)
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 10_000_001, 20_000)
    # Fill the single initial mini-group, then split to a fixed point
    # so routing exercises a real multi-level directory.
    patterns, buckets = group.route(keys)
    for pattern in sorted(buckets):
        mini = buckets[pattern].payload
        idx = np.flatnonzero(patterns == pattern)
        mini.windows[0].install_committed(
            TupleBatch.build(
                ts=np.sort(rng.uniform(0, 600, len(idx))), key=keys[idx]
            )
        )
    while group.oversized_buckets():
        group.split_bucket(group.oversized_buckets()[0])
    assert group.n_mini_groups > 4

    batch_keys = rng.integers(0, 10_000_001, 4096)
    patterns, buckets = benchmark(group.route, batch_keys)
    assert len(patterns) == 4096


def test_event_loop_throughput(benchmark):
    """Raw kernel speed: schedule and process 10k timeouts."""

    def run_loop():
        sim = Simulator()

        def ticker(sim):
            for _ in range(10_000):
                yield sim.timeout(0.001)

        sim.process(ticker(sim))
        sim.run(None)
        return sim.now

    now = benchmark(run_loop)
    assert now == pytest.approx(10.0, rel=0.01)


@pytest.mark.parametrize("kernel", available_kernels())
def test_probe_commit_cycle(benchmark, kernel):
    """One probe-then-commit cycle per kernel at a 20k-tuple window —
    the micro version of the matrix below."""
    win, clock, dt = _build_window(kernel, 20_000, window_seconds=600.0)
    rng = np.random.default_rng(1)

    state = {"clock": clock, "seq": 1_000_000}

    def cycle():
        ts = state["clock"] + dt * np.arange(1, 65)
        key = rng.integers(0, 20_000 // 8, 64)
        seq = np.arange(state["seq"], state["seq"] + 64)
        r = win.probe_committed(ts, key, seq, 600.0)
        win.append_fresh(ts, key, seq)
        win.commit_fresh()
        state["clock"] = float(ts[-1])
        state["seq"] += 64
        return r

    result = benchmark(cycle)
    assert result.n_pairs >= 0


# ---------------------------------------------------------------------------
# The kernel matrix (argparse entry point).
# ---------------------------------------------------------------------------
WINDOW_SIZES = (10_000, 100_000)
BATCH = 64  # head-block size at the paper's 4 KiB blocks / 64 B tuples


def _build_window(
    kernel: str, n_window: int, window_seconds: float
) -> tuple[StreamWindow, float, float]:
    """A committed window of *n_window* tuples spanning exactly one
    window length, so steady-state expiry balances steady-state commit.
    Returns ``(window, clock, dt)``."""
    win = StreamWindow(0, BATCH, BATCH * 64, kernel=kernel)
    rng = np.random.default_rng(0)
    dt = window_seconds / n_window
    ts = dt * np.arange(n_window)
    key = rng.integers(0, max(1, n_window // 8), n_window).astype(np.int64)
    seq = np.arange(n_window, dtype=np.int64)
    win.committed.append(ts, key, seq)
    win.kernel.warm()
    return win, float(ts[-1]), dt


def _canonical(pairs: np.ndarray) -> np.ndarray:
    """Pair rows in one fixed order, so multisets compare by equality."""
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _trace_and_oracle(
    cfg: SystemConfig, key_domain: int
) -> tuple[t.Any, np.ndarray]:
    """*cfg*'s pinned trace (ending three epochs early, so every backend
    ingests all of it) and its naive-join pair multiset."""
    wl = TwoStreamWorkload.poisson_bmodel(
        RngRegistry(cfg.seed), cfg.rate, cfg.b_skew, key_domain
    )
    trace = wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)
    return trace, naive_window_join(trace, cfg.window_seconds)


def measure_kernel(
    kernel: str, n_window: int, iters: int, window_seconds: float = 600.0
) -> dict[str, t.Any]:
    """Sustained probe/commit/expire throughput for one kernel at one
    window size, returning the stats and the full pair multiset."""
    build0 = time.perf_counter()
    win, clock, dt = _build_window(kernel, n_window, window_seconds)
    build = time.perf_counter() - build0

    rng = np.random.default_rng(42)  # same probe stream for every kernel
    probe_keys = rng.integers(
        0, max(1, n_window // 8), (iters, BATCH)
    ).astype(np.int64)
    all_pairs: list[np.ndarray] = []
    n_pairs = 0

    wall0 = time.perf_counter()
    for i in range(iters):
        ts = clock + dt * np.arange(1, BATCH + 1)
        key = probe_keys[i]
        seq = np.arange(1_000_000 + i * BATCH, 1_000_000 + (i + 1) * BATCH)
        result = win.probe_committed(ts, key, seq, window_seconds,
                                     collect_pairs=True)
        n_pairs += result.n_pairs
        all_pairs.append(result.pairs)
        # The steady-state mutation pattern: commit what we probed,
        # advance the expiry watermark one head block's worth.
        win.append_fresh(ts, key, seq)
        win.commit_fresh()
        clock = float(ts[-1])
        win.expire_before(clock - window_seconds)
    wall = time.perf_counter() - wall0

    pairs = (
        np.concatenate(all_pairs)
        if all_pairs
        else np.empty((0, 2), dtype=np.int64)
    )
    pairs = _canonical(pairs)
    return {
        "kernel": kernel,
        "window_tuples": n_window,
        "iters": iters,
        "build_seconds": round(build, 4),
        "wall_seconds": round(wall, 4),
        "probe_tuples_per_s": round(iters * BATCH / wall, 1),
        "pairs": int(n_pairs),
        "_multiset": pairs,
    }


def verify_end_to_end(seed: int) -> tuple[bool, dict[str, t.Any]]:
    """Every kernel x {sim, thread} reproduces the naive oracle."""
    cfg = (
        SystemConfig.paper_defaults()
        .scaled(0.01)
        .with_(
            num_slaves=2,
            npart=8,
            rate=300.0,
            run_seconds=10.0,
            warmup_seconds=2.0,
            window_seconds=3.0,
            time_scale=0.02,
            seed=seed,
        )
    )
    trace, oracle = _trace_and_oracle(cfg, key_domain=10_000)
    detail: dict[str, t.Any] = {"oracle_pairs": int(len(oracle))}
    ok = len(oracle) > 0
    for kernel in available_kernels():
        for backend in ("sim", "thread"):
            result = JoinSystem(
                cfg.with_(kernel=kernel, backend=backend),
                collect_pairs=True,
                workload=TraceReplayer(trace),
            ).run()
            pairs = _canonical(result.pairs)
            match = bool(np.array_equal(pairs, oracle))
            detail[f"{kernel}/{backend}"] = (
                "oracle-exact" if match else f"DIVERGED ({len(pairs)} pairs)"
            )
            ok &= match
    return ok, detail


def measure_end_to_end(
    seed: int, horizon: float, reps: int = 2
) -> tuple[bool, list[dict[str, t.Any]]]:
    """Whole-run sim tuples/s per kernel, fine tuning on and off.

    One pinned trace on the perf harness's ``sim_ft``/``sim_noft``
    geometry (4000 tuples/s/stream, W = 120 s, near-zero modeled costs
    so the real numpy/Python work is the only load); best wall of
    *reps* construct-and-runs, every one checked against the oracle.
    """
    base = (
        SystemConfig.paper_defaults()
        .scaled(0.05)
        .with_(
            num_slaves=4,
            npart=8,
            rate=4000.0,
            window_seconds=120.0,
            run_seconds=horizon,
            warmup_seconds=0.2 * horizon,
            cost=CostModelConfig(
                tuple_cost=1e-7,
                scan_byte_cost=1e-13,
                state_move_byte_cost=1e-12,
                expire_byte_cost=0.0,
            ),
            seed=seed,
        )
    )
    trace, oracle = _trace_and_oracle(base, base.key_domain)
    rows: list[dict[str, t.Any]] = []
    ok = len(oracle) > 0
    for kernel in available_kernels():
        for fine_tuning in (True, False):
            cfg = base.with_(kernel=kernel, fine_tuning=fine_tuning)
            wall, exact = float("inf"), True
            for _ in range(reps):
                start = time.perf_counter()
                result = JoinSystem(
                    cfg, collect_pairs=True, workload=TraceReplayer(trace)
                ).run()
                wall = min(wall, time.perf_counter() - start)
                exact &= bool(
                    np.array_equal(_canonical(result.pairs), oracle)
                )
            ok &= exact
            rows.append({
                "kernel": kernel,
                "fine_tuning": fine_tuning,
                "trace_tuples": len(trace),
                "wall_seconds": round(wall, 4),
                "tuples_per_s": round(len(trace) / wall, 1),
                "oracle_exact": exact,
            })
    return ok, rows


def main(argv: t.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=150,
                        help="probe-commit-expire cycles per cell")
    parser.add_argument("--e2e-horizon", type=float, default=100.0,
                        help="modeled seconds of the end-to-end rows' trace")
    parser.add_argument("--seed", type=int, default=20130724)
    parser.add_argument("--out", default="BENCH_kernels.json")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    kernels = available_kernels()
    cells: list[dict[str, t.Any]] = []
    multisets_equal = True
    for n_window in WINDOW_SIZES:
        reference: np.ndarray | None = None
        for kernel in kernels:
            cell = measure_kernel(kernel, n_window, args.iters)
            multiset = cell.pop("_multiset")
            if reference is None:
                reference = multiset
            elif not np.array_equal(multiset, reference):
                multisets_equal = False
                cell["DIVERGED"] = True
            cells.append(cell)
            print(
                f"{kernel:>9} @ {n_window:>7,} tuples: "
                f"{cell['probe_tuples_per_s']:>12,.0f} probe t/s  "
                f"({cell['wall_seconds']:.3f}s, {cell['pairs']:,} pairs)"
            )

    rows_ok, e2e_rows = measure_end_to_end(args.seed, args.e2e_horizon)
    for row in e2e_rows:
        print(
            f"{row['kernel']:>9} end to end, fine tuning "
            f"{'on ' if row['fine_tuning'] else 'off'}: "
            f"{row['tuples_per_s']:>12,.0f} tuples/s  "
            f"({row['wall_seconds']:.3f}s, {row['trace_tuples']:,} tuples)"
        )

    e2e_ok, e2e_detail = verify_end_to_end(args.seed)
    verified = multisets_equal and e2e_ok and rows_ok

    def cell_of(kernel: str, n: int) -> dict[str, t.Any]:
        return next(
            c for c in cells
            if c["kernel"] == kernel and c["window_tuples"] == n
        )

    speedups = {
        str(n): round(
            cell_of("indexed", n)["probe_tuples_per_s"]
            / cell_of("blocknlj", n)["probe_tuples_per_s"],
            2,
        )
        for n in WINDOW_SIZES
        if "indexed" in kernels and "blocknlj" in kernels
    }
    report = {
        "benchmark": "kernels",
        "verified": verified,
        "iters": args.iters,
        "batch": BATCH,
        "cells": cells,
        "indexed_over_blocknlj_speedup": speedups,
        "end_to_end": e2e_detail,
        "end_to_end_tuples_per_s": e2e_rows,
        "wall_seconds": round(time.perf_counter() - started, 2),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps({k: v for k, v in report.items() if k != "cells"},
                     indent=2))
    print(f"wrote {args.out}")
    if not verified:
        print(
            "ERROR: kernels did not perform identical join work "
            "(multisets_equal=%s, end_to_end=%s, end_to_end_rows=%s); the "
            "numbers above are not publishable."
            % (multisets_equal, e2e_ok, rows_ok)
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
