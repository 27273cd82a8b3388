#!/usr/bin/env python
"""Sensor fusion: a three-way windowed stream join.

The paper's system model (Section II) defines the windowed join over
*n* streams; its prototype evaluates n = 2.  This example exercises the
n-way generalization end to end: three sensor feeds (say temperature,
vibration and acoustic monitors tagged by machine id) are correlated —
an alert fires when all three report the same machine within a sliding
window.

The full cluster machinery is unchanged: hash partitioning by machine
id, head-block batching, fine tuning, load balancing.  Only the probe
differs — a flushing block completes *composites* against the other
two streams' windows, each composite valid iff every member lies within
its stream's window at the newest member's arrival time.

Run:  python examples/sensor_fusion.py
"""

import numpy as np

from repro import JoinSystem, SystemConfig
from repro.reference import naive_multiway_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer


def main() -> None:
    cfg = (
        SystemConfig.paper_defaults()
        .scaled(0.01)
        .with_(
            n_streams=3,
            num_slaves=3,
            npart=12,
            rate=100.0,          # readings/s per sensor network
            key_domain=200,      # machines on the floor
            b_skew=0.5,          # sensors poll machines uniformly
            window_seconds=3.0,
            run_seconds=30.0,
            warmup_seconds=6.0,
            reorg_epoch=4.0,
        )
    )
    print(f"3-way join: {cfg.rate:g} readings/s/stream over "
          f"{cfg.key_domain} machines, window {cfg.window_seconds:g}s, "
          f"{cfg.num_slaves} slaves\n")

    # Trace-driven so we can check the cluster against the oracle.
    workload = TwoStreamWorkload.poisson_bmodel(
        RngRegistry(cfg.seed), cfg.rate, cfg.b_skew, cfg.key_domain,
        n_streams=3,
    )
    trace = workload.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)

    result = JoinSystem(
        cfg, collect_pairs=True, workload=TraceReplayer(trace)
    ).run()

    composites = result.pairs
    print(f"sensor readings     : {len(trace)}")
    print(f"fused alerts        : {len(composites)} "
          "(temperature, vibration, acoustic) triples")
    print(f"avg fusion delay    : {result.avg_delay:.2f}s "
          "(measured-window outputs)")
    print(f"per-slave windows   : "
          f"{[round(s['max_window_bytes'] / 1024, 1) for s in result.slaves]}"
          " KiB")

    expected = naive_multiway_join(trace, [cfg.window_seconds] * 3)
    got = composites[
        np.lexsort(tuple(composites[:, c] for c in reversed(range(3))))
    ]
    exact = np.array_equal(got, expected)
    print(f"\noracle check        : {len(expected)} composites expected, "
          f"exact match = {exact}")
    assert exact

    # A taste of the output: the three member sequence numbers of the
    # first few alerts (per-stream sequence ids).
    print("\nfirst alerts (seq per stream):")
    for row in composites[:5]:
        print(f"  temp#{row[0]}  vib#{row[1]}  acoustic#{row[2]}")


if __name__ == "__main__":
    main()
