#!/usr/bin/env python
"""Live mini-cluster: the same node code on the wall clock.

Everything else in this repository runs the master/slave/collector
generators on the deterministic discrete-event kernel in virtual time.
This example runs the *identical* node implementations on the thread
backend — the same kernel paced by the wall clock, every node in this
process, the nodes exchanging encoded frames over socket pairs exactly
as the multi-process backend's do — for a small join of a few
(compressed) seconds.  It demonstrates that
the node logic is genuinely runtime-agnostic: the fixed communication
schedule, the reorganization protocol and the join modules never know
which backend drives them.

Run:  python examples/live_cluster.py
"""

import time

from repro import JoinSystem, SystemConfig

#: One simulated second passes in 50 wall milliseconds.
TIME_SCALE = 0.05


def main() -> None:
    cfg = (
        SystemConfig.paper_defaults()
        .scaled(0.01)
        .with_(
            num_slaves=2,
            npart=12,
            rate=300.0,
            run_seconds=16.0,
            warmup_seconds=4.0,
            window_seconds=4.0,
            reorg_epoch=4.0,
        )
    )
    print(
        f"live cluster: 1 master + {cfg.num_slaves} slaves + 1 collector, "
        f"{cfg.run_seconds:g} virtual s at {TIME_SCALE * 1000:.0f} ms per "
        "virtual s..."
    )
    started = time.perf_counter()
    result = JoinSystem(cfg.with_(backend="thread", time_scale=TIME_SCALE)).run()
    wall = time.perf_counter() - started

    outputs = result.collector_delays.count
    print(f"done in {wall:.1f}s wall.")
    print(f"join outputs collected : {outputs}")
    print(f"avg production delay   : {result.collector_delays.mean:.2f} virtual s")
    for slave in result.slaves:
        print(
            f"slave {slave['node']}: processed "
            f"{slave['tuples_processed']} tuples, "
            f"{slave['outputs']} outputs, "
            f"waited {slave['idle_time']:.1f}s for its comm slots"
        )
    # The collector's merged statistics equal the slaves' local ones —
    # the same invariant the simulated backend upholds.
    assert outputs == result.delays.count


if __name__ == "__main__":
    main()
