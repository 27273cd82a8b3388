"""Lossless recovery matrix: with state replication on, a mid-run
slave crash must not cost a single output pair.

Every scenario compares the recovered run against the *unrestricted*
crash-free ``naive_window_join`` oracle over a closed trace — if any
window state, buffered tuple, or already-produced pair died with the
victim, the multisets differ and the test fails.  Contrast with
``test_chaos.py``, whose replication-off scenarios only assert degraded
completion.
"""

import os
from collections import Counter

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.system import JoinSystem, slave_node_id
from repro.faults.plan import FaultPlan
from repro.reference import naive_window_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer

SEEDS = [int(os.environ.get("CHAOS_SEED_BASE", "1")) + i for i in range(5)]

#: Same adversarial placements as the chaos suite (dist_epoch=2,
#: reorg_epoch=4): before any shipment reached the victim, inside a
#: reorg exchange, mid-epoch, and right after a plain boundary.
CRASH_TIMES = {
    "before-first-shipment": 1.0,
    "during-reorg": 4.02,
    "mid-epoch": 5.0,
    "after-boundary": 8.05,
}


def lossless_cfg(seed: int, **overrides) -> SystemConfig:
    base = dict(
        npart=12,
        rate=400.0,
        num_slaves=3,
        run_seconds=16.0,
        warmup_seconds=6.0,
        window_seconds=3.0,
        reorg_epoch=4.0,
        seed=seed,
        replication="checkpoint+log",
    )
    base.update(overrides)
    return SystemConfig.paper_defaults().scaled(0.01).with_(**base)


def closed_trace(cfg, seed):
    rng = RngRegistry(seed)
    wl = TwoStreamWorkload.poisson_bmodel(
        rng, cfg.rate, cfg.b_skew, cfg.key_domain
    )
    return wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)


def run_with_trace(cfg, trace):
    return JoinSystem(
        cfg, collect_pairs=True, workload=TraceReplayer(trace)
    ).run()


def sorted_pairs(pairs):
    if pairs is None or not len(pairs):
        return np.empty((0, 2), dtype=np.int64)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def assert_oracle_pairs(pairs, oracle):
    """The run's pair multiset is the oracle's; if not, the failure says
    how many pairs are missing and how many extra, with a few of each."""
    got = Counter(map(tuple, sorted_pairs(pairs).tolist()))
    want = Counter(map(tuple, oracle.tolist()))
    missing, extra = want - got, got - want
    assert not missing and not extra, (
        f"{sum(missing.values())} of {len(oracle)} oracle pairs missing, "
        f"{sum(extra.values())} extra; missing e.g. {sorted(missing)[:5]}, "
        f"extra e.g. {sorted(extra)[:5]}"
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("when", sorted(CRASH_TIMES), ids=sorted(CRASH_TIMES))
def test_checkpoint_log_crash_is_lossless(seed, when):
    """checkpoint+log replication: crash -> restore at the backup ->
    output multiset identical to the crash-free oracle, not degraded.

    The victim dies holding live sorted runs, the backup restores
    window contents only, and the rebuilt runs must reproduce the
    crash-free oracle bit for bit: the run is safely *derived* state."""
    cfg = lossless_cfg(
        seed,
        faults=FaultPlan.parse([f"crash:1@{CRASH_TIMES[when]}s"]),
    )
    trace = closed_trace(cfg, seed)
    result = run_with_trace(cfg, trace)

    victim = slave_node_id(1)
    assert [f["slave"] for f in result.faults] == [victim]
    fault = result.faults[0]
    assert fault["recovery_latency"] is not None
    assert fault["lost_pids"] == ()
    assert fault["restored_pids"], "recovery never exercised the backup"
    assert not result.degraded

    oracle = naive_window_join(trace, cfg.window_seconds)
    assert len(oracle), "degenerate workload: oracle joined nothing"
    assert_oracle_pairs(result.pairs, oracle)


@pytest.mark.parametrize(
    "when", ["mid-epoch", "during-reorg"], ids=["mid-epoch", "during-reorg"]
)
def test_tcp_backend_sigkill_is_lossless(when):
    """TCP row of the matrix: the victim is a real worker process
    connected to its peers over TCP sockets.  Its own host injects the
    crash through ``FaultInjector.crash_process``, which shuts those
    sockets down and kills the worker's kernel processes; the master's
    timeout path detects the EOF-driven ``NodeDown``, and the backup
    ring restores every partition — the joined multiset must be
    bit-identical to the crash-free oracle, undegraded."""
    cfg = lossless_cfg(
        SEEDS[0],
        backend="tcp",
        time_scale=0.05,
        faults=FaultPlan.parse([f"crash:1@{CRASH_TIMES[when]}s"]),
    )
    trace = closed_trace(cfg, SEEDS[0])
    result = run_with_trace(cfg, trace)

    victim = slave_node_id(1)
    assert result.injected_faults and result.injected_faults[0]["node"] == victim
    assert [f["slave"] for f in result.faults] == [victim]
    fault = result.faults[0]
    assert fault["recovery_latency"] is not None
    assert fault["lost_pids"] == ()
    assert fault["restored_pids"], "recovery never exercised the backup"
    assert not result.degraded

    oracle = naive_window_join(trace, cfg.window_seconds)
    assert len(oracle), "degenerate workload: oracle joined nothing"
    assert_oracle_pairs(result.pairs, oracle)


@pytest.mark.parametrize("seed", SEEDS)
def test_log_only_replication_is_also_lossless(seed):
    """Pure log replication (no periodic re-base): the genesis log
    reaches back to epoch 0, so replay alone reconstructs the state."""
    cfg = lossless_cfg(
        seed,
        replication="log",
        faults=FaultPlan.parse(["crash:1@5s"]),
    )
    trace = closed_trace(cfg, seed)
    result = run_with_trace(cfg, trace)
    assert not result.degraded
    oracle = naive_window_join(trace, cfg.window_seconds)
    assert_oracle_pairs(result.pairs, oracle)


def test_replication_off_crash_stays_degraded_and_restricted():
    """The pre-replication contract, kept as a contrast case: without
    replicas the run is degraded and the survivors' output is a strict
    subset of the oracle's — correct pairs only, but not all of them
    (unless the victim happened to hold no joinable state)."""
    cfg = lossless_cfg(
        SEEDS[0],
        replication="off",
        faults=FaultPlan.parse(["crash:1@5s"]),
    )
    trace = closed_trace(cfg, SEEDS[0])
    result = run_with_trace(cfg, trace)
    assert result.degraded
    assert result.faults[0]["lost_pids"] != ()
    oracle = {tuple(map(int, r)) for r in naive_window_join(trace, cfg.window_seconds)}
    got = {tuple(map(int, r)) for r in sorted_pairs(result.pairs)}
    assert got <= oracle


def test_recovered_run_replays_byte_identically():
    """Determinism survives the whole crash/restore machinery: same
    seed, same plan, same replication mode -> identical output pairs,
    outputs count, and replication byte accounting."""
    cfg = lossless_cfg(SEEDS[0], faults=FaultPlan.parse(["crash:1@5s"]))
    trace = closed_trace(cfg, SEEDS[0])
    a = run_with_trace(cfg, trace)
    b = run_with_trace(cfg, trace)
    assert np.array_equal(sorted_pairs(a.pairs), sorted_pairs(b.pairs))
    assert a.outputs == b.outputs
    assert a.master["replication_bytes"] == b.master["replication_bytes"]
    assert a.master["replication_bytes"] > 0


def test_replication_byte_overhead_is_accounted():
    """Replication is not free; the master's byte meter must reflect
    the teed shipments and checkpoints actually sent."""
    plain = lossless_cfg(SEEDS[0], replication="off")
    replicated = lossless_cfg(SEEDS[0])
    trace = closed_trace(plain, SEEDS[0])
    off = run_with_trace(plain, trace)
    on = run_with_trace(replicated, trace)
    assert off.master["replication_bytes"] == 0
    assert on.master["replication_bytes"] > 0
    # Same joined output either way on a crash-free run.
    assert np.array_equal(sorted_pairs(off.pairs), sorted_pairs(on.pairs))
