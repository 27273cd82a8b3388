"""Master-failover chaos wall: kill the coordinator, lose nothing.

With ``standby=True`` and ``checkpoint+log`` replication, a mid-run
master SIGKILL must be survived by the standby: it replays the fatal
round against its mirrored state, re-fences every slave, and finishes
the run as the acting master.  Every scenario compares the completed
run against the *unrestricted* crash-free ``naive_window_join`` oracle
over a closed trace — if the takeover lost a buffered tuple, dropped an
in-flight shipment, or double-counted a banked pair chunk, the
multisets differ and the test fails.

The matrix crosses backends (sim / thread / process) with adversarial
kill times: before the first reorg, inside the reorg exchange, and
mid-epoch; one more sim row kills the master inside a recovery round.  The sim rows additionally assert byte-identical same-seed
replays — the takeover path itself must be deterministic.
"""

import os

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.cluster import standby_node_id
from repro.core.system import JoinSystem, MASTER_ID
from repro.faults.plan import FaultPlan
from repro.reference import naive_window_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer

SEEDS = [int(os.environ.get("CHAOS_SEED_BASE", "1")) + i for i in range(3)]

#: Adversarial kill times (dist_epoch=2, reorg_epoch=4): during a plain
#: round before any reorg ran, inside the first reorg exchange, and
#: mid-epoch after state moved around.
KILL_TIMES = {
    "before-reorg": 3.0,
    "during-reorg": 4.02,
    "mid-epoch": 5.0,
}


def failover_cfg(seed: int, **overrides) -> SystemConfig:
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
        standby=True,
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


def assert_survived_master_kill(result, trace, cfg):
    """The takeover completed, lost nothing, and recorded itself."""
    master_faults = [f for f in result.faults if f["slave"] == MASTER_ID]
    assert len(master_faults) == 1, result.faults
    fault = master_faults[0]
    assert fault["where"] == "standby"
    assert fault["recovery_latency"] is not None
    assert not result.degraded, result.faults

    oracle = naive_window_join(trace, cfg.window_seconds)
    assert len(oracle), "degenerate workload: oracle joined nothing"
    assert np.array_equal(sorted_pairs(result.pairs), oracle)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("when", sorted(KILL_TIMES), ids=sorted(KILL_TIMES))
def test_sim_master_kill_is_lossless(seed, when):
    cfg = failover_cfg(
        seed, faults=FaultPlan.parse([f"crash:master@{KILL_TIMES[when]}s"])
    )
    trace = closed_trace(cfg, seed)
    result = run_with_trace(cfg, trace)
    assert_survived_master_kill(result, trace, cfg)


def test_sim_master_kill_replay_is_byte_identical():
    """Same seed, same kill -> bit-identical joined pairs: the election
    and fatal-round replay are as deterministic as a fault-free run."""
    cfg = failover_cfg(
        SEEDS[0], faults=FaultPlan.parse(["crash:master@5s"])
    )
    trace = closed_trace(cfg, SEEDS[0])
    first = run_with_trace(cfg, trace)
    second = run_with_trace(cfg, trace)
    assert np.array_equal(
        sorted_pairs(first.pairs), sorted_pairs(second.pairs)
    )
    assert first.faults == second.faults


@pytest.mark.parametrize("seed", SEEDS)
def test_sim_master_kill_in_recovery_round_is_lossless(seed):
    """The fatal round may be a recovery round: a slave dies at a plain
    epoch, and the master dies after telling the standby its adoption
    plan but before the round completes.  The standby replays that
    plan; the run stays lossless and replays byte-identically."""
    cfg = failover_cfg(
        seed,
        reorg_epoch=8.0,
        faults=FaultPlan.parse(["crash:1@2.5s", "crash:master@4.5s"]),
    )
    trace = closed_trace(cfg, seed)
    result = run_with_trace(cfg, trace)
    assert_survived_master_kill(result, trace, cfg)
    (slave,) = [f for f in result.faults if f["slave"] != MASTER_ID]
    (master,) = [f for f in result.faults if f["slave"] == MASTER_ID]
    reorg_every = round(cfg.reorg_epoch / cfg.dist_epoch)
    assert master["epoch"] == slave["epoch"] + 1
    assert (master["epoch"] + 1) % reorg_every != 0
    again = run_with_trace(cfg, trace)
    assert np.array_equal(sorted_pairs(result.pairs), sorted_pairs(again.pairs))
    assert result.faults == again.faults


def test_sim_master_kill_with_slave_backup_restore():
    """The fatal round may carry planned restores: killing the master
    right after it planned a recovery reorg must not strand the dead
    slave's partitions (re-planned by the acting master)."""
    cfg = failover_cfg(
        SEEDS[0],
        faults=FaultPlan.parse(["crash:1@3s", "crash:master@7s"]),
    )
    trace = closed_trace(cfg, SEEDS[0])
    result = run_with_trace(cfg, trace)
    assert_survived_master_kill(result, trace, cfg)
    # The acting master's typed view is read off the very counters
    # RunResult.master reports, mirrored ones included: a takeover
    # cannot leave the two tellings apart.
    view = result.node_metrics[standby_node_id(cfg)]
    for name in ("tuples_ingested", "replication_bytes"):
        assert view[name]["value"] == result.master[name] > 0
    assert view["dead_slaves"]["value"] == len(result.master["dead_slaves"]) == 1


@pytest.mark.parametrize("backend", ["thread", "process", "tcp"])
@pytest.mark.parametrize(
    "when", ["before-reorg", "mid-epoch"], ids=["before-reorg", "mid-epoch"]
)
def test_wallclock_master_kill_is_lossless(backend, when):
    """Wall-clock rows: the master dies for real (halt token / SIGKILL)
    and the standby detects it through transport EOF, not a simulated
    dead set.  Output multiset must still match the crash-free oracle."""
    cfg = failover_cfg(
        SEEDS[0],
        backend=backend,
        time_scale=0.05,
        faults=FaultPlan.parse([f"crash:master@{KILL_TIMES[when]}s"]),
    )
    trace = closed_trace(cfg, SEEDS[0])
    result = run_with_trace(cfg, trace)
    assert_survived_master_kill(result, trace, cfg)
