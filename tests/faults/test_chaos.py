"""Chaos matrix: crash one slave at adversarial times, across seeds.

The seed base can be shifted from the environment (``CHAOS_SEED_BASE``)
so CI can sweep disjoint seed windows without editing the suite.  Every
scenario is fully deterministic: a (seed, FaultPlan) pair names one
exact execution.
"""

import os

import pytest

from repro.config import ObservabilityConfig, SystemConfig
from repro.core.system import JoinSystem, slave_node_id
from repro.faults.plan import FaultPlan

SEEDS = [int(os.environ.get("CHAOS_SEED_BASE", "1")) + i for i in range(5)]

#: Crash times chosen against the control-plane schedule of the chaos
#: config (dist_epoch=2, reorg_epoch=4): before the first shipment,
#: mid-epoch, just inside a reorg exchange (state transfers in flight),
#: and right after a plain distribution boundary.
CRASH_TIMES = {
    "before-first-shipment": 1.0,
    "during-reorg": 4.02,
    "mid-epoch": 5.0,
    "after-boundary": 8.05,
}


def chaos_cfg(seed: int, **overrides) -> SystemConfig:
    base = dict(
        npart=12,
        rate=400.0,
        num_slaves=3,
        run_seconds=16.0,
        warmup_seconds=6.0,
        window_seconds=3.0,
        reorg_epoch=4.0,
        seed=seed,
    )
    base.update(overrides)
    return SystemConfig.paper_defaults().scaled(0.01).with_(**base)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "when", sorted(CRASH_TIMES), ids=sorted(CRASH_TIMES)
)
def test_crash_sweep_recovers(seed, when):
    """One slave dies; the run completes degraded, survivors adopt
    every lost partition, and the failure is fully accounted for."""
    crash_at = CRASH_TIMES[when]
    victim_index = 1
    victim = slave_node_id(victim_index)
    cfg = chaos_cfg(
        seed, faults=FaultPlan.parse([f"crash:{victim_index}@{crash_at}s"])
    )

    result = JoinSystem(cfg).run()  # must not raise DeadlockError

    # The crash actually fired and was detected.
    assert [r["action"] for r in result.injected_faults] == ["crash"]
    assert result.injected_faults[0]["node"] == victim
    assert result.degraded
    assert [f["slave"] for f in result.faults] == [victim]
    fault = result.faults[0]
    assert fault["detected_at"] >= crash_at

    # Recovery ran: detection-to-reassignment latency is recorded and
    # the dead slave's partitions were adopted by survivors.
    assert fault["recovery_latency"] is not None
    assert fault["recovery_latency"] >= 0.0
    assert result.recovery_latencies == [fault["recovery_latency"]]
    owners = result.master["partition_owners"]
    assert sorted(owners) == list(range(cfg.npart))
    survivors = {slave_node_id(i) for i in range(cfg.num_slaves)} - {victim}
    assert set(owners.values()) <= survivors
    assert result.master["dead_slaves"] == [victim]

    # Survivors kept producing output after the failure.
    assert result.outputs > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_of_two_slaves_still_completes(seed):
    """Cascading failures: a second crash while the first recovery is
    settling; the single survivor ends up owning every partition."""
    cfg = chaos_cfg(
        seed, faults=FaultPlan.parse(["crash:0@5s", "crash:2@7.5s"])
    )
    result = JoinSystem(cfg).run()
    dead = {slave_node_id(0), slave_node_id(2)}
    assert result.degraded
    assert {f["slave"] for f in result.faults} == dead
    owners = result.master["partition_owners"]
    assert sorted(owners) == list(range(cfg.npart))
    assert set(owners.values()) == {slave_node_id(1)}


def test_crash_at_reorg_boundary_saturated_no_false_positive():
    """Regression: a crash landing exactly on a reorg boundary, on a
    saturated adaptive config, must yield exactly one failure record.

    The adopting survivor's join loop holds the partition lock for a
    whole bounded pass (~one dist_epoch of CPU at saturation), so if
    adoption acks queued behind it the master's ack timeout would
    declare the busy-but-live survivor dead too.  Acks for adopted
    partitions are therefore sent before the lock-protected installs.
    """
    cfg = (
        SystemConfig.paper_defaults()
        .scaled(0.02)
        .with_(
            rate=3500.0,
            num_slaves=2,
            b_skew=0.8,
            npart=12,
            adaptive_declustering=True,
            faults=FaultPlan.parse(["crash:1@20s"]),
        )
    )
    result = JoinSystem(cfg).run()
    victim = slave_node_id(1)
    survivor = slave_node_id(0)
    assert result.degraded
    assert [f["slave"] for f in result.faults] == [victim]
    assert result.master["dead_slaves"] == [victim]
    assert result.faults[0]["recovery_latency"] is not None
    owners = result.master["partition_owners"]
    assert sorted(owners) == list(range(cfg.npart))
    assert set(owners.values()) == {survivor}
    assert result.outputs > 0


def test_crash_near_run_end_stays_unrecovered_but_completes():
    """A failure with no epoch left to recover in still terminates
    cleanly — degraded, with the failure recorded as unrecovered."""
    cfg = chaos_cfg(SEEDS[0], faults=FaultPlan.parse(["crash:1@13.9s"]))
    result = JoinSystem(cfg).run()
    assert result.degraded
    assert result.faults[0]["recovery_latency"] is None
    assert result.recovery_latencies == []


@pytest.mark.parametrize(
    "reorg_epoch, when",
    [(4.0, 3.0), (8.0, 2.5)],
    ids=["detected-at-reorg", "recovery-round"],
)
def test_no_survivor_leaves_every_failure_unrecovered(reorg_epoch, when):
    """Every active slave dies in one round.  Whether the deaths are
    handled by a reorganization round or by a recovery round, nothing
    is recovered: each record names its partitions as lost, no
    recovery latency is measured and no recovery event is traced."""
    cfg = chaos_cfg(
        SEEDS[0],
        reorg_epoch=reorg_epoch,
        replication="checkpoint+log",
        faults=FaultPlan.parse([f"crash:{i}@{when}s" for i in range(3)]),
        obs=ObservabilityConfig(trace_memory=True),
    )
    result = JoinSystem(cfg).run()
    assert len(result.faults) == 3 and result.degraded
    for fault in result.faults:
        assert fault["recovered_at"] is None
        assert fault["unrecovered_at_halt"]
        assert fault["lost_pids"] == fault["pids"]
    assert result.recovery_latencies == []
    assert result.trace is not None
    assert not [r for r in result.trace if r["kind"] in ("recovery", "restore")]
