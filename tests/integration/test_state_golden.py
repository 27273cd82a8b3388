"""Golden results of ten small seeded sim runs.

The simulated backend is deterministic per seed, so a change to how a
slave stores its window state — not to what the join computes or
charges — must leave every number a run reports where it was.  Each
scenario below records every per-slave snapshot field, every
``master.*`` counter, the merged production-delay statistics (count,
min, max, histogram, modeled mean and p99) and a digest of the joined
pair multiset.  Counts compare exactly, floats to 1e-12 relative.

The first four runs use a near-zero cost model (the steady run charges
expiry, so its cost is in the golden numbers too):

* ``fine_tuning`` — the arrival rate falls mid-run, so mini-groups
  split while it is high and merge once the window has drained;
* ``no_fine_tuning`` — the same kind of run with one mini-group per
  partition-group;
* ``steady`` — a short window that expires on every pass;
* ``faults`` — replication, adaptive declustering, partition moves and
  a slave crash restored at its backup, so window state is extracted,
  snapshotted and installed.

The last three pin the coordinator's control rounds, in the geometry of
``tests/faults/test_master_failover.py``:

* ``master_kill_reorg`` — the master dies inside a reorganization
  round, so the standby replays a fatal reorg round;
* ``master_kill_recovery`` — a slave dies, and the master dies in the
  recovery round that follows, after telling the standby its plan;
* ``recovery_round`` — replication off, one slave crash recovered at a
  plain epoch: its partition-groups are adopted empty and lost.

And one is the paper's own geometry at 2 % scale: ``paper_geometry`` —
Table I's ``npart=60``, cost model and fine tuning, 4 slaves at
3 000 tuples/s per stream, with a 12 s window that expires inside the
24 s run.

And two reach paths none of the others do:

* ``moves_spill`` — one slave ten times slower than the other, on the
  paper's cost model and with a memory limit: fault-free partition
  moves, and probes costed one unit at a time while state spills;
* ``three_streams`` — a three-way join, whose composite flushes probe
  and commit one head block at a time.

Regenerate only for a change that is *meant* to move a number, and say
so where the change is recorded::

    PYTHONPATH=src python tests/integration/test_state_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import typing as t
from pathlib import Path

import numpy as np
import pytest

from repro.config import CostModelConfig, SystemConfig
from repro.core.system import JoinSystem, RunResult
from repro.data.tuples import TupleBatch
from repro.faults.plan import FaultPlan
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer

GOLDEN = Path(__file__).with_name("state_golden.json")
REL_TOL = 1e-12

CHEAP = CostModelConfig(
    tuple_cost=1e-7,
    scan_byte_cost=1e-13,
    state_move_byte_cost=1e-12,
    expire_byte_cost=0.0,
)


def _config(**overrides: t.Any) -> SystemConfig:
    base: dict[str, t.Any] = dict(
        npart=8,
        rate=1000.0,
        num_slaves=2,
        run_seconds=16.0,
        warmup_seconds=4.0,
        window_seconds=6.0,
        reorg_epoch=4.0,
        key_domain=20_000,
        cost=CHEAP,
        seed=5,
    )
    base.update(overrides)
    return SystemConfig.paper_defaults().scaled(0.01).with_(**base)


def _falling_rate(cfg: SystemConfig, until: float, low_rate: float) -> TraceReplayer:
    """``cfg.rate`` up to *until*, then *low_rate*: windows shrink."""

    def trace(rng_seed: int, rate: float, t0: float, t1: float) -> TupleBatch:
        workload = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(rng_seed), rate, cfg.b_skew, cfg.key_domain
        )
        return workload.generate(t0, t1)

    high = trace(cfg.seed, cfg.rate, 0.0, until)
    low = trace(cfg.seed + 1, low_rate, until, cfg.run_seconds - 3 * cfg.dist_epoch)
    low = TupleBatch(low.ts, low.key, low.seq + len(high), low.stream)
    return TraceReplayer(TupleBatch.concat([high, low]))


def _failover(*faults: str, **overrides: t.Any) -> SystemConfig:
    """``test_master_failover.failover_cfg``'s geometry, seed 1."""
    base: dict[str, t.Any] = dict(
        npart=12,
        rate=400.0,
        num_slaves=3,
        run_seconds=16.0,
        warmup_seconds=6.0,
        window_seconds=3.0,
        reorg_epoch=4.0,
        seed=1,
        replication="checkpoint+log",
        standby=True,
        faults=FaultPlan.parse(list(faults)),
    )
    base.update(overrides)
    return SystemConfig.paper_defaults().scaled(0.01).with_(**base)


def scenarios() -> dict[str, tuple[SystemConfig, TraceReplayer | None]]:
    ft = _config(window_seconds=2.0, rate=1500.0)
    return {
        "fine_tuning": (ft, _falling_rate(ft, 6.0, 50.0)),
        "no_fine_tuning": (_config(fine_tuning=False), None),
        "steady": (
            _config(
                window_seconds=2.0,
                run_seconds=20.0,
                rate=2000.0,
                cost=CostModelConfig(
                    tuple_cost=1e-7,
                    scan_byte_cost=1e-13,
                    state_move_byte_cost=1e-12,
                    expire_byte_cost=1e-9,
                ),
            ),
            None,
        ),
        "faults": (
            _config(
                num_slaves=3,
                b_skew=0.8,
                key_domain=200_000,
                replication="checkpoint+log",
                adaptive_declustering=True,
                faults=FaultPlan.parse(["crash:1@7s"]),
            ),
            None,
        ),
        "master_kill_reorg": (_failover("crash:master@4.02s"), None),
        "master_kill_recovery": (
            _failover("crash:1@2.5s", "crash:master@4.5s", reorg_epoch=8.0),
            None,
        ),
        "recovery_round": (
            _failover(
                "crash:1@2.5s",
                reorg_epoch=8.0,
                replication="off",
                standby=False,
            ),
            None,
        ),
        "paper_geometry": (
            SystemConfig.paper_defaults().scaled(0.02).with_(rate=3000.0),
            None,
        ),
        "moves_spill": (
            _config(
                slave_speeds=(1.0, 0.1),
                cost=CostModelConfig(),
                slave_memory_bytes=200_000,
            ),
            None,
        ),
        "three_streams": (_config(n_streams=3, rate=400.0), None),
    }


def observe(result: RunResult) -> dict[str, t.Any]:
    """What a run reports, as plain JSON values."""
    delays = result.delays
    pairs = result.pairs
    if pairs is None or not len(pairs):
        pairs = np.empty((0, 2), dtype=np.int64)
    pairs = np.ascontiguousarray(
        pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))], dtype=np.int64
    )
    return {
        "slaves": result.slaves,
        "master": result.master,
        "delays": {
            "count": delays.count,
            "min": delays.minimum if delays.count else 0.0,
            "max": delays.maximum,
            "histogram": delays.histogram.tolist(),
        },
        "delay.modeled_mean_s": delays.mean,
        "delay.modeled_p99_s": delays.percentile(99),
        "pairs": {
            "count": len(pairs),
            "sha256": hashlib.sha256(pairs.tobytes()).hexdigest(),
        },
        "degraded": result.degraded,
    }


def run(name: str) -> dict[str, t.Any]:
    cfg, workload = scenarios()[name]
    result = JoinSystem(cfg, collect_pairs=True, workload=workload).run()
    return json.loads(json.dumps(observe(result)))


def _assert_close(got: t.Any, want: t.Any, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (
            where, got, want
        )
    else:
        assert got == want, (where, got, want)


@pytest.fixture(scope="module")
def golden() -> dict[str, t.Any]:
    return t.cast(dict[str, t.Any], json.loads(GOLDEN.read_text()))


@pytest.mark.parametrize("name", sorted(scenarios()))
def test_run_equals_golden(golden: dict[str, t.Any], name: str) -> None:
    _assert_close(run(name), golden[name], name)


def test_scenarios_reach_what_they_are_for(golden: dict[str, t.Any]) -> None:
    def total(name: str, field: str) -> int:
        return sum(s[field] for s in golden[name]["slaves"])

    assert total("fine_tuning", "splits") > 0
    assert total("fine_tuning", "merges") > 0
    assert total("no_fine_tuning", "splits") == 0
    assert total("steady", "splits") > 0
    assert sum(s["cpu_expire"] for s in golden["steady"]["slaves"]) > 0
    faults = golden["faults"]
    assert faults["master"]["moves_ordered"] > 0
    assert all(f["restored_pids"] for f in faults["master"]["failures"])
    assert faults["master"]["failures"] and not faults["degraded"]
    assert all(golden[name]["pairs"]["count"] > 0 for name in golden)
    paper = scenarios()["paper_geometry"][0]
    assert paper.npart == 60 and paper.fine_tuning and paper.num_slaves == 4
    assert paper.cost == SystemConfig.paper_defaults().scaled(0.02).cost
    assert total("paper_geometry", "splits") > 0
    assert all(s["cpu_expire"] > 0 for s in golden["paper_geometry"]["slaves"])
    spill = golden["moves_spill"]
    assert spill["master"]["moves_ordered"] > 0 and not spill["master"]["failures"]
    assert all(s["disk_bytes_read"] > 0 for s in spill["slaves"])
    assert total("moves_spill", "splits") > 0
    assert scenarios()["three_streams"][0].n_streams == 3

    def is_reorg(name: str, k: int) -> bool:
        cfg = scenarios()[name][0]
        return (k + 1) % round(cfg.reorg_epoch / cfg.dist_epoch) == 0

    def records(name: str) -> tuple[list[dict[str, t.Any]], dict[str, t.Any]]:
        failures = golden[name]["master"]["failures"]
        (master,) = [f for f in failures if f["where"] == "standby"]
        return [f for f in failures if f["where"] != "standby"], master

    # The standby's fatal round is a reorganization round.
    slaves, master = records("master_kill_reorg")
    assert not slaves and is_reorg("master_kill_reorg", master["epoch"])
    assert not golden["master_kill_reorg"]["degraded"]
    # The fatal round is the recovery round of a slave detected dead one
    # round earlier; the acting master finishes that recovery, losslessly.
    (slave,), master = records("master_kill_recovery")
    assert not is_reorg("master_kill_recovery", master["epoch"])
    assert slave["epoch"] == master["epoch"] - 1
    assert slave["recovered_at"] > master["detected_at"]
    assert slave["restored_pids"] and not slave["lost_pids"]
    assert not golden["master_kill_recovery"]["degraded"]
    # A recovery round (the round after detection is a plain epoch)
    # adopts every lost partition-group empty.
    (slave,) = golden["recovery_round"]["master"]["failures"]
    assert not is_reorg("recovery_round", slave["epoch"] + 1)
    assert slave["recovered_at"] is not None
    assert slave["lost_pids"] == slave["pids"] and not slave["restored_pids"]
    assert golden["recovery_round"]["degraded"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(
        json.dumps({name: run(name) for name in sorted(scenarios())}, indent=1)
        + "\n"
    )
