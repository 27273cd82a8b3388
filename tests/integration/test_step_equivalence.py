"""Retiring a step a prefix at a time is retiring it a unit at a time.

The join loop awaits a step's costs in quiet prefixes: as many units as
end strictly before the next queued simulated event, in one event
(``SimRuntime.cpu_units``).  A prefix of one is the old unit-at-a-time
loop, and it is the *same* loop — so a run in which every prefix is one
unit must be indistinguishable, to the last bit of every counter and
every byte of the trace, from the ordinary run of the same seed.

``UnitAtATime`` exists only here: a runtime whose quiet horizon is
``-inf``.  Production code has no such switch.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.config import ObservabilityConfig
from repro.core.system import JoinSystem
from repro.faults.plan import FaultPlan
from repro.runtime.sim import SimRuntime

from tests.faults.test_lossless_recovery import lossless_cfg


class UnitAtATime(SimRuntime):
    """Never sees a quiet stretch: every prefix is a single unit."""

    prefix_lengths: list[int] = []

    def quiet_horizon(self) -> float:
        return float("-inf")

    def cpu_units(self, costs, until=float("inf")):
        event = super().cpu_units(costs, until)
        self.prefix_lengths.append(len(event.value))
        return event


class Counting(SimRuntime):
    """The production runtime, counting what it is asked and takes."""

    asked: list[int] = []
    taken: list[int] = []

    def cpu_units(self, costs, until=float("inf")):
        event = super().cpu_units(costs, until)
        self.asked.append(len(costs))
        self.taken.append(len(event.value))
        return event


def scenario(seed: int):
    """Paper cost model at a rate that keeps the surviving slave busy
    (comm slots, sampler ticks and the crash all fall inside steps),
    adaptive declustering, replication, one slave crash, and a slowdown
    of the slave that carries the load whose edges land mid-pass."""
    cfg = lossless_cfg(
        seed,
        rate=1200.0,
        adaptive_declustering=True,
        faults=FaultPlan.parse(["crash:1@5s", "slow:2x3@6.5-9.25s"]),
    )
    return dataclasses.replace(
        cfg,
        obs=ObservabilityConfig(trace_memory=True, sample_period=0.5),
    )


def run(monkeypatch, runtime_class, seed):
    monkeypatch.setattr("repro.core.system.SimRuntime", runtime_class)
    return JoinSystem(scenario(seed), collect_pairs=True).run()


def trace_bytes(result) -> bytes:
    lines = [json.dumps(rec, sort_keys=True, default=str) for rec in result.trace]
    return "\n".join(lines).encode()


@pytest.mark.parametrize("seed", [1, 2])
def test_prefix_of_one_is_the_same_run(monkeypatch, seed):
    UnitAtATime.prefix_lengths = []
    Counting.asked, Counting.taken = [], []
    batched = run(monkeypatch, Counting, seed)
    single = run(monkeypatch, UnitAtATime, seed)

    # The comparison is worth something only if the two runs really
    # differ in how they were driven ...
    assert set(UnitAtATime.prefix_lengths) == {1}
    assert max(Counting.taken) > 1
    assert len(Counting.taken) < len(UnitAtATime.prefix_lengths)
    # ... and if other events did cut steps short in the ordinary run.
    assert any(t < a for t, a in zip(Counting.taken, Counting.asked))
    assert any(f["action"] == "slow" for f in batched.injected_faults)
    assert batched.faults and not batched.degraded

    assert batched.summary() == single.summary()
    assert batched.slaves == single.slaves
    assert batched.master == single.master
    assert batched.to_dict() == single.to_dict()
    assert batched.delays.snapshot() == single.delays.snapshot()
    assert batched.delays.total == single.delays.total
    assert batched.delays.histogram.tolist() == single.delays.histogram.tolist()
    assert batched.series == single.series
    assert batched.pairs.tolist() == single.pairs.tolist()
    assert trace_bytes(batched) == trace_bytes(single)
