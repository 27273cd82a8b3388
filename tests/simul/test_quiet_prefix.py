"""The quiet prefix: how many back-to-back work units one scheduled
event may stand for (``SimRuntime.cpu_units`` over
``Simulator.quiet_until`` / ``timeout_at``)."""

import numpy as np
import pytest

from repro.runtime.sim import SimRuntime
from repro.simul.kernel import Simulator


@pytest.fixture
def rt(sim):
    return SimRuntime(sim)


class TestCpuUnits:
    """``SimRuntime.cpu_units``: the quiet prefix of a run of units."""

    COSTS = np.array([0.1, 0.2, 0.30000000000000004, 0.05, 0.7])

    @staticmethod
    def chained(start, costs):
        """End times of *costs* awaited one ``cpu`` at a time."""
        sim = Simulator(start_time=start)
        rt, ends = SimRuntime(sim), []

        def proc():
            for cost in costs:
                yield rt.cpu(cost)
                ends.append(rt.now())

        rt.spawn(proc())
        sim.run(None)
        return ends

    def drive(self, sim, rt, costs, until=float("inf")):
        """Await *costs* through ``cpu_units``; the prefixes taken."""
        prefixes = []

        def proc():
            lo = 0
            while lo < len(costs):
                ends = yield rt.cpu_units(costs[lo:], until)
                assert rt.now() == ends[-1]
                prefixes.append(ends.tolist())
                lo += len(ends)

        rt.spawn(proc())
        return prefixes

    def test_whole_run_in_one_event_when_nothing_is_queued(self):
        sim = Simulator(start_time=0.3)
        rt = SimRuntime(sim)
        prefixes = self.drive(sim, rt, self.COSTS)
        sim.run(None)
        # One prefix, and its emit times are the floats a chain of
        # per-unit timeouts reaches.
        assert prefixes == [self.chained(0.3, self.COSTS)]

    def test_prefix_ends_strictly_before_the_next_event(self, sim, rt):
        ends = self.chained(0.0, self.COSTS)
        sim.timeout_at(ends[2])  # someone else's event, as unit 2 ends
        prefixes = self.drive(sim, rt, self.COSTS)
        sim.run(None)
        # Unit 2 ends *at* the queued event, so it is not in the quiet
        # prefix: it is scheduled alone and the FIFO serials order it
        # after the event that was queued first.
        assert prefixes == [ends[:2], ends[2:3], ends[3:]]

    def test_tie_is_broken_by_fifo_as_for_a_lone_cpu(self, sim, rt):
        order = []
        ends = self.chained(0.0, self.COSTS)
        sim.timeout_at(ends[0]).add_callback(lambda ev: order.append("other"))

        def proc():
            got = yield rt.cpu_units(self.COSTS)
            order.append(("units", got.tolist()))

        rt.spawn(proc())
        sim.run(until=ends[0])
        assert order == ["other", ("units", ends[:1])]

    def test_never_fewer_than_one_unit(self, sim, rt):
        prefixes = self.drive(sim, rt, self.COSTS[:2])
        sim.timeout(0.0)  # still queued, for this very instant, when asked
        sim.run(None)
        assert [len(p) for p in prefixes] == [1, 1]
        assert sum(prefixes, []) == self.chained(0.0, self.COSTS[:2])

    def test_until_cuts_like_an_event(self, sim, rt):
        ends = self.chained(0.0, self.COSTS)
        prefixes = self.drive(sim, rt, self.COSTS, until=ends[1] + 1e-9)
        sim.run(None)
        assert prefixes[0] == ends[:2]

    def test_numeric_horizon_bounds_the_prefix(self, sim, rt):
        ends = self.chained(0.0, self.COSTS)
        prefixes = self.drive(sim, rt, self.COSTS)
        sim.run(until=ends[2] + 1e-9)
        # Units 0..2 end before the horizon; unit 3 is scheduled past it
        # and, like a lone cpu(), never fires inside this run().
        assert prefixes == [ends[:3]]

    def test_zero_cost_units_end_now(self, sim, rt):
        prefixes = self.drive(sim, rt, np.zeros(3))
        sim.run(None)
        assert prefixes == [[0.0, 0.0, 0.0]]
