"""The discrete-event kernel: ordering, clocks, run() modes."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simul.kernel import Simulator


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_timeout_advances_clock(self, sim):
        sim.timeout(3.0)
        sim.run(None)
        assert sim.now == 3.0

    def test_run_until_number_advances_even_without_events(self, sim):
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_run_until_past_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.run(until=1.0)


class TestOrdering:
    def test_timeouts_fire_in_time_order(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.timeout(delay).add_callback(
                lambda ev, d=delay: order.append(d)
            )
        sim.run(None)
        assert order == [1.0, 2.0, 3.0]

    def test_fifo_among_simultaneous_events(self, sim):
        order = []
        for tag in range(5):
            sim.timeout(1.0).add_callback(lambda ev, t=tag: order.append(t))
        sim.run(None)
        assert order == [0, 1, 2, 3, 4]

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(2.0)
        assert sim.peek() == 2.0

    def test_step_on_empty_queue_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()


class TestRunUntilEvent:
    def test_returns_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(1.0)
            return "done"

        result = sim.run(until=sim.process(proc(sim)))
        assert result == "done"

    def test_raises_on_failed_event(self, sim):
        event = sim.event()
        event.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(until=event)

    def test_deadlock_detection(self, sim):
        def blocked(sim):
            yield sim.event()  # never triggered

        process = sim.process(blocked(sim))
        with pytest.raises(DeadlockError):
            sim.run(until=process)

    def test_run_until_number_leaves_future_events_queued(self, sim):
        fired = []
        sim.timeout(10.0).add_callback(lambda ev: fired.append(1))
        sim.run(until=5.0)
        assert not fired
        sim.run(None)
        assert fired


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace_run():
            sim = Simulator()
            log = []

            def worker(sim, name, period):
                while sim.now < 10.0:
                    yield sim.timeout(period)
                    log.append((round(sim.now, 9), name))

            sim.process(worker(sim, "a", 0.7))
            sim.process(worker(sim, "b", 1.1))
            sim.run(None)
            return log

        assert trace_run() == trace_run()


class TestAbsoluteScheduling:
    """``timeout_at``: an instant computed elsewhere is met to the bit."""

    def test_fires_exactly_at_the_given_time(self):
        # now + (at - now) != at for these floats: the delay-based
        # schedule drifts by an ulp, the absolute one does not.
        now, at = 0.2, 0.9
        assert now + (at - now) != at
        sim = Simulator(start_time=now)
        fired = []
        sim.timeout_at(at, "v").add_callback(lambda ev: fired.append((sim.now, ev.value)))
        sim.run(None)
        assert fired == [(at, "v")]

    def test_matches_a_chain_of_relative_timeouts(self):
        delays = [0.1, 0.2, 0.30000000000000004, 1e-9, 0.7]
        chained = Simulator(start_time=0.3)

        def chain():
            for delay in delays:
                yield chained.timeout(delay)

        chained.process(chain())
        chained.run(None)

        direct = Simulator(start_time=0.3)
        at = direct.now
        for delay in delays:
            at = at + delay  # the sum the chain performs, add by add
        direct.timeout_at(at)
        direct.run(None)
        assert direct.now == chained.now

    def test_past_instant_rejected(self, sim):
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.timeout_at(4.0)

    def test_now_is_allowed_and_queues_behind_earlier_events(self, sim):
        order = []
        sim.timeout(0.0).add_callback(lambda ev: order.append("first"))
        sim.timeout_at(0.0).add_callback(lambda ev: order.append("second"))
        sim.run(None)
        assert order == ["first", "second"]

    def test_succeed_at_schedules_like_timeout_at(self, sim):
        event = sim.event().succeed("x", at=2.5)
        assert sim.peek() == 2.5
        assert sim.run(until=event) == "x"
        assert sim.now == 2.5


class TestQuietUntil:
    """How far the running process may go before anyone can look."""

    def test_empty_queue_is_quiet_forever(self, sim):
        assert sim.peek() == float("inf")
        assert sim.quiet_until() == float("inf")

    def test_next_queued_event_bounds_it(self, sim):
        sim.timeout(4.0)
        sim.timeout(2.0)
        assert sim.quiet_until() == 2.0

    def test_numeric_horizon_bounds_it_while_running(self, sim):
        seen = []

        def looker():
            yield sim.timeout(1.0)
            seen.append(sim.quiet_until())  # nothing else queued

        sim.process(looker())
        sim.run(until=3.0)
        assert seen == [3.0]
        # The horizon belongs to that run() only.
        assert sim.quiet_until() == float("inf")

    def test_event_before_the_horizon_wins(self, sim):
        seen = []

        def looker():
            yield sim.timeout(1.0)
            seen.append(sim.quiet_until())

        sim.process(looker())
        sim.timeout(2.0)
        sim.run(until=3.0)
        assert seen == [2.0]

    def test_horizon_is_reset_when_a_callback_raises(self, sim):
        def boom(_ev):
            raise RuntimeError("boom")

        sim.timeout(1.0).add_callback(boom)
        with pytest.raises(RuntimeError):
            sim.run(until=3.0)
        assert sim.quiet_until() == float("inf")
