"""Event lifecycle and failure propagation."""

import pytest

from repro.errors import SimulationError


class TestEventLifecycle:
    def test_pending_until_triggered(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.value == 42

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_callback_after_processed_runs_immediately(self, sim):
        event = sim.event()
        event.succeed("x")
        sim.run(None)
        got = []
        event.add_callback(lambda ev: got.append(ev.value))
        assert got == ["x"]

    def test_delayed_succeed(self, sim):
        event = sim.event()
        event.succeed("later", delay=5.0)
        times = []
        event.add_callback(lambda ev: times.append(sim.now))
        sim.run(None)
        assert times == [5.0]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)
