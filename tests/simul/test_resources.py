"""The FIFO store and the mutex resource."""

import pytest

from repro.errors import SimulationError
from repro.simul.resources import Resource, Store


def drive(sim, gen):
    return sim.process(gen)


class TestStore:
    def test_fifo_order(self, sim):
        store = Store(sim)
        got = []

        def consumer(sim, store):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        for i in range(3):
            store.put(i)
        drive(sim, consumer(sim, store))
        sim.run(None)
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer(sim, store):
            got.append((yield store.get()))

        def producer(sim, store):
            yield sim.timeout(5.0)
            yield store.put("late")

        drive(sim, consumer(sim, store))
        drive(sim, producer(sim, store))
        sim.run(None)
        assert got == ["late"]
        assert sim.now == 5.0

    def test_len(self, sim):
        store = Store(sim)
        store.put("x")
        assert len(store) == 1


class TestResource:
    def test_mutual_exclusion(self, sim):
        resource = Resource(sim)
        timeline = []

        def worker(sim, name, hold):
            yield resource.acquire()
            timeline.append((name, "in", sim.now))
            yield sim.timeout(hold)
            timeline.append((name, "out", sim.now))
            resource.release()

        drive(sim, worker(sim, "a", 2.0))
        drive(sim, worker(sim, "b", 1.0))
        sim.run(None)
        assert timeline == [
            ("a", "in", 0.0),
            ("a", "out", 2.0),
            ("b", "in", 2.0),
            ("b", "out", 3.0),
        ]

    def test_release_idle_raises(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim).release()
