"""The wall-clock runtime: the same node generators on the DES kernel,
paced by the wall clock."""

import time

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.runtime.wall import WallRuntime


def killer(rt, delay, *victims):
    """A process that crash-kills *victims* after *delay* modeled
    seconds, as the fault injector does."""
    yield rt.sleep(delay)
    for victim in victims:
        victim.kill("crash")


class TestWallRuntime:
    def test_sleep_and_now(self):
        rt = WallRuntime(time_scale=0.02)  # 50x faster than real time
        seen = []

        def node():
            t0 = rt.now()
            yield rt.sleep(1.0)  # one virtual second = 20 ms wall
            seen.append(rt.now() - t0)

        rt.spawn(node())
        rt.run(5.0)
        assert seen and seen[0] >= 1.0

    def test_waits_never_end_before_their_wall_instant(self):
        rt = WallRuntime(time_scale=0.01)
        late = []

        def node():
            yield rt.sleep_until(0.5)
            late.append(rt.now() - 0.5)
            units = yield rt.cpu_units(np.array([0.25, 0.25]))
            late.append(rt.now() - 1.0)
            # Every unit carries the instant the wait ended.
            assert units[0] == units[1] >= 1.0

        rt.spawn(node())
        rt.run(5.0)
        assert len(late) == 2 and min(late) >= 0.0

    def test_spawn_and_run_to_completion(self):
        rt = WallRuntime(time_scale=0.01)
        log = []

        def node():
            yield rt.sleep(0.5)
            log.append("done")

        handle = rt.spawn(node(), name="n")
        rt.run(5.0)
        assert log == ["done"]
        assert not handle.is_alive

    def test_run_ends_at_the_budget_with_the_process_alive(self):
        rt = WallRuntime(time_scale=0.01)

        def node():
            yield rt.sleep(1e6)

        handle = rt.spawn(node())
        t0 = time.monotonic()
        rt.run(0.05)
        assert 0.04 <= time.monotonic() - t0 < 5.0
        assert handle.is_alive

    def test_node_errors_surface_from_run(self):
        rt = WallRuntime(time_scale=0.01)

        def bad():
            yield rt.sleep(0.1)
            raise ValueError("boom")

        rt.spawn(bad())
        with pytest.raises(ValueError, match="boom"):
            rt.run(5.0)

    def test_yielding_garbage_is_reported(self):
        rt = WallRuntime(time_scale=0.01)

        def bad():
            yield 42

        rt.spawn(bad())
        with pytest.raises(SimulationError, match="expected an Event"):
            rt.run(5.0)

    def test_locks_and_queues(self):
        rt = WallRuntime(time_scale=0.01)
        lock = rt.make_lock()
        queue = rt.make_queue()
        order = []

        def producer():
            for i in range(3):
                yield queue.put(i)
                yield rt.sleep(0.05)

        def consumer():
            for _ in range(3):
                item = yield queue.get()
                yield lock.acquire()
                order.append(item)
                lock.release()

        rt.spawn(producer())
        rt.spawn(consumer())
        rt.run(10.0)
        assert order == [0, 1, 2]

    def test_kill_ends_a_process_blocked_on_a_queue(self):
        """A crash-killed process waiting on its (now producer-less)
        work queue ends, and its generator is never resumed."""
        rt = WallRuntime(time_scale=0.01)
        queue = rt.make_queue()
        resumed = []

        def waiter():
            resumed.append((yield queue.get()))

        handle = rt.spawn(waiter())
        rt.spawn(killer(rt, 1.0, handle))
        rt.run(5.0)
        assert not handle.is_alive
        assert resumed == []

    def test_kill_ends_a_process_blocked_on_a_lock_a_killed_holder_kept(self):
        """A node killed while one process holds its state lock (mid
        join pass) and another waits for it: both processes end."""
        rt = WallRuntime(time_scale=0.01)
        lock = rt.make_lock()
        entered = []

        def holder():
            yield lock.acquire()
            yield rt.sleep(10.0)  # killed here; never releases
            lock.release()

        def waiter():
            yield rt.sleep(0.5)  # the holder has taken the lock
            yield lock.acquire()
            entered.append(True)

        held = rt.spawn(holder())
        blocked = rt.spawn(waiter())
        rt.spawn(killer(rt, 1.0, held, blocked))
        rt.run(5.0)
        assert not held.is_alive and not blocked.is_alive
        assert entered == []

    def test_killed_process_stops_at_its_next_step(self):
        rt = WallRuntime(time_scale=0.01)
        steps = []

        def ticker():
            while True:
                steps.append(rt.now())
                yield rt.sleep_until(len(steps))

        def outlive():
            yield rt.sleep(6.0)  # keeps the loop turning after the kill

        handle = rt.spawn(ticker())
        rt.spawn(killer(rt, 2.5, handle))
        rt.spawn(outlive())
        rt.run(5.0)
        assert not handle.is_alive
        # Ticks at 0, 1 and 2, then nothing.
        assert len(steps) == 3
