"""The wall-clock backend: the same node generators on real threads."""

import time

import pytest

from repro.runtime.thread import ThreadRuntime


class TestThreadRuntime:
    def test_sleep_and_now(self):
        rt = ThreadRuntime(time_scale=0.02)  # 50x faster than real time
        t0 = rt.now()
        rt.sleep(1.0).run()  # one virtual second = 20 ms wall
        assert rt.now() - t0 >= 0.9

    def test_spawn_and_join(self):
        rt = ThreadRuntime(time_scale=0.01)
        log = []

        def node():
            yield rt.sleep(0.5)
            log.append("done")

        handle = rt.spawn(node(), name="n")
        handle.join(timeout=5.0)
        assert log == ["done"]
        assert not handle.is_alive

    def test_node_errors_surface_on_join(self):
        rt = ThreadRuntime(time_scale=0.01)

        def bad():
            yield rt.sleep(0.1)
            raise ValueError("boom")

        handle = rt.spawn(bad())
        with pytest.raises(ValueError, match="boom"):
            handle.join(timeout=5.0)

    def test_yielding_garbage_is_reported(self):
        rt = ThreadRuntime(time_scale=0.01)

        def bad():
            yield 42

        handle = rt.spawn(bad())
        with pytest.raises(TypeError):
            handle.join(timeout=5.0)

    def test_locks_and_queues(self):
        rt = ThreadRuntime(time_scale=0.01)
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
        rt.join_all(timeout=10.0)
        assert order == [0, 1, 2]

    def test_kill_wakes_a_thread_blocked_on_a_queue(self):
        """A crash-killed node thread waiting on its (now producer-less)
        work queue ends, and its generator is never resumed."""
        rt = ThreadRuntime(time_scale=0.01)
        queue = rt.make_queue()
        resumed = []

        def waiter():
            resumed.append((yield queue.get()))

        handle = rt.spawn(waiter())
        time.sleep(0.05)  # let it block in get()
        handle.kill("crash")
        handle.join(timeout=5.0)
        assert not handle.is_alive
        assert resumed == []

    def test_kill_wakes_a_thread_blocked_on_a_lock_a_killed_holder_kept(self):
        """A node killed while one thread holds its state lock (mid
        join pass) and another waits for it: both threads end."""
        rt = ThreadRuntime(time_scale=0.01)
        lock = rt.make_lock()
        entered = []

        def holder():
            yield lock.acquire()
            yield rt.sleep(10.0)  # killed here; never releases
            lock.release()

        def waiter():
            yield lock.acquire()
            entered.append(True)

        held = rt.spawn(holder())
        time.sleep(0.02)  # let it take the lock
        blocked = rt.spawn(waiter())
        time.sleep(0.02)  # let it block in acquire()
        held.kill("crash")
        blocked.kill("crash")
        held.join(timeout=5.0)
        blocked.join(timeout=5.0)
        assert not held.is_alive and not blocked.is_alive
        assert entered == []

    def test_killed_thread_stops_at_its_next_step(self):
        rt = ThreadRuntime(time_scale=0.01)
        steps = []

        def ticker():
            while True:
                steps.append(rt.now())
                yield rt.sleep(1.0)

        handle = rt.spawn(ticker())
        time.sleep(0.05)
        handle.kill("crash")
        handle.join(timeout=5.0)
        assert not handle.is_alive
        ticks = len(steps)
        time.sleep(0.05)
        assert len(steps) == ticks

