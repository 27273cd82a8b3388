"""The wall backends' start barrier and the modeled t=0 it fixes.

No fork here: the launcher's barrier runs against control connections
over socketpairs whose node ends the test writes, a node's side
against a scripted one.
"""

import select
import selectors
import socket
import threading
import time

import pytest

from repro.runtime.process import ControlConn, ProcessBackend, await_start
from repro.runtime.wall import WallRuntime


class RecordingControl(ControlConn):
    """The launcher's end of a node's control: records what the barrier
    sends, and whether any node's messages were still unread when it
    did."""

    def __init__(self, sock, launcher_ends) -> None:
        super().__init__(sock)
        self.launcher_ends = launcher_ends
        self.sent: list[tuple[object, bool]] = []

    def send(self, obj) -> None:
        unread, _, _ = select.select(self.launcher_ends, [], [], 0)
        self.sent.append((obj, bool(unread)))


def launcher_and_nodes(n):
    """``n`` control socketpairs: the launcher's recording controls,
    registered on one selector, and the nodes' ends."""
    pairs = [socket.socketpair() for _ in range(n)]
    ends = [launcher for launcher, _ in pairs]
    controls = {nid: RecordingControl(ends[nid], ends) for nid in range(n)}
    sel = selectors.DefaultSelector()
    for nid, control in controls.items():
        sel.register(control.sock, selectors.EVENT_READ, (nid, control))
    nodes = {nid: ControlConn(node) for nid, (_, node) in enumerate(pairs)}
    return controls, sel, nodes


class ScriptedControl:
    """A node's control connection that answers with one message."""

    def __init__(self, msg) -> None:
        self.msg = msg

    def recv(self, timeout=None):
        return self.msg


class TestLauncherBarrier:
    def test_origin_is_the_last_ready_and_shared_by_local_nodes(self):
        controls, sel, nodes = launcher_and_nodes(4)
        local = {0, 1, 2}
        for nid in (0, 1, 2):
            nodes[nid].send(("ready",))
        arrived = []

        def last_ready() -> None:
            time.sleep(0.05)
            arrived.append(time.monotonic())
            nodes[3].send(("ready",))

        late = threading.Thread(target=last_ready)
        late.start()
        origin = ProcessBackend()._start_barrier(controls, sel, local)
        returned = time.monotonic()
        late.join()

        # t=0 is the moment the last "ready" arrived: not before it,
        # and not in the future either (no grace to wait out).
        assert arrived[0] <= origin <= returned
        for nid, control in controls.items():
            [(msg, unread)] = control.sent
            # Sent only once every "ready" was read.
            assert not unread
            # Every local node gets the one origin; a node elsewhere
            # gets None.
            assert msg == ("start", origin if nid in local else None)

    def test_a_node_error_before_ready_aborts_the_barrier(self):
        controls, sel, nodes = launcher_and_nodes(2)
        nodes[0].send(("ready",))
        nodes[1].send(("error", None, "boom"))
        with pytest.raises(RuntimeError, match="node 1 failed"):
            ProcessBackend()._start_barrier(controls, sel, {0, 1})
        assert all(not control.sent for control in controls.values())


class TestNodeSide:
    def test_local_node_takes_the_shared_origin(self):
        assert await_start(ScriptedControl(("start", 123.25))) == 123.25

    def test_remote_node_anchors_at_its_receipt_of_start(self):
        before = time.monotonic()
        origin = await_start(ScriptedControl(("start", None)))
        assert before <= origin <= time.monotonic()

    def test_anything_but_start_is_a_protocol_error(self):
        with pytest.raises(RuntimeError, match="expected the start barrier"):
            await_start(ScriptedControl(("result", {})))


class TestWallRuntimeOrigin:
    @staticmethod
    def _first_reading(rt: WallRuntime) -> float:
        seen = []

        def node():
            seen.append(rt.now())
            yield rt.sleep(0.0)

        rt.spawn(node())
        rt.run(5.0)
        return seen[0]

    def test_unset_origin_is_fixed_at_the_first_spawn(self):
        rt = WallRuntime(time_scale=0.01)
        time.sleep(0.1)  # "building the cluster": 10 modeled seconds
        assert rt.now() >= 9.0
        # ...none of which the run spends: it starts at t=0.
        assert self._first_reading(rt) < 5.0

    def test_rebased_origin_is_kept_by_the_first_spawn(self):
        rt = WallRuntime(time_scale=0.01)
        rt.rebase(time.monotonic() - 0.1)
        assert self._first_reading(rt) >= 9.0
