"""A partition-group's run as columnar window storage: commit/expire
semantics, growth, and a list-model property test.

The run keeps ``(run key, ts, seq)`` columns in run-key order; a
stream's window, read back through a state export, comes out in
timestamp order."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition_group import JoinGeometry, PartitionGroup
from tests.conftest import commit_rows


def make_group():
    return PartitionGroup(
        0,
        JoinGeometry(
            tuples_per_block=4,
            block_bytes=256,
            theta_bytes=768,
            window_seconds=10.0,
            fine_tuning=False,
            tuple_bytes=64,
        ),
    )


def append_n(group, ts, sid=0):
    ts = np.asarray(ts, dtype=float)
    commit_rows(group, sid, ts, np.zeros(len(ts), dtype=np.int64), np.arange(len(ts)))


def stored_ts(group, sid=0):
    """Stream *sid*'s window timestamps, as a state export lists them."""
    (mini,) = group.snapshot_state().groups
    return mini.streams[sid][0].ts.tolist()


class TestAppendExpire:
    def test_roundtrip(self):
        group = make_group()
        append_n(group, [1.0, 2.0, 3.0])
        assert stored_ts(group) == [1.0, 2.0, 3.0]
        assert group.n_tuples == 3

    def test_equal_timestamps_allowed(self):
        group = make_group()
        append_n(group, [5.0])
        append_n(group, [5.0])
        assert group.n_tuples == 2

    def test_expire_before(self):
        group = make_group()
        append_n(group, [1.0, 2.0, 3.0, 4.0])
        assert group.expire_before(2.5) == 2
        assert stored_ts(group) == [3.0, 4.0]

    def test_expire_exact_boundary_keeps_cutoff(self):
        group = make_group()
        append_n(group, [1.0, 2.0, 3.0])
        group.expire_before(2.0)  # strictly-less-than semantics
        assert stored_ts(group) == [2.0, 3.0]

    def test_expire_everything_resets(self):
        group = make_group()
        append_n(group, [1.0, 2.0])
        group.expire_before(10.0)
        assert group.n_tuples == 0
        assert group.total_bytes == 0
        append_n(group, [0.5])
        assert stored_ts(group) == [0.5]

    def test_pop_all(self):
        group = make_group()
        append_n(group, [1.0, 2.0])
        state = group.extract_state()
        assert state.n_tuples == 2
        assert group.n_tuples == 0

    def test_snapshot_copies(self):
        group = make_group()
        append_n(group, [1.0], sid=1)
        snap = group.snapshot_state()
        append_n(group, [2.0], sid=1)
        (mini,) = snap.groups
        committed, _fresh = mini.streams[1]
        assert len(committed) == 1
        assert committed.stream[0] == 1
        assert group.n_tuples == 2


class TestGrowth:
    def test_growth_beyond_initial_capacity(self):
        group = make_group()
        for i in range(1000):
            append_n(group, [float(i)])
        assert group.n_tuples == 1000
        assert stored_ts(group)[:3] == [0.0, 1.0, 2.0]

    def test_interleaved_growth_and_expiry(self):
        group = make_group()
        for i in range(2000):
            append_n(group, [float(i)])
            if i % 7 == 0:
                group.expire_before(float(i) - 100.0)
        ts = stored_ts(group)
        assert np.all(np.diff(ts) >= 0)
        assert ts[0] >= 1899 - 100
        assert group.total_bytes == group.bytes_used


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(1, 5)),
            st.tuples(st.just("expire"), st.floats(0, 1)),
        ),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_soa_matches_list_model(ops):
    """The run behaves like a plain sorted list under arbitrary
    interleavings of commits (with increasing timestamps) and expiry."""
    group = make_group()
    model: list[float] = []
    clock = 0.0
    for op, arg in ops:
        if op == "append":
            ts = [clock + i * 0.25 for i in range(int(arg))]
            clock = ts[-1]
            append_n(group, ts)
            model.extend(ts)
        else:
            cutoff = clock * float(arg)
            group.expire_before(cutoff)
            model = [x for x in model if x >= cutoff]
        assert stored_ts(group) == model
