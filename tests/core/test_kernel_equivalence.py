"""Property-based equivalence wall around the probe path.

``StreamWindow.probe`` must produce the *identical* joined-pair
multiset as the naive O(n*m) oracle — for any committed contents, any
probe batch, any interleaving of appends, flushes and watermark-driven
expiry.  The strategies deliberately cover duplicate keys, all-equal
keys, empty windows and batches, unsorted probe batches, and the exact
``|a.ts - b.ts| == W`` inclusive boundary (integer timestamps and
integer windows make exact-distance collisions common rather than
measure-zero).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition_group import JoinGeometry, MiniGroup
from repro.core.window import StreamWindow
from tests.conftest import brute_force_pairs


def geometry_for(tpb=4, window=10.0, fine_tuning=False):
    return JoinGeometry(
        tuples_per_block=tpb,
        block_bytes=tpb * 64,
        theta_bytes=tpb * 64 * 3,
        window_seconds=window,
        fine_tuning=fine_tuning,
        tuple_bytes=64,
        n_streams=2,
    )


# ---------------------------------------------------------------------------
# Window-level: one probe batch against arbitrary committed contents.
# ---------------------------------------------------------------------------
@st.composite
def probe_case(draw):
    n_keys = draw(st.integers(1, 5))  # 1 => all keys equal
    keys = st.integers(0, n_keys - 1)
    # Integer timestamps + integer window => |dt| == W happens often.
    window = float(draw(st.integers(0, 8)))
    n_committed = draw(st.integers(0, 40))
    committed_ts = sorted(
        draw(
            st.lists(
                st.integers(0, 25), min_size=n_committed, max_size=n_committed
            )
        )
    )
    committed_key = draw(
        st.lists(keys, min_size=n_committed, max_size=n_committed)
    )
    n_probe = draw(st.integers(0, 15))
    probe_ts = draw(
        st.lists(st.integers(0, 25), min_size=n_probe, max_size=n_probe)
    )  # deliberately NOT sorted
    probe_key = draw(st.lists(keys, min_size=n_probe, max_size=n_probe))
    cutoff = draw(st.one_of(st.none(), st.integers(0, 25)))
    return window, committed_ts, committed_key, probe_ts, probe_key, cutoff


@given(case=probe_case())
@settings(max_examples=120, deadline=None)
def test_probe_matches_brute_force(case):
    """probe == O(n*m) oracle, including after expiry and with
    window contents appended directly to the SoA (the split/merge path
    that bypasses the head-block protocol)."""
    window_s, c_ts, c_key, p_ts, p_key, cutoff = case
    win = StreamWindow(0, 4, 256)
    c_ts = np.array(c_ts, dtype=np.float64)
    c_key = np.array(c_key, dtype=np.int64)
    c_seq = np.arange(len(c_ts), dtype=np.int64)
    win.committed.append(c_ts, c_key, c_seq)
    if cutoff is not None:
        win.expire_before(float(cutoff))
        live = c_ts >= cutoff
        c_ts, c_key, c_seq = c_ts[live], c_key[live], c_seq[live]
    p_ts = np.array(p_ts, dtype=np.float64)
    p_key = np.array(p_key, dtype=np.int64)
    p_seq = np.arange(1000, 1000 + len(p_ts), dtype=np.int64)

    result = win.probe(p_ts, p_key, p_seq, window_s, collect_pairs=True)

    expected = brute_force_pairs(p_ts, p_key, p_seq, c_ts, c_key, c_seq, window_s)
    got = [tuple(r) for r in result.pairs.tolist()]
    assert sorted(got) == sorted(expected)  # multiset equality
    assert result.n_pairs == len(expected)


# ---------------------------------------------------------------------------
# Protocol-level: arbitrary interleavings of appends, flushes and
# watermark expiry on one mini-group.
# ---------------------------------------------------------------------------
@st.composite
def interleavings(draw):
    n_keys = draw(st.integers(1, 5))
    n = draw(st.integers(1, 40))
    ops = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(["append", "append", "append", "flush", "expire"])
        )
        if kind == "append":
            ops.append(
                (
                    "append",
                    draw(st.integers(0, 1)),
                    float(draw(st.integers(0, 3))),
                    draw(st.integers(0, n_keys - 1)),
                )
            )
        elif kind == "flush":
            ops.append(("flush", draw(st.integers(0, 1)), None, None))
        else:
            ops.append(("expire", None, None, None))
    return ops


@given(ops=interleavings(), tpb=st.integers(1, 4), window=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_exactly_once_under_interleaving(ops, tpb, window):
    """Every valid pair is emitted exactly once under arbitrary
    append/flush/expire interleavings.

    Expiry uses the join module's watermark rule (cutoff = oldest
    pending tuple minus W), which is exactly what makes dropping
    committed tuples lossless — so the full-trace brute force stays the
    correct oracle even though windows shrink mid-run.
    """
    window = float(window)
    mini = MiniGroup(geometry_for(tpb=tpb, window=window))
    clock = 0.0
    seqs = {0: 0, 1: 0}
    rows = {0: [], 1: []}
    found = []
    pending = {0: [], 1: []}  # unflushed (fresh) tuple timestamps

    def flush(sid):
        pairs = mini.flush_stream(sid, collect_pairs=True).pairs
        if pairs is not None and len(pairs):
            if sid == 1:
                pairs = pairs[:, ::-1]
            found.extend(map(tuple, pairs.tolist()))
        pending[sid].clear()

    for op in ops:
        if op[0] == "append":
            _, sid, dt, key = op
            clock += dt
            if mini.windows[sid].head_space() == 0:
                flush(sid)
            mini.windows[sid].append_fresh(
                np.array([clock]),
                np.array([key], dtype=np.int64),
                np.array([seqs[sid]], dtype=np.int64),
            )
            rows[sid].append((clock, key, seqs[sid]))
            pending[sid].append(clock)
            seqs[sid] += 1
        elif op[0] == "flush":
            flush(op[1])
        else:
            oldest = min(pending[0] + pending[1], default=clock)
            mini.expire_before(oldest - window)

    flush(0)
    flush(1)

    expected = brute_force_pairs(
        np.array([r[0] for r in rows[0]]),
        np.array([r[1] for r in rows[0]]),
        np.array([r[2] for r in rows[0]]),
        np.array([r[0] for r in rows[1]]),
        np.array([r[1] for r in rows[1]]),
        np.array([r[2] for r in rows[1]]),
        window,
    )
    assert set(found) == expected, "diverged from oracle"
    assert len(found) == len(expected), "duplicated pairs"


# ---------------------------------------------------------------------------
# Deterministic edge cases.
# ---------------------------------------------------------------------------
class TestEdgeCases:
    def test_exact_window_boundary_is_inclusive(self):
        win = StreamWindow(0, 4, 256)
        win.committed.append(
            np.array([0.0, 0.0, 5.0]),
            np.array([7, 7, 7], dtype=np.int64),
            np.array([0, 1, 2], dtype=np.int64),
        )
        # |10.0 - 0.0| == W exactly: both ts=0 tuples must match.
        r = win.probe(
            np.array([10.0]),
            np.array([7], dtype=np.int64),
            np.array([100], dtype=np.int64),
            10.0,
            collect_pairs=True,
        )
        assert sorted(map(tuple, r.pairs.tolist())) == [
            (100, 0), (100, 1), (100, 2),
        ]
        # One epsilon beyond: only the duplicate pair at ts=5 remains.
        r = win.probe(
            np.array([np.nextafter(10.0, 11.0)]),
            np.array([7], dtype=np.int64),
            np.array([100], dtype=np.int64),
            10.0,
            collect_pairs=True,
        )
        assert sorted(map(tuple, r.pairs.tolist())) == [(100, 2)]

    def test_empty_window_and_empty_batch(self):
        win = StreamWindow(0, 4, 256)
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        r = win.probe(
            np.array([1.0]), np.array([3], dtype=np.int64),
            np.array([0], dtype=np.int64), 10.0, collect_pairs=True,
        )
        assert r.n_pairs == 0 and len(r.pairs) == 0
        win.committed.append(
            np.array([1.0]), np.array([3], dtype=np.int64),
            np.array([0], dtype=np.int64),
        )
        r = win.probe(empty_f, empty_i, empty_i, 10.0, collect_pairs=True)
        assert r.n_pairs == 0 and len(r.pairs) == 0

    def test_unsorted_probe_batch(self):
        """Probe batches need not be timestamp-sorted (post-move
        shipments)."""
        win = StreamWindow(0, 4, 256)
        win.committed.append(
            np.array([0.0, 4.0, 9.0]),
            np.array([1, 1, 1], dtype=np.int64),
            np.array([0, 1, 2], dtype=np.int64),
        )
        p_ts = np.array([9.5, 0.5, 20.0])
        p_key = np.array([1, 1, 1], dtype=np.int64)
        p_seq = np.array([100, 101, 102], dtype=np.int64)
        r = win.probe(p_ts, p_key, p_seq, 5.0, collect_pairs=True)
        expected = brute_force_pairs(
            p_ts, p_key, p_seq,
            np.array([0.0, 4.0, 9.0]), p_key, np.array([0, 1, 2]), 5.0,
        )
        assert sorted(map(tuple, r.pairs.tolist())) == sorted(expected)

    def test_probe_after_direct_soa_append(self):
        """split_by_bit/merged/install_committed write straight to the
        SoA; the run must pick the tuples up without any hook."""
        win = StreamWindow(0, 4, 256)
        win.sorted_view()  # build derived state while the window is empty
        win.committed.append(
            np.array([1.0, 2.0]),
            np.array([5, 6], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
        )
        r = win.probe(
            np.array([2.5, 2.5]),
            np.array([5, 6], dtype=np.int64),
            np.array([100, 101], dtype=np.int64),
            10.0,
            collect_pairs=True,
        )
        assert sorted(map(tuple, r.pairs.tolist())) == [(100, 0), (101, 1)]

    def test_warm_then_probe_equals_cold_probe(self):
        """A run rebuilt from the SoA (crash restore) must behave as
        one that observed every mutation live."""
        ts = np.array([0.0, 1.0, 2.0, 8.0])
        key = np.array([4, 4, 9, 4], dtype=np.int64)
        seq = np.arange(4, dtype=np.int64)
        live = StreamWindow(0, 4, 256)
        live.committed.append(ts, key, seq)
        live.sorted_view()
        live.expire_before(1.5)

        restored = StreamWindow(0, 4, 256)
        keep = ts >= 1.5
        restored.committed.append(ts[keep], key[keep], seq[keep])
        restored.sorted_view()

        p = (
            np.array([5.0]),
            np.array([4], dtype=np.int64),
            np.array([100], dtype=np.int64),
        )
        a = live.probe(*p, 10.0, collect_pairs=True)
        b = restored.probe(*p, 10.0, collect_pairs=True)
        assert sorted(map(tuple, a.pairs.tolist())) == sorted(
            map(tuple, b.pairs.tolist())
        ) == [(100, 3)]
