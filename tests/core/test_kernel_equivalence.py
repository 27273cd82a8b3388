"""Property-based equivalence wall around the probe path.

``PartitionGroup.probe`` — one key-sorted run per stream over all the
group's mini-groups — must produce the *identical* joined-pair multiset
as the naive O(n*m) oracle: for any committed contents, any probe
batch, any interleaving of appends, flushes, watermark-driven expiry,
splits and merges.  The strategies deliberately cover duplicate keys,
all-equal keys, empty windows and batches, unsorted probe batches, and
the exact ``|a.ts - b.ts| == W`` inclusive boundary (integer timestamps
and integer windows make exact-distance collisions common rather than
measure-zero).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import directory_hash, run_key
from repro.core.partition_group import JoinGeometry, PartitionGroup
from tests.conftest import brute_force_pairs, commit_rows, flush_head, tune


def group_for(tpb=4, window=10.0, fine_tuning=True):
    return PartitionGroup(
        0,
        JoinGeometry(
            tuples_per_block=tpb,
            block_bytes=tpb * 64,
            theta_bytes=tpb * 64 * 3,
            window_seconds=window,
            fine_tuning=fine_tuning,
            tuple_bytes=64,
            n_streams=2,
        ),
    )


# ---------------------------------------------------------------------------
# Group-level: one probe batch against arbitrary committed contents.
# ---------------------------------------------------------------------------
@st.composite
def probe_case(draw):
    n_keys = draw(st.integers(1, 9))  # 1 => all keys equal
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
    """probe == O(n*m) oracle, including after expiry and with the
    committed tuples spread over several mini-groups by splits (the
    run is one per group; the split only re-labels it)."""
    window_s, c_ts, c_key, p_ts, p_key, cutoff = case
    group = group_for(window=window_s)
    c_ts = np.array(c_ts, dtype=np.float64)
    c_key = np.array(c_key, dtype=np.int64)
    c_seq = np.arange(len(c_ts), dtype=np.int64)
    commit_rows(group, 0, c_ts, c_key, c_seq)
    tune(group)
    if cutoff is not None:
        group.expire_before(float(cutoff))
        live = c_ts >= cutoff
        c_ts, c_key, c_seq = c_ts[live], c_key[live], c_seq[live]
        tune(group)
    p_ts = np.array(p_ts, dtype=np.float64)
    p_key = np.array(p_key, dtype=np.int64)
    p_seq = np.arange(1000, 1000 + len(p_ts), dtype=np.int64)

    result = group.probe(0, p_ts, run_key(p_key), p_seq, collect_pairs=True)

    expected = brute_force_pairs(p_ts, p_key, p_seq, c_ts, c_key, c_seq, window_s)
    got = [tuple(r) for r in result.pairs.tolist()]
    assert sorted(got) == sorted(expected)  # multiset equality
    assert result.n_pairs == len(expected)
    # The offsets cut the rows back into one slice per probe tuple.
    assert result.offsets[0] == 0 and result.offsets[-1] == result.n_pairs
    for i, seq in enumerate(p_seq):
        rows = result.pairs[result.offsets[i] : result.offsets[i + 1]]
        assert set(rows[:, 0].tolist()) <= {int(seq)}


# ---------------------------------------------------------------------------
# Protocol-level: arbitrary interleavings of appends, flushes, watermark
# expiry, splits and merges on one partition-group.
# ---------------------------------------------------------------------------
@st.composite
def interleavings(draw):
    n_keys = draw(st.integers(1, 9))
    n = draw(st.integers(1, 60))
    ops = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ["append", "append", "append", "append", "flush", "expire", "tune"]
            )
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
            ops.append((kind, None, None, None))
    return ops


@given(ops=interleavings(), tpb=st.integers(1, 4), window=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_exactly_once_under_interleaving(ops, tpb, window):
    """Every valid pair is emitted exactly once under arbitrary
    append/flush/expire/split/merge interleavings.

    Expiry uses the join module's watermark rule (cutoff = oldest
    pending tuple minus W), which is exactly what makes dropping
    committed tuples lossless — so the full-trace brute force stays the
    correct oracle even though windows shrink mid-run.
    """
    window = float(window)
    group = group_for(tpb=tpb, window=window)
    clock = 0.0
    seqs = {0: 0, 1: 0}
    rows = {0: [], 1: []}
    found = []
    heads = {}  # (pattern, sid) -> unflushed (ts, key, seq) rows

    def flush_mini(pattern, sid):
        head = heads.pop((pattern, sid), [])
        if not head:
            return
        pairs = flush_head(group, sid, *zip(*head)).pairs
        if len(pairs):
            if sid == 1:
                pairs = pairs[:, ::-1]
            found.extend(map(tuple, pairs.tolist()))

    def flush(sid):
        for pattern, k in list(heads):
            if k == sid:
                flush_mini(pattern, sid)

    for op in ops:
        if op[0] == "append":
            _, sid, dt, key = op
            clock += dt
            g = int(directory_hash(np.array([key]))[0])
            pattern = group.directory.bucket_for(g).pattern
            if len(heads.get((pattern, sid), ())) == tpb:
                flush_mini(pattern, sid)
            heads.setdefault((pattern, sid), []).append((clock, key, seqs[sid]))
            rows[sid].append((clock, key, seqs[sid]))
            seqs[sid] += 1
        elif op[0] == "flush":
            flush(op[1])
        elif op[0] == "tune":
            tune(group, busy={pattern for pattern, _sid in heads})
        else:
            oldest = min((r[0] for h in heads.values() for r in h), default=clock)
            group.expire_before(oldest - window)

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
def probe(group, ts, key, seq):
    """Stream-0 matches of probe tuples given by their join keys."""
    return group.probe(0, ts, run_key(key), seq, collect_pairs=True)


def one_window_group(window=10.0):
    """A group that stays one mini-group; ``commit_rows`` fills it."""
    return group_for(window=window, fine_tuning=False)


class TestEdgeCases:
    def test_exact_window_boundary_is_inclusive(self):
        group = one_window_group()
        commit_rows(group, 0, [0.0, 0.0, 5.0], [7, 7, 7], [0, 1, 2])
        # |10.0 - 0.0| == W exactly: both ts=0 tuples must match.
        r = probe(
            group,
            np.array([10.0]),
            np.array([7], dtype=np.int64),
            np.array([100], dtype=np.int64),
        )
        assert sorted(map(tuple, r.pairs.tolist())) == [
            (100, 0), (100, 1), (100, 2),
        ]
        # One epsilon beyond: only the duplicate pair at ts=5 remains.
        r = probe(
            group,
            np.array([np.nextafter(10.0, 11.0)]),
            np.array([7], dtype=np.int64),
            np.array([100], dtype=np.int64),
        )
        assert sorted(map(tuple, r.pairs.tolist())) == [(100, 2)]

    def test_empty_window_and_empty_batch(self):
        group = one_window_group()
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        r = probe(
            group, np.array([1.0]), np.array([3], dtype=np.int64),
            np.array([0], dtype=np.int64),
        )
        assert r.n_pairs == 0 and len(r.pairs) == 0
        assert r.offsets.tolist() == [0, 0]
        commit_rows(group, 0, [1.0], [3], [0])
        r = probe(group, empty_f, empty_i, empty_i)
        assert r.n_pairs == 0 and len(r.pairs) == 0
        assert r.offsets.tolist() == [0]

    def test_unsorted_probe_batch(self):
        """Probe batches need not be timestamp-sorted (post-move
        shipments)."""
        group = one_window_group(window=5.0)
        commit_rows(group, 0, [0.0, 4.0, 9.0], [1, 1, 1], [0, 1, 2])
        p_ts = np.array([9.5, 0.5, 20.0])
        p_key = np.array([1, 1, 1], dtype=np.int64)
        p_seq = np.array([100, 101, 102], dtype=np.int64)
        r = probe(group, p_ts, p_key, p_seq)
        expected = brute_force_pairs(
            p_ts, p_key, p_seq,
            np.array([0.0, 4.0, 9.0]), p_key, np.array([0, 1, 2]), 5.0,
        )
        assert sorted(map(tuple, r.pairs.tolist())) == sorted(expected)
        assert r.offsets.tolist() == [0, 1, 3, 3]

    def test_probe_after_direct_soa_append(self):
        """Splits and merges copy no tuple and tell the run nothing: a
        mini-group is a range of it, so the run answers the same
        whatever mini-groups its tuples are filed under."""
        group = group_for(tpb=1, window=10.0)
        group.sorted_run(0)  # build derived state while the group is empty
        keys = np.arange(12, dtype=np.int64)
        commit_rows(group, 0, np.arange(12.0), keys, keys)
        probe_rows = (np.full(12, 11.5), keys, keys + 100)
        before = probe(group, *probe_rows)
        tune(group)
        assert group.n_mini_groups > 1
        after = probe(group, *probe_rows)
        assert after.pairs.tolist() == before.pairs.tolist()
        assert before.pairs.tolist() == [[k + 100, k] for k in range(2, 12)]

    def test_warm_then_probe_equals_cold_probe(self):
        """A run rebuilt from an exported state (migration, crash
        restore) must behave as one that observed every mutation live."""
        ts = np.array([0.0, 1.0, 2.0, 8.0])
        key = np.array([4, 4, 9, 4], dtype=np.int64)
        seq = np.arange(4, dtype=np.int64)
        live = one_window_group()
        commit_rows(live, 0, ts, key, seq)
        live.sorted_run(0)
        live.expire_before(1.5)

        restored = one_window_group()
        restored.install_state(live.snapshot_state())

        p = (
            np.array([5.0]),
            np.array([4], dtype=np.int64),
            np.array([100], dtype=np.int64),
        )
        a = probe(live, *p)
        b = probe(restored, *p)
        assert sorted(map(tuple, a.pairs.tolist())) == sorted(
            map(tuple, b.pairs.tolist())
        ) == [(100, 3)]
        for mine, theirs in zip(live.sorted_run(0), restored.sorted_run(0)):
            np.testing.assert_array_equal(mine, theirs)
