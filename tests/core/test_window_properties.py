"""Property test of the head-block protocol on one mini-group's pair of
windows.

The paper's Section IV-D rules — fresh tuples join when the head block
fills or the buffer drains, fresh tuples of the opposite stream are
omitted, completeness is preserved — must together yield exactly-once
emission of every valid pair, for any interleaving of arrivals, block
boundaries and flush points.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition_group import JoinGeometry, PartitionGroup
from tests.conftest import brute_force_pairs, flush_head


@st.composite
def interleavings(draw):
    """A sequence of ops: (stream, ts-increment, key) appends plus
    explicit flush points."""
    n = draw(st.integers(1, 40))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["append", "append", "append", "flush"]))
        if kind == "append":
            ops.append(
                (
                    "append",
                    draw(st.integers(0, 1)),
                    draw(st.floats(0.0, 1.5)),
                    draw(st.integers(0, 4)),
                )
            )
        else:
            ops.append(("flush", draw(st.integers(0, 1)), None, None))
    return ops


@given(ops=interleavings(), tpb=st.integers(1, 5), window=st.floats(0.5, 30))
@settings(max_examples=150, deadline=None)
def test_head_block_protocol_exactly_once(ops, tpb, window):
    geometry = JoinGeometry(
        tuples_per_block=tpb,
        block_bytes=tpb * 64,
        theta_bytes=tpb * 64 * 3,
        window_seconds=window,
        fine_tuning=False,
        tuple_bytes=64,
    )
    group = PartitionGroup(0, geometry)
    clock = 0.0
    seqs = {0: 0, 1: 0}
    rows = {0: [], 1: []}
    heads = {0: [], 1: []}  # one mini-group: one head block per stream
    found = []

    def flush(sid):
        head, heads[sid] = heads[sid], []
        result = flush_head(group, sid, *zip(*head)) if head else None
        if result is not None and len(result.pairs):
            found.extend(map(tuple, result.pairs.tolist()))

    for op in ops:
        if op[0] == "append":
            _, sid, dt, key = op
            clock += dt
            if len(heads[sid]) == tpb:
                flush(sid)
            heads[sid].append((clock, key, seqs[sid]))
            rows[sid].append((clock, key, seqs[sid]))
            seqs[sid] += 1
        else:
            flush(op[1])

    # Final drain: flush both streams (buffer-empty rule).
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
    assert set(found) == expected
    assert len(found) == len(expected)  # exactly once, never twice
