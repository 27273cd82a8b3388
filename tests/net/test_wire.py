"""Round-trip property suite for the process backend's wire codec.

Every :mod:`repro.core.protocol` message type (plus the payload
structures that ride inside them) must encode/decode to an equal value,
and malformed frames must raise :class:`~repro.errors.WireError` —
never return a partially decoded message.
"""

from __future__ import annotations

import dataclasses
import struct
import sys
import typing as t

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import DelayStats
from repro.core.partition_group import GroupState, PartitionGroupState
from repro.core.protocol import (
    Activate,
    Checkpoint,
    Halt,
    LoadReport,
    MoveAck,
    MoveDirective,
    Rejoin,
    ReorgOrder,
    Replicate,
    ResultReport,
    Restore,
    Shipment,
    SlaveSync,
    StandbyPlan,
    StandbySync,
    StateTransfer,
    TakeOver,
)
from repro.core.subgroups import SlotSchedule
from repro.data.tuples import TupleBatch
from repro.errors import WireError
from repro.net import wire
from repro.net.wire import MAGIC, WIRE_VERSION, decode_message, encode_message

# -- strategies ---------------------------------------------------------------

epochs = st.integers(min_value=0, max_value=2**31)
node_ids = st.integers(min_value=0, max_value=64)
pids = st.integers(min_value=0, max_value=2**20)
times = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
fractions = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def tuple_batches(draw, max_size=64):
    n = draw(st.integers(min_value=0, max_value=max_size))
    ts = np.sort(
        np.asarray(
            draw(
                st.lists(times, min_size=n, max_size=n)
            ),
            dtype=np.float64,
        )
    )
    key = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=10**7),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    seq = np.arange(n, dtype=np.int64)
    stream = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=3), min_size=n, max_size=n
            )
        ),
        dtype=np.uint8,
    )
    return TupleBatch(ts, key, seq, stream)


@st.composite
def delay_stats(draw):
    stats = DelayStats()
    delays = draw(
        st.lists(
            st.floats(
                min_value=0.0,
                max_value=1e4,
                allow_nan=False,
                allow_infinity=False,
            ),
            max_size=32,
        )
    )
    if delays:
        stats.record(np.asarray(delays, dtype=np.float64))
    return stats


schedules = st.one_of(
    st.none(),
    st.builds(
        SlotSchedule,
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.01, max_value=60.0, allow_nan=False),
    ),
)

moves = st.builds(MoveDirective, pids, node_ids, node_ids)


@st.composite
def group_states(draw):
    n_streams = draw(st.integers(min_value=2, max_value=3))
    streams = tuple(
        (draw(tuple_batches(max_size=8)), draw(tuple_batches(max_size=8)))
        for _ in range(n_streams)
    )
    return GroupState(
        pattern=draw(st.integers(min_value=0, max_value=2**16)),
        local_depth=draw(st.integers(min_value=0, max_value=16)),
        streams=streams,
    )


@st.composite
def partition_states(draw):
    return PartitionGroupState(
        pid=draw(pids),
        global_depth=draw(st.integers(min_value=0, max_value=16)),
        groups=tuple(
            draw(st.lists(group_states(), min_size=0, max_size=3))
        ),
    )


load_reports = st.builds(LoadReport, epochs, fractions, fractions, pids)


@st.composite
def pair_matrices(draw, max_rows=8):
    n = draw(st.integers(min_value=0, max_value=max_rows))
    flat = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**40),
            min_size=2 * n,
            max_size=2 * n,
        )
    )
    return np.asarray(flat, dtype=np.int64).reshape(-1, 2)


maybe_pairs = st.one_of(st.none(), pair_matrices())

checkpoints = st.builds(
    Checkpoint, pids, epochs, partition_states(), tuple_batches(), maybe_pairs
)


@st.composite
def log_entries(draw, max_size=3):
    n = draw(st.integers(min_value=0, max_value=max_size))
    return tuple(
        (draw(pids), draw(epochs), draw(tuple_batches(max_size=8)))
        for _ in range(n)
    )


replicates = st.builds(
    Replicate,
    epochs,
    log_entries(),
    st.lists(pids, max_size=4).map(tuple),
    st.lists(checkpoints, max_size=2).map(tuple),
)


@st.composite
def standby_ops(draw, max_size=4):
    """Round-boundary op logs: int-typed slots must hold ints (the
    codec narrows them back from f64 on decode)."""
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_size))):
        kind = draw(st.sampled_from(["gen", "drain", "remap"]))
        if kind == "gen":
            out.append((kind, draw(times), draw(times)))
        elif kind == "drain":
            out.append((kind, draw(node_ids), draw(times)))
        else:
            out.append((kind, draw(pids), draw(node_ids)))
    return tuple(out)


@st.composite
def banked_pairs(draw, max_size=3):
    """StandbySync pair chunks: ``(slave, pid, epoch, rows)``."""
    return tuple(
        (draw(node_ids), draw(pids), draw(epochs), draw(pair_matrices()))
        for _ in range(draw(st.integers(min_value=0, max_value=max_size)))
    )


@st.composite
def rejoin_pairs(draw, max_size=3):
    """Rejoin pair chunks: ``(pid, epoch, rows)``."""
    return tuple(
        (draw(pids), draw(epochs), draw(pair_matrices()))
        for _ in range(draw(st.integers(min_value=0, max_value=max_size)))
    )


standby_syncs = st.builds(
    StandbySync,
    epochs,
    standby_ops(),
    st.lists(node_ids, max_size=6).map(tuple),
    st.lists(node_ids, max_size=4).map(tuple),
    times,
    st.lists(st.tuples(pids, node_ids), max_size=4).map(tuple),
    st.lists(pids, max_size=4).map(tuple),
    st.lists(st.tuples(node_ids, replicates), max_size=2).map(tuple),
    st.sampled_from(
        ["[]", '[{"slave": 3, "epoch": 2, "recovery_latency": null}]']
    ),
    banked_pairs(),
)

standby_plans = st.builds(
    StandbyPlan,
    epochs,
    st.lists(moves, max_size=4).map(tuple),
    st.lists(node_ids, max_size=4).map(tuple),
    st.lists(node_ids, max_size=4).map(tuple),
    st.lists(st.tuples(pids, node_ids), max_size=4).map(tuple),
    st.lists(pids, max_size=4).map(tuple),
)

take_overs = st.builds(
    TakeOver,
    epochs,
    times,
    schedules,
    st.booleans(),
    st.integers(min_value=-1, max_value=2**31),
    st.lists(moves, max_size=4).map(tuple),
)

rejoins = st.builds(
    Rejoin,
    epochs,
    st.lists(pids, max_size=6).map(tuple),
    st.integers(min_value=-1, max_value=2**31),
    st.integers(min_value=-1, max_value=2**31),
    st.booleans(),
    rejoin_pairs(),
)


messages = st.one_of(
    st.builds(Shipment, epochs, times, times, tuple_batches()),
    load_reports,
    st.builds(
        ReorgOrder,
        epochs,
        st.lists(moves, max_size=4).map(tuple),
        st.lists(moves, max_size=4).map(tuple),
        st.booleans(),
        times,
        schedules,
        st.lists(pids, max_size=4).map(tuple),
        st.lists(pids, max_size=4).map(tuple),
    ),
    st.builds(StateTransfer, pids, partition_states(), tuple_batches()),
    st.builds(
        MoveAck,
        pids,
        st.sampled_from(["supplier", "consumer", "adopt", "restore"]),
        maybe_pairs,
    ),
    st.builds(Activate, epochs, times, schedules),
    st.builds(ResultReport, epochs, delay_stats()),
    st.builds(Halt, epochs),
    st.builds(SlaveSync, epochs, load_reports),
    checkpoints,
    replicates,
    st.builds(Restore, epochs, st.lists(pids, max_size=6).map(tuple)),
    standby_syncs,
    standby_plans,
    take_overs,
    rejoins,
)


# -- equality helpers ---------------------------------------------------------


def batches_equal(a: TupleBatch, b: TupleBatch) -> bool:
    return (
        np.array_equal(a.ts, b.ts)
        and np.array_equal(a.key, b.key)
        and np.array_equal(a.seq, b.seq)
        and np.array_equal(a.stream, b.stream)
        and a.ts.dtype == b.ts.dtype
        and a.key.dtype == b.key.dtype
        and a.seq.dtype == b.seq.dtype
        and a.stream.dtype == b.stream.dtype
    )


def stats_equal(a: DelayStats, b: DelayStats) -> bool:
    return (
        a.count == b.count
        and a.total == b.total
        and a.minimum == b.minimum
        and a.maximum == b.maximum
        and np.array_equal(a.histogram, b.histogram)
    )


def states_equal(a: PartitionGroupState, b: PartitionGroupState) -> bool:
    if (a.pid, a.global_depth, len(a.groups)) != (
        b.pid,
        b.global_depth,
        len(b.groups),
    ):
        return False
    for ga, gb in zip(a.groups, b.groups):
        if (ga.pattern, ga.local_depth, len(ga.streams)) != (
            gb.pattern,
            gb.local_depth,
            len(gb.streams),
        ):
            return False
        for (ca, fa), (cb, fb) in zip(ga.streams, gb.streams):
            if not (batches_equal(ca, cb) and batches_equal(fa, fb)):
                return False
    return True


def pairs_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(np.asarray(a), np.asarray(b))


def checkpoints_equal(a: Checkpoint, b: Checkpoint) -> bool:
    return (
        (a.pid, a.epoch) == (b.pid, b.epoch)
        and states_equal(a.state, b.state)
        and batches_equal(a.buffered, b.buffered)
        and pairs_equal(a.pairs, b.pairs)
    )


def messages_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Checkpoint):
        return checkpoints_equal(a, b)
    if isinstance(a, Replicate):
        return (
            a.epoch == b.epoch
            and a.drops == b.drops
            and len(a.entries) == len(b.entries)
            and all(
                ea[:2] == eb[:2] and batches_equal(ea[2], eb[2])
                for ea, eb in zip(a.entries, b.entries)
            )
            and len(a.checkpoints) == len(b.checkpoints)
            and all(
                checkpoints_equal(ca, cb)
                for ca, cb in zip(a.checkpoints, b.checkpoints)
            )
        )
    if isinstance(a, MoveAck):
        return (a.pid, a.role) == (b.pid, b.role) and pairs_equal(
            a.pairs, b.pairs
        )
    if isinstance(a, StandbySync):
        return (
            (a.epoch, a.ops, a.active, a.dead, a.next_gen_time)
            == (b.epoch, b.ops, b.active, b.dead, b.next_gen_time)
            and (a.backup_of, a.covered, a.failures_json)
            == (b.backup_of, b.covered, b.failures_json)
            and len(a.pending) == len(b.pending)
            and all(
                na == nb and messages_equal(ra, rb)
                for (na, ra), (nb, rb) in zip(a.pending, b.pending)
            )
            and len(a.pairs) == len(b.pairs)
            and all(
                pa[:3] == pb[:3] and pairs_equal(pa[3], pb[3])
                for pa, pb in zip(a.pairs, b.pairs)
            )
        )
    if isinstance(a, Rejoin):
        return (
            (a.epoch, a.owned_pids, a.active)
            == (b.epoch, b.owned_pids, b.active)
            and (a.last_shipment_epoch, a.last_order_epoch)
            == (b.last_shipment_epoch, b.last_order_epoch)
            and len(a.pairs) == len(b.pairs)
            and all(
                pa[:2] == pb[:2] and pairs_equal(pa[2], pb[2])
                for pa, pb in zip(a.pairs, b.pairs)
            )
        )
    if isinstance(a, Shipment):
        return (
            (a.epoch, a.epoch_start, a.epoch_end)
            == (b.epoch, b.epoch_start, b.epoch_end)
            and batches_equal(a.batch, b.batch)
        )
    if isinstance(a, StateTransfer):
        return (
            a.pid == b.pid
            and states_equal(a.state, b.state)
            and batches_equal(a.buffered, b.buffered)
        )
    if isinstance(a, ResultReport):
        return a.epoch == b.epoch and stats_equal(a.stats, b.stats)
    # Remaining types hold only hashable scalars/tuples: dataclass
    # equality is exact.
    return a == b


# -- round-trip properties ----------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(message=messages)
    def test_every_message_type_round_trips(self, message):
        decoded = decode_message(encode_message(message))
        assert messages_equal(message, decoded)

    def test_empty_batch_round_trips(self):
        shipment = Shipment(0, 0.0, 2.0, TupleBatch.empty())
        decoded = decode_message(encode_message(shipment))
        assert len(decoded.batch) == 0
        assert batches_equal(shipment.batch, decoded.batch)

    def test_single_tuple_batch_round_trips(self):
        batch = TupleBatch.build([1.5], [42], stream=1)
        decoded = decode_message(encode_message(Shipment(3, 1.0, 2.0, batch)))
        assert batches_equal(batch, decoded.batch)

    def test_multi_block_batch_round_trips(self):
        # Larger than one 4 KiB block of 64 B tuples (64 tuples/block).
        n = 1000
        batch = TupleBatch.build(
            np.linspace(0.0, 10.0, n),
            np.arange(n) * 7 % 10_000,
            stream=np.arange(n) % 2,
        )
        decoded = decode_message(encode_message(Shipment(1, 0.0, 10.0, batch)))
        assert batches_equal(batch, decoded.batch)

    def test_empty_delay_stats_round_trips(self):
        # minimum is +inf before the first record; the codec must carry it.
        decoded = decode_message(encode_message(ResultReport(0, DelayStats())))
        assert decoded.stats.count == 0
        assert decoded.stats.minimum == float("inf")


# -- malformed frames ---------------------------------------------------------


class TestMalformed:
    def frame(self):
        return encode_message(
            Shipment(5, 0.0, 2.0, TupleBatch.build([1.0, 2.0], [3, 4]))
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncation_always_raises(self, data):
        frame = self.frame()
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(WireError):
            decode_message(frame[:cut])

    @settings(max_examples=300, deadline=None)
    @given(message=messages, data=st.data())
    def test_corrupted_body_decodes_or_raises_wireerror(self, message, data):
        # Overwrite 1-3 body bytes of any message: the codec answers
        # with a message or a WireError, never a stray exception (a
        # corrupted string field used to escape as UnicodeDecodeError).
        frame = bytearray(encode_message(message))
        offsets = st.integers(min_value=4, max_value=len(frame) - 1)
        hits = st.lists(
            st.tuples(offsets, st.integers(0, 255)), min_size=1, max_size=3
        )
        for offset, byte in data.draw(hits):
            frame[offset] = byte
        try:
            decode_message(bytes(frame))
        except WireError:
            pass

    def test_corrupted_string_field_raises_wireerror(self):
        frame = encode_message(MoveAck(7, "supplier"))
        at = frame.index(b"supplier")
        bad = frame[: at + 2] + b"\xff" + frame[at + 3 :]
        with pytest.raises(WireError, match="UTF-8"):
            decode_message(bad)

    def test_literal_code_out_of_range_raises_wireerror(self):
        frame = encode_message(StandbySync(1, ops=(("remap", 3, 4),)))
        # body: epoch (8), op count (4), then the op's one-byte kind code
        assert frame[4 + 8 + 4] == 2
        bad = frame[: 4 + 8 + 4] + b"\x03" + frame[4 + 8 + 4 + 1 :]
        with pytest.raises(WireError, match="StandbySync.ops"):
            decode_message(bad)

    def test_unknown_op_kind_rejected_on_encode(self):
        with pytest.raises(WireError, match="'rewind'"):
            encode_message(StandbySync(1, ops=(("rewind", 1.0, 2.0),)))

    def test_bad_magic(self):
        frame = self.frame()
        with pytest.raises(WireError, match="magic"):
            decode_message(b"XX" + frame[2:])

    def test_unsupported_version(self):
        frame = self.frame()
        bad = MAGIC + bytes([WIRE_VERSION + 1]) + frame[3:]
        with pytest.raises(WireError, match="version"):
            decode_message(bad)

    def test_unknown_tag(self):
        frame = self.frame()
        bad = frame[:3] + bytes([250]) + frame[4:]
        with pytest.raises(WireError, match="tag"):
            decode_message(bad)

    def test_trailing_bytes(self):
        with pytest.raises(WireError, match="trailing"):
            decode_message(self.frame() + b"\x00")

    def test_non_wire_object_rejected(self):
        with pytest.raises(WireError, match="not a wire message"):
            encode_message({"not": "a message"})


# -- the tag ledger and the derivation ----------------------------------------
#
# What lint rule PROTO002 used to police statically is now enforced by
# ``wire._build_tags`` when the module is imported; these cases hand it
# broken tables directly.


LEDGER_ROWS = [row for rows in wire._TAG_LEDGER.values() for row in rows]


def ledger_without(dropped):
    return {
        version: tuple(row for row in rows if row != dropped)
        for version, rows in wire._TAG_LEDGER.items()
    }


class TestLedger:
    def test_the_real_ledger_is_the_protocol(self):
        assert WIRE_VERSION == 4 == max(wire._TAG_LEDGER)
        assert len(LEDGER_ROWS) == 16
        tagged = {tag: tp.__name__ for tag, (tp, *_rule) in wire._TAGS.items()}
        assert tagged == dict(LEDGER_ROWS)

    @pytest.mark.parametrize("row", LEDGER_ROWS, ids=lambda row: row[1])
    def test_dropping_any_row_names_the_uncovered_message(self, row):
        with pytest.raises(ValueError, match=rf"no wire tag .*'{row[1]}'"):
            wire._build_tags(ledger_without(row))

    def test_duplicate_tag_fails(self):
        ledger = ledger_without((16, "Rejoin")) | {5: ((15, "Rejoin"),)}
        with pytest.raises(ValueError, match="tag 15 .*above every earlier"):
            wire._build_tags(ledger)

    def test_tag_below_an_earlier_versions_tags_fails(self):
        # Tag 12 is free here, but a new version may only append.
        ledger = ledger_without((12, "Restore")) | {5: ((12, "Restore"),)}
        with pytest.raises(ValueError, match="tag 12 .*above every earlier"):
            wire._build_tags(ledger)

    def test_tag_must_fit_the_header_byte(self):
        ledger = ledger_without((16, "Rejoin")) | {5: ((256, "Rejoin"),)}
        with pytest.raises(ValueError, match="tag 256"):
            wire._build_tags(ledger)

    @pytest.mark.parametrize(
        "name", ["MoveDirective", "Message", "CONTROL_BYTES", "Nope", "Halt"]
    )
    def test_row_naming_a_non_message_fails(self, name):
        # NamedTuple payload, the abstract base, a constant, an unknown
        # name, and a message that already has a tag.
        with pytest.raises(ValueError, match=f"names '{name}'"):
            wire._build_tags({**wire._TAG_LEDGER, 5: ((17, name),)})


class Inner(t.NamedTuple):
    kind: t.Literal["a", "b"]
    weight: float


@dataclasses.dataclass(frozen=True)
class Outer:
    """One field per composite rule (not a Message: it has no tag)."""

    flag: bool
    label: str
    maybe: Inner | None
    none: Inner | None
    runs: tuple[tuple[int, Inner], ...]


class Chunks(t.NamedTuple):
    chunks: tuple[tuple[int, np.ndarray], ...]


class Gauge(t.NamedTuple):
    """Nothing but scalars: one ``struct`` format."""

    epoch: int
    level: float
    armed: bool


def quoted_names(hint, where, seen):
    """Strings left inside *hint* when its nested quotes are not turned
    into forward references — which is what Python 3.10's
    ``get_type_hints`` does inside ``tuple[...]`` (gh-85542)."""
    if isinstance(hint, str):
        yield f"{where}: {hint!r}"
    elif isinstance(hint, type) and "__annotations__" in vars(hint):
        if hint not in seen:
            seen.add(hint)
            scope = vars(sys.modules[hint.__module__])
            for name, raw in vars(hint)["__annotations__"].items():
                field = eval(raw, scope) if isinstance(raw, str) else raw
                yield from quoted_names(field, f"{hint.__name__}.{name}", seen)
    elif t.get_origin(hint) not in (t.Literal, t.Annotated):
        for arg in t.get_args(hint):
            yield from quoted_names(arg, where, seen)


class TestDerivation:
    @pytest.mark.parametrize(
        "annotation", [dict[str, int], np.ndarray, t.Any, int | str, list[int]]
    )
    def test_annotation_without_a_rule_names_the_field(self, annotation):
        record = dataclasses.make_dataclass(
            "Probe", [("epoch", int), ("payload", annotation)]
        )
        with pytest.raises(TypeError, match=r"Probe\.payload: no wire rule"):
            wire._record(record)

    def test_nested_annotation_without_a_rule_names_the_field(self):
        with pytest.raises(TypeError, match=r"Chunks\.chunks: no wire rule"):
            wire._record(Chunks)

    def test_every_rule_lays_out_its_bytes(self):
        put, get = wire._record(Outer)
        value = Outer(
            True, "h\u00e9", Inner("b", 0.5), None, ((1, Inner("a", 2.0)),)
        )
        buf = bytearray()
        put(buf, value)
        assert get(wire._Reader(bytes(buf))) == value
        assert bytes(buf) == (
            b"\x01"  # flag
            b"\x00\x00\x00\x03h\xc3\xa9"  # label: length, UTF-8
            b"\x01\x01\x3f\xe0\x00\x00\x00\x00\x00\x00"  # present, "b", 0.5
            b"\x00"  # none: absent
            b"\x00\x00\x00\x01"  # runs: one item
            b"\x00\x00\x00\x00\x00\x00\x00\x01"  # 1
            b"\x00\x40\x00\x00\x00\x00\x00\x00\x00"  # "a", 2.0
        )

    def test_fixed_tuple_of_the_wrong_length_is_refused(self):
        with pytest.raises(ValueError):
            encode_message(StandbySync(1, ops=(("gen", 1.0),)))

    def test_a_run_of_scalars_is_one_struct(self):
        put, get = wire._record(Gauge)
        buf = bytearray()
        put(buf, Gauge(np.int64(7), 2, np.True_))
        assert bytes(buf) == struct.pack("!qdB", 7, 2.0, 1)
        decoded = get(wire._Reader(bytes(buf)))
        assert decoded == Gauge(7, 2.0, True)
        assert [type(item) for item in decoded] == [int, float, bool]
        with pytest.raises(struct.error):  # refused, not truncated
            put(bytearray(), Gauge(7.5, 2.0, True))

    def test_no_quoted_name_hides_inside_a_generic(self):
        # On 3.10 such a name reaches ``_derive`` as a plain ``str`` and
        # fails the import; 3.11+ resolves it, so look at the source.
        seen: set[type] = set()
        for _cls, _put, _get in wire._TAGS.values():
            assert not list(quoted_names(_cls, _cls.__name__, seen))
        assert list(quoted_names(tuple[tuple[int, "Halt"], ...], "X.y", seen))
