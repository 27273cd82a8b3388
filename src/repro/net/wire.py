"""Versioned wire codec for the process backend.

The process backend runs master, slaves and collector as separate OS
processes, so every message of :mod:`repro.core.protocol` must cross a
real socket.  This module is the (de)serializer: a small, versioned
binary format — **not** pickle — so that a truncated or corrupted frame
raises :class:`~repro.errors.WireError` instead of silently producing
garbage (or executing attacker-chosen code, as unpickling a socket
would), and so that the bytes follow from the declared field types and
the tag ledger below, not from Python object layout.

Every encoded message is the magic ``b"SJ"``, a ``WIRE_VERSION`` byte,
a message tag byte (see ``_TAG_LEDGER``) and then the type's body: its
dataclass fields in declaration order, each laid out by the one rule
for its annotation — a leaf of ``_LEAVES`` or a branch of ``_derive``,
tabulated in DESIGN.md §9.  Scalars use network byte order (``struct``
format ``!``); strings, sequences and arrays are length-prefixed.

The body codecs are derived from the annotations once, at import, and
compiled into closures.  The codec is closed-world: an annotation
without a rule fails the import naming the message and field, and so
does a ``Message`` subclass of ``core/protocol.py`` without a ledger
row — a message that cannot travel cannot be defined.
"""

from __future__ import annotations

import dataclasses
import operator
import struct
import types
import typing as t

import numpy as np

from repro.core import protocol
from repro.core.metrics import DelayStats
from repro.data.tuples import TupleBatch
from repro.errors import WireError

__all__ = ["WIRE_VERSION", "MAGIC", "encode_message", "decode_message"]

MAGIC = b"SJ"
_HEADER = struct.Struct("!2sBB")  # magic, version, tag

#: Dtypes an encoded array may carry, keyed by a one-byte code.  All
#: arrays travel little-endian regardless of host order, so encoding is
#: a ``tobytes``/``frombuffer`` pair — no per-element work.
_DTYPES: dict[int, np.dtype] = {
    0: np.dtype("<f8"),
    1: np.dtype("<i8"),
    2: np.dtype("<u1"),
}
_DTYPE_CODES = {dt: code for code, dt in _DTYPES.items()}
_ARRAY_HEAD = struct.Struct("!BI")


class _Reader:
    """Bounds-checked cursor over one frame's bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireError(
                f"truncated frame: wanted {n} bytes at offset {self.pos}, "
                f"frame has {len(self.data)}"
            )
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def array(self) -> np.ndarray:
        code, n = _ARRAY_HEAD.unpack(self.take(_ARRAY_HEAD.size))
        dtype = _DTYPES.get(code)
        if dtype is None:
            raise WireError(f"unknown array dtype code: {code}")
        raw = self.take(n * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).copy()

    def done(self) -> None:
        if self.pos != len(self.data):
            raise WireError(
                f"{len(self.data) - self.pos} trailing bytes after message body"
            )


def _put_array(buf: bytearray, arr: np.ndarray) -> None:
    canonical = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    code = _DTYPE_CODES.get(canonical.dtype)
    if code is None:
        raise WireError(f"array dtype not on the wire menu: {arr.dtype}")
    buf += _ARRAY_HEAD.pack(code, len(canonical))
    buf += canonical.tobytes()


#: One wire rule: ``(put(buf, value), get(reader) -> value)``.
_Put = t.Callable[[bytearray, t.Any], None]
_Get = t.Callable[[_Reader], t.Any]
_Codec = tuple[_Put, _Get]
_Fn = t.Callable[[t.Any], t.Any]


def _packed(codes: str, split: _Fn, build: _Fn) -> _Codec:
    """The scalars ``split(value)`` in ``struct`` format ``!`` + *codes*."""
    packer = struct.Struct("!" + codes)
    pack, unpack, size = packer.pack, packer.unpack, packer.size

    def put(buf: bytearray, value: t.Any) -> None:
        buf += pack(*split(value))

    return put, lambda r: build(unpack(r.take(size)))


def _scalar(code: str) -> _Codec:
    return _packed(code, lambda value: (value,), operator.itemgetter(0))


_put_u8, _get_u8 = _scalar("B")
_put_u32, _get_u32 = _scalar("I")


def _put_str(buf: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    _put_u32(buf, len(raw))
    buf += raw


def _get_str(r: _Reader) -> str:
    try:
        return r.take(_get_u32(r)).decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireError(f"string field is not UTF-8: {error}") from None


def _put_batch(buf: bytearray, batch: TupleBatch) -> None:
    for column in (batch.ts, batch.key, batch.seq, batch.stream):
        _put_array(buf, column)


def _get_batch(r: _Reader) -> TupleBatch:
    ts, key, seq, stream = (r.array() for _ in range(4))
    if not len(ts) == len(key) == len(seq) == len(stream):
        raise WireError("tuple batch columns of unequal length")
    return TupleBatch(ts, key, seq, stream)  # coerces to the column dtypes


def _put_pairs(buf: bytearray, pairs: np.ndarray) -> None:
    _put_array(buf, np.asarray(pairs, dtype=np.int64).reshape(-1))


def _get_pairs(r: _Reader) -> np.ndarray:
    flat = r.array().astype(np.int64, copy=False)
    if len(flat) % 2:
        raise WireError("pair matrix with odd element count")
    return flat.reshape(-1, 2)


_put_stats_head, _get_stats_head = _packed(
    "qddd", operator.attrgetter("count", "total", "minimum", "maximum"), tuple
)


def _put_delay_stats(buf: bytearray, stats: DelayStats) -> None:
    _put_stats_head(buf, stats)
    _put_array(buf, stats.histogram)


def _get_delay_stats(r: _Reader) -> DelayStats:
    stats = DelayStats()
    stats.count, stats.total, stats.minimum, stats.maximum = _get_stats_head(r)
    histogram = r.array().astype(np.int64, copy=False)
    if len(histogram) != len(stats.histogram):
        raise WireError(
            f"delay histogram has {len(histogram)} bins, "
            f"expected {len(stats.histogram)}"
        )
    stats.histogram = histogram
    return stats


#: The scalar annotations and their ``struct`` codes.
_SCALARS: dict[t.Any, str] = {int: "q", float: "d", bool: "?"}
_LEAVES: dict[t.Any, _Codec] = {
    **{hint: _scalar(code) for hint, code in _SCALARS.items()},
    str: (_put_str, _get_str),
    TupleBatch: (_put_batch, _get_batch),
    protocol.PairMatrix: (_put_pairs, _get_pairs),
    DelayStats: (_put_delay_stats, _get_delay_stats),
}


def _literal(choices: tuple[t.Any, ...], where: str) -> _Codec:
    """``Literal[a, b, ...]``: ``!B`` index into the listed values."""
    codes = {choice: code for code, choice in enumerate(choices)}

    def put(buf: bytearray, value: t.Any) -> None:
        if value not in codes:
            raise WireError(f"{where}: {value!r} is not one of {choices}")
        _put_u8(buf, codes[value])

    def get(r: _Reader) -> t.Any:
        code = _get_u8(r)
        if code >= len(choices):
            raise WireError(f"{where}: unknown code {code}")
        return choices[code]

    return put, get


def _optional(inner: _Codec) -> _Codec:
    """``X | None``: ``!B`` presence flag, then ``X`` if present."""
    put_inner, get_inner = inner

    def put(buf: bytearray, value: t.Any) -> None:
        _put_u8(buf, value is not None)
        if value is not None:
            put_inner(buf, value)

    return put, lambda r: get_inner(r) if _get_u8(r) else None


def _sequence(item: _Codec) -> _Codec:
    """``tuple[X, ...]``: ``!I`` count, then each ``X``."""
    put_item, get_item = item

    def put(buf: bytearray, values: t.Sequence[t.Any]) -> None:
        _put_u32(buf, len(values))
        for value in values:
            put_item(buf, value)

    return put, lambda r: tuple([get_item(r) for _ in range(_get_u32(r))])


def _items(
    fields: t.Sequence[tuple[t.Any, str]], split: _Fn, build: _Fn
) -> _Codec:
    """A fixed run of differently typed ``(annotation, where)`` items,
    back to back: the elements of a ``tuple[A, B, C]`` or the fields of
    a record.  Nothing but scalars is one ``struct`` format."""
    if all(hint in _SCALARS for hint, _where in fields):
        codes = "".join(_SCALARS[hint] for hint, _where in fields)
        return _packed(codes, split, build)
    puts, gets = zip(*[_derive(hint, where) for hint, where in fields])

    def put(buf: bytearray, value: t.Any) -> None:
        for put_item, item in zip(puts, split(value), strict=True):
            put_item(buf, item)

    return put, lambda r: build([get_item(r) for get_item in gets])


def _record(cls: type) -> _Codec:
    """A dataclass or NamedTuple: its annotated fields, in declaration
    order (bases first, as ``dataclass`` and ``get_type_hints`` agree)."""
    hints = t.get_type_hints(cls, include_extras=True)
    fetch = operator.attrgetter(*hints)  # a bare value for a single name
    return _items(
        [(hint, f"{cls.__name__}.{name}") for name, hint in hints.items()],
        fetch if len(hints) > 1 else lambda value: (fetch(value),),
        lambda values: cls(*values),
    )


def _derive(hint: t.Any, where: str) -> _Codec:
    """The codec for one annotation; *where* names the field for errors."""
    if hint in _LEAVES:
        return _LEAVES[hint]
    origin, args = t.get_origin(hint), t.get_args(hint)
    if origin is t.Literal:
        return _literal(args, where)
    if origin in (t.Union, types.UnionType) and args[1:] == (type(None),):
        return _optional(_derive(args[0], where))
    if origin is tuple and args[1:] == (Ellipsis,):
        return _sequence(_derive(args[0], where))
    if origin is tuple and args:
        return _items([(arg, where) for arg in args], iter, tuple)
    if dataclasses.is_dataclass(hint) or hasattr(hint, "_fields"):
        return _record(hint)
    raise TypeError(f"{where}: no wire rule for annotation {hint!r}")


_Ledger = t.Mapping[int, t.Sequence[tuple[int, str]]]
#: The one table: version -> the ``(tag, Message subclass name)`` rows
#: that version introduced.  Tags are part of the byte format and
#: append-only — never renumber, retype or delete a row.  To add a
#: message, define its dataclass in ``core/protocol.py`` and append a
#: row under a *new* version; a layout change is a new version too.
#: v2: ReorgOrder grew ``checkpoint_pids``, MoveAck optional ``pairs``.
#: v4: bodies derived from the annotations, which drops the always-1
#: presence byte before the (never optional) rows of every StandbySync
#: and Rejoin pair chunk.
_TAG_LEDGER: _Ledger = {
    1: (
        (1, "Shipment"),
        (2, "LoadReport"),
        (3, "ReorgOrder"),
        (4, "StateTransfer"),
        (5, "MoveAck"),
        (6, "Activate"),
        (7, "ResultReport"),
        (8, "Halt"),
        (9, "SlaveSync"),
    ),
    2: (
        (10, "Replicate"),
        (11, "Checkpoint"),
        (12, "Restore"),
    ),
    3: (
        (13, "StandbySync"),
        (14, "StandbyPlan"),
        (15, "TakeOver"),
        (16, "Rejoin"),
    ),
    4: (),
}


def _build_tags(ledger: _Ledger) -> dict[int, tuple[type, _Put, _Get]]:
    """``tag -> (type, put, get)``, or fail: every tag must exceed all
    tags before it (unique, append-only across versions) and the rows
    must name exactly the ``Message`` subclasses ``core/protocol.py``
    defines."""
    untagged = {
        name: cls
        for name, cls in vars(protocol).items()
        if isinstance(cls, type)
        and issubclass(cls, protocol.Message)
        and cls is not protocol.Message
    }
    tags: dict[int, tuple[type, _Put, _Get]] = {}
    for version in sorted(ledger):
        for tag, name in ledger[version]:
            if not max(tags, default=0) < tag <= 0xFF:
                raise ValueError(
                    f"wire ledger v{version}: tag {tag} ({name}) is not a "
                    "byte above every earlier tag"
                )
            if name not in untagged:
                raise ValueError(
                    f"wire ledger v{version}: tag {tag} names {name!r}, not "
                    "a (still untagged) Message subclass of core/protocol.py"
                )
            cls = untagged.pop(name)
            tags[tag] = (cls, *_record(cls))
    if untagged:
        raise ValueError(
            f"no wire tag for message type(s) {sorted(untagged)}: append "
            "a ledger row under a new version"
        )
    return tags


_TAGS = _build_tags(_TAG_LEDGER)
_TAG_OF = {cls: tag for tag, (cls, _put, _get) in _TAGS.items()}
#: The newest ledger version; a peer speaking any other is refused.
WIRE_VERSION = max(_TAG_LEDGER)


def encode_message(message: t.Any) -> bytes:
    """Serialize one protocol message to wire bytes (header + body)."""
    tag = _TAG_OF.get(type(message))
    if tag is None:
        raise WireError(
            f"{type(message).__name__} is not a wire message type"
        )
    buf = bytearray(_HEADER.pack(MAGIC, WIRE_VERSION, tag))
    _TAGS[tag][1](buf, message)
    return bytes(buf)


def decode_message(data: bytes) -> t.Any:
    """Deserialize wire bytes back into a protocol message.

    Raises :class:`~repro.errors.WireError` on a bad magic, an
    unsupported version, an unknown tag, truncation, trailing bytes, or
    a field its rule rejects (bad UTF-8, an unknown ``Literal`` or dtype
    code, ragged batch columns, a misshapen pair matrix or histogram).
    """
    r = _Reader(data)
    magic, version, tag = _HEADER.unpack(r.take(_HEADER.size))
    if magic != MAGIC:
        raise WireError(f"bad frame magic: {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    entry = _TAGS.get(tag)
    if entry is None:
        raise WireError(f"unknown message tag: {tag}")
    message = entry[2](r)
    r.done()
    return message
