"""Outside-in layer trace: spans around the layers' public functions.

Nothing under ``src/`` is edited.  While a :class:`SpanTable` is
installed, each function in :data:`SPAN_TARGETS` is replaced on its
class by a wrapper that counts the call and attributes wall time by
stack: a span's *self* time is its duration minus the time spent in
spans it called.  The sim backend is single-threaded, so one stack is
exact there; the process backend forks its nodes, whose spans never
come back, so spans are reported on the sim workloads only.  This
module imports nothing from the program until a table is installed.

A target that a later change removes or renames is skipped with a
warning and its span reads 0 calls: the benchmark keeps running and
the zero shows in the table.
"""

from __future__ import annotations

import importlib
import sys
import time
import typing as t
from contextlib import contextmanager

#: span name -> (module, class, method).  Order is the table's order.
SPAN_TARGETS: dict[str, tuple[str, str, str]] = {
    "workload.generate": ("repro.workload.traces", "TraceReplayer", "generate"),
    "buffer.ingest": ("repro.core.buffer", "MasterBuffer", "ingest"),
    "buffer.drain_for": ("repro.core.buffer", "MasterBuffer", "drain_for"),
    "join_module.enqueue": ("repro.core.join_module", "JoinModule", "enqueue"),
    "join_module.unit": ("repro.core.join_module", "WorkUnit", "execute"),
    "partition_group.route": (
        "repro.core.partition_group", "PartitionGroup", "route"),
    "partition_group.split_bucket": (
        "repro.core.partition_group", "PartitionGroup", "split_bucket"),
    "partition_group.try_merge_bucket": (
        "repro.core.partition_group", "PartitionGroup", "try_merge_bucket"),
    "window.append_fresh": ("repro.core.window", "StreamWindow", "append_fresh"),
    "window.flush": ("repro.core.window", "StreamWindow", "flush"),
    "window.sorted_view": ("repro.core.window", "StreamWindow", "sorted_view"),
    "window.commit_fresh": ("repro.core.window", "StreamWindow", "commit_fresh"),
    "window.expire_before": (
        "repro.core.window", "StreamWindow", "expire_before"),
    # Resolved at install time: the class SystemConfig's default kernel
    # name maps to, so replacing the kernels does not break the span.
    "kernel.probe": ("repro.core.kernels", "<default kernel>", "probe"),
    "metrics.record_outputs": (
        "repro.core.metrics", "SlaveMetrics", "record_outputs"),
    "metrics.record_pairs": (
        "repro.core.metrics", "SlaveMetrics", "record_pairs"),
}

#: Shipments kept for timing the wire codec after the traced rep.
CAPTURED_SHIPMENTS = 64


class SpanTable:
    """Call counts and stack-attributed self times, kept in memory."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(SPAN_TARGETS, 0)
        self.self_s = dict.fromkeys(SPAN_TARGETS, 0.0)
        #: The first shipments seen at ``JoinModule.enqueue``.
        self.shipments: list[t.Any] = []
        #: Seconds spent in child spans, one cell per open span.
        self._stack: list[float] = []

    def wrap(self, name: str, fn: t.Callable[..., t.Any]) -> t.Callable[..., t.Any]:
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        # No try/finally: a raising rep is a failed rep and its table is
        # discarded, and the guard would tax every one of ~2e5 calls.
        def span(*args: t.Any, **kwargs: t.Any) -> t.Any:
            stack.append(0.0)
            start = clock()
            out = fn(*args, **kwargs)
            took = clock() - start
            inside = stack.pop()
            if stack:
                stack[-1] += took
            calls[name] += 1
            self_s[name] += took - inside
            return out

        if name != "join_module.enqueue":
            return span
        keep = self.shipments

        def capturing(module: t.Any, shipment: t.Any) -> t.Any:
            if len(keep) < CAPTURED_SHIPMENTS:
                keep.append(shipment)
            return span(module, shipment)

        return capturing


def _resolve(name: str) -> tuple[type, str, t.Any]:
    """``(owning class, method name, original function)`` of a span."""
    module, cls_name, method = SPAN_TARGETS[name]
    mod = importlib.import_module(module)
    if name == "kernel.probe":
        from repro.config import SystemConfig

        cls = mod.get_kernel(SystemConfig.paper_defaults().kernel)
    else:
        cls = getattr(mod, cls_name)
    # Patch where the method is defined, so subclasses see the span too.
    owner = next((c for c in cls.__mro__ if method in vars(c)), None)
    if owner is None:
        raise AttributeError(f"{cls.__name__}.{method} is gone")
    return owner, method, vars(owner)[method]


@contextmanager
def installed(
    table: SpanTable, names: t.Iterable[str] = tuple(SPAN_TARGETS)
) -> t.Iterator[None]:
    """Patch the resolvable span targets in *names* for the block."""
    undo: list[tuple[type, str, t.Any]] = []
    try:
        for name in names:
            try:
                owner, method, original = _resolve(name)
            except Exception as error:  # noqa: BLE001 - reported, run goes on
                print(
                    f"perf: span {name} not installed ({error!r})",
                    file=sys.stderr,
                )
                continue
            undo.append((owner, method, original))
            setattr(owner, method, table.wrap(name, original))
        yield
    finally:
        for owner, method, original in reversed(undo):
            setattr(owner, method, original)


def time_codec(shipments: t.Sequence[t.Any], repeats: int = 5) -> dict[str, float]:
    """Encode/decode cost of the captured shipments, best of *repeats*."""
    from repro.net.wire import decode_message, encode_message

    if not shipments:
        return {}
    clock = time.perf_counter
    encode_s = decode_s = float("inf")
    for _ in range(repeats):
        start = clock()
        frames = [encode_message(s) for s in shipments]
        encode_s = min(encode_s, clock() - start)
        start = clock()
        for frame in frames:
            decode_message(frame)
        decode_s = min(decode_s, clock() - start)
    tuples = sum(len(s.batch) for s in shipments)
    return {
        "wire.encode_us_per_msg": encode_s / len(shipments) * 1e6,
        "wire.decode_us_per_msg": decode_s / len(shipments) * 1e6,
        "wire.bytes_per_tuple": sum(map(len, frames)) / tuples if tuples else 0.0,
    }
