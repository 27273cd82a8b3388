"""Pluggable indexed join kernels (ROADMAP item 1).

A *join kernel* is the per-window strategy that matches a batch of
fresh probe tuples against the committed contents of one stream's
window inside a mini-partition-group.  Kernels live in a registry
keyed by :attr:`~repro.config.SystemConfig.kernel`, mirroring the
runtime-backend registry in :mod:`repro.core.system`:

``blocknlj``
    The baseline: an incrementally kept key-sorted run of the
    committed window (head blocks merged in, expired tuples masked
    out), binary-searched per probe batch (the probe cost charged
    follows the paper's block nested-loop scan model).
``indexed``
    A per-window hash index (join key -> growable vector of SoA
    positions) with incremental insert on commit, numpy-vectorized
    batch probes and lazy bulk expiry driven by the join module's
    expiry watermark ("Parallel Index-based Stream Join on a Multicore
    CPU" / PanJoin, see PAPERS.md).

Every registered kernel must produce the *identical* joined-pair
multiset as the naive oracle for any input — the property suite in
``tests/core/test_kernel_equivalence.py`` and the kernel-matrix
benchmark (``benchmarks/bench_kernels.py``) enforce this; a kernel
whose output ever diverges is a bug, not a trade-off.

Kernels are node-local derived state: they are never serialized.
Replication checkpoints and partition moves ship only the window
contents (:class:`~repro.core.partition_group.PartitionGroupState`);
the consumer/restore side rebuilds its index from the installed SoA
(`warm`), which is lossless by construction.
"""

from __future__ import annotations

import abc
import typing as t

import numpy as np

from repro.core.probe import ProbeResult
from repro.errors import ConfigError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard (window -> kernels)
    from repro.core.costmodel import CostModel
    from repro.core.window import StreamWindow

__all__ = [
    "JoinKernel",
    "register_kernel",
    "available_kernels",
    "get_kernel",
    "make_kernel",
]


class JoinKernel(abc.ABC):
    """Per-:class:`~repro.core.window.StreamWindow` probe strategy.

    One kernel instance is attached to each window and probes *that
    window's* committed tuples on behalf of the opposite stream's
    fresh head block.  Kernels may keep arbitrary derived state (sorted
    runs, hash indexes) but the committed
    :class:`~repro.data.soa.GrowableSoA` remains the single source of
    truth — a kernel must behave identically after being rebuilt from
    it (:meth:`warm`), which is what makes crash restores lossless
    without ever shipping index bytes.
    """

    #: Registry name (subclasses override).
    name: t.ClassVar[str] = ""

    def __init__(self, window: "StreamWindow") -> None:
        self.window = window

    # -- probing ----------------------------------------------------------
    @abc.abstractmethod
    def probe(
        self,
        probe_ts: np.ndarray,
        probe_key: np.ndarray,
        probe_seq: np.ndarray,
        window_seconds: float,
        collect_pairs: bool = False,
    ) -> ProbeResult:
        """Match *probe* tuples against this window's committed tuples.

        Exact semantics (identical for every kernel): a committed tuple
        ``c`` matches probe tuple ``p`` iff ``c.key == p.key`` and
        ``|c.ts - p.ts| <= window_seconds`` — the boundary is
        *inclusive* on both sides.
        """

    # -- costing ----------------------------------------------------------
    @abc.abstractmethod
    def probe_scan_bytes(self, probe_key: np.ndarray, tuple_bytes: int) -> int:
        """Window bytes this kernel would touch probing *probe_key*.

        Drives the simulated CPU charge and the disk-spill fraction:
        block-NLJ scans every committed block; the indexed kernel
        touches only the candidate tuples its hash buckets return.
        """

    @staticmethod
    @abc.abstractmethod
    def probe_cost(
        model: "CostModel",
        n_probe_tuples: int,
        scanned_bytes: int,
        spilled_bytes: int,
    ) -> float:
        """Simulated CPU seconds for one probe of this kernel."""

    # -- lifecycle ---------------------------------------------------------
    def on_commit(self) -> None:
        """Hook fired after a head block commits into the window.

        Incremental kernels index the freshly committed tuples here so
        insert cost is paid at commit time; the default is nothing
        (blocknlj merges them into its sorted run at the next probe).
        """

    def warm(self) -> None:
        """Eagerly (re)build derived state from the committed window.

        Called after a replication restore or a partition-group
        install so post-recovery probes run against a fully built
        index, exactly as on a crash-free node.  Default: nothing
        (kernels are free to stay fully lazy).
        """


_KERNELS: dict[str, type[JoinKernel]] = {}


def register_kernel(cls: type[JoinKernel]) -> type[JoinKernel]:
    """Register (or replace) a kernel class under ``cls.name``.

    Usable as a class decorator; returns *cls* unchanged.
    """
    if not cls.name:
        raise ValueError(f"kernel class {cls!r} must set a non-empty name")
    _KERNELS[cls.name] = cls
    return cls


def available_kernels() -> list[str]:
    """Registered kernel names, sorted."""
    return sorted(_KERNELS)


def get_kernel(name: str) -> type[JoinKernel]:
    """The kernel class registered under *name*.

    Raises :class:`~repro.errors.ConfigError` for unknown names,
    listing what is available (mirrors ``get_backend``).
    """
    cls = _KERNELS.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown join kernel {name!r}; available: "
            f"{', '.join(available_kernels())}"
        )
    return cls


def make_kernel(name: str, window: "StreamWindow") -> JoinKernel:
    """Instantiate the kernel registered under *name* for *window*."""
    return get_kernel(name)(window)


# Register the built-in kernels.  Imports are at the bottom: both
# modules import this one for the base class/registry.
from repro.core.kernels.blocknlj import BlockNLJKernel  # noqa: E402
from repro.core.kernels.indexed import IndexedKernel  # noqa: E402

register_kernel(BlockNLJKernel)
register_kernel(IndexedKernel)
