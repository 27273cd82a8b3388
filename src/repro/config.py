"""Configuration dataclasses.

:class:`SystemConfig.paper_defaults` encodes Table I of the paper:

======================  =======  =========================================
Parameter               Default  Comment
======================  =======  =========================================
``W_i``                 10 min   window length (both streams)
``lambda``              1500     average arrival rate (tuples/sec/stream)
``b``                   0.7      b-model skew of join-attribute values
``Th_con``              0.01     consumer threshold (buffer occupancy)
``Th_sup``              0.5      supplier threshold (buffer occupancy)
``theta``               1.5 MB   partition tuning parameter
``block``               4 KB     block size
``t_d``                 2 s      distribution epoch
``t_r``                 20 s     reorganization epoch
``npart``               60       hash partitions (level of indirection)
``buffer``              1 MB     per-slave stream-tuple buffer
tuple size              64 B     (Section VI-A)
join-attribute domain   [0,1e7]  (Section VI-A)
run / warm-up           20/10 m  (Section VI-A)
======================  =======  =========================================

Because full 20-minute runs are slow in pure Python, ``scaled(sigma)``
shrinks window length, run length, warm-up and ``theta`` by ``sigma``
while multiplying the per-byte CPU scan cost by ``1/sigma``.  Per-probe
scanned bytes are proportional to ``rate * W / npart``, so this keeps
every saturation point and split/merge decision at the same *rates* as
the full-scale system — only absolute "seconds of overhead per run"
shrink by ``sigma``.
"""

from __future__ import annotations

import dataclasses
import typing as t
from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.faults.plan import FaultPlan

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class CostModelConfig:
    """Calibrated CPU cost model for the simulated slaves.

    The join module charges ``tuple_cost`` per probing tuple plus
    ``scan_byte_cost`` per byte of the opposite (mini-)partition scanned
    by the block nested-loop join.  The two anchor points used for
    calibration (Section VI of the paper, 4 slaves):

    * *without* fine tuning the system saturates near 4000 tuples/s/stream;
    * *with* fine tuning it saturates near 6000 tuples/s/stream.

    Solving the utilization equations at those points gives the defaults
    below (see ``docs in repro/core/costmodel.py``).
    """

    #: Fixed CPU seconds charged per probing tuple (hashing, block
    #: bookkeeping, result construction).
    tuple_cost: float = 1.21e-4
    #: CPU seconds per probing tuple per byte of window data scanned by
    #: its block nested-loop probe (comparison work is the cross
    #: product of fresh tuples and scanned tuples).
    scan_byte_cost: float = 1.885e-10
    #: CPU seconds per byte moved during a partition-group state
    #: transfer (extraction + installation on the two slaves).
    state_move_byte_cost: float = 4.0e-9
    #: CPU seconds per byte for expiring tuples from a window.
    expire_byte_cost: float = 1.0e-11
    #: Seconds per byte read back from disk when window state exceeds a
    #: slave's memory (the paper's future-work extension; ~50 MB/s
    #: sequential read on the era's disks).  Charged once per probe
    #: over the spilled fraction of the scanned bytes.
    disk_read_byte_cost: float = 2.0e-8

    def validated(self) -> "CostModelConfig":
        for name in (
            "tuple_cost",
            "scan_byte_cost",
            "state_move_byte_cost",
            "expire_byte_cost",
            "disk_read_byte_cost",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        return self


@dataclass(frozen=True)
class NetworkConfig:
    """Modeled cluster interconnect (Gigabit Ethernet + mpiJava stack).

    ``per_message_overhead`` and ``per_byte_overhead`` model the
    fixed-schedule TCP/MPI connection handling and (de)serialization
    costs that dominate the paper's reported communication overhead;
    raw gigabit wire time is comparatively negligible.
    """

    #: One-way propagation latency (s).
    latency: float = 1.0e-4
    #: Link bandwidth (bytes/s); Gigabit Ethernet ~ 125 MB/s.
    bandwidth: float = 125.0e6
    #: Fixed per-message cost charged to both endpoints (s).
    per_message_overhead: float = 15.0e-3
    #: Per-byte serialization/deserialization cost charged to both
    #: endpoints (s/byte).
    per_byte_overhead: float = 2.5e-7

    def validated(self) -> "NetworkConfig":
        if self.bandwidth <= 0:
            raise ConfigError("bandwidth must be positive")
        for name in ("latency", "per_message_overhead", "per_byte_overhead"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        return self

    def transfer_time(self, nbytes: int) -> float:
        """Wire time for a message of *nbytes* payload."""
        return self.latency + nbytes / self.bandwidth

    def endpoint_overhead(self, nbytes: int) -> float:
        """CPU-side comm overhead charged to each endpoint."""
        return self.per_message_overhead + nbytes * self.per_byte_overhead


@dataclass(frozen=True)
class ObservabilityConfig:
    """Tracing and time-series sampling (``repro.obs``).

    Everything defaults to *off*: the instrumented hot paths then pay a
    single ``tracer.enabled`` branch and nothing else.
    """

    #: Write a JSONL trace to this path (``swjoin run --trace``).
    trace_path: str | None = None
    #: Keep trace records in memory and thread them into
    #: :attr:`~repro.core.system.RunResult.trace` (tests, notebooks).
    trace_memory: bool = False
    #: Print a per-kind event count summary when the run finishes.
    console_summary: bool = False
    #: Include per-message transport spans in the trace.  Opt-in: one
    #: event per rendezvous transfer is by far the highest-volume kind.
    trace_transport: bool = False
    #: Period of the per-node gauge sampler, seconds (None = no
    #: sampler).  Samples land in bounded decimating reservoirs and in
    #: the trace (kind ``sample``) when tracing is on.
    sample_period: float | None = None
    #: Capacity of each ``(node, gauge)`` reservoir.
    reservoir_capacity: int = 512
    #: Serve the admin/health HTTP endpoint (:mod:`repro.obs.admin`) on
    #: this port for the duration of the run (0 = ephemeral; None = no
    #: server).
    admin_port: int | None = None

    @property
    def tracing(self) -> bool:
        """True when any trace exporter is configured."""
        return bool(self.trace_path or self.trace_memory or self.console_summary)

    @property
    def enabled(self) -> bool:
        return (
            self.tracing
            or self.sample_period is not None
            or self.admin_port is not None
        )

    def validated(self) -> "ObservabilityConfig":
        if self.sample_period is not None and self.sample_period <= 0:
            raise ConfigError("sample_period must be positive (or None)")
        if self.reservoir_capacity < 2:
            raise ConfigError("reservoir_capacity must be >= 2")
        if self.trace_transport and not self.tracing:
            raise ConfigError("trace_transport requires a trace exporter")
        if self.admin_port is not None and not 0 <= self.admin_port <= 65535:
            raise ConfigError("admin_port must lie in [0, 65535] (or None)")
        return self


@dataclass(frozen=True)
class SystemConfig:
    """Full configuration of a master/slaves/collector join run."""

    # -- workload ---------------------------------------------------------
    #: Number of joining streams.  The paper's model (Section II) is
    #: n-way; its prototype and all reproduced figures use 2.
    n_streams: int = 2
    #: Average Poisson arrival rate per stream (tuples/second).
    rate: float = 1500.0
    #: b-model bias of the join-attribute distribution (0.5 = uniform).
    b_skew: float = 0.7
    #: Join-attribute domain is the integer range [0, key_domain).
    key_domain: int = 10_000_001
    #: Logical tuple size on the wire and in windows (bytes).
    tuple_bytes: int = 64

    # -- join operator ----------------------------------------------------
    #: Sliding window length, seconds (same for both streams).
    window_seconds: float = 600.0
    #: Number of hash partitions (level of indirection, Section IV-C).
    npart: int = 60
    #: Block size in bytes (Section VI-A).
    block_bytes: int = 4096
    #: Partition tuning parameter theta, bytes: partition-groups are kept
    #: within [theta, 2*theta] (Section IV-D).
    theta_bytes: int = int(1.5 * MIB)
    #: Enable fine-grained partition tuning (extendible hashing).
    fine_tuning: bool = True

    # -- cluster ----------------------------------------------------------
    #: Number of slave nodes available.
    num_slaves: int = 4
    #: Relative CPU speed per slave (None = homogeneous).  The paper's
    #: cluster is non-dedicated: background load varies per node; a
    #: speed of 0.5 models a slave whose CPU is half-consumed by other
    #: applications.
    slave_speeds: tuple[float, ...] | None = None
    #: Memory allotted to the per-slave stream-tuple buffer (bytes).
    slave_buffer_bytes: int = 1 * MIB
    #: Memory available per slave for window state, bytes.  None (the
    #: paper's assumption, Section VI-A) means every node holds its
    #: windows in RAM; a finite value spills the excess to disk and
    #: probes pay :attr:`CostModelConfig.disk_read_byte_cost` on the
    #: spilled fraction (the paper's disk-I/O future work).
    slave_memory_bytes: int | None = None
    #: Number of sub-groups for slot-based communication (Section V-B).
    num_subgroups: int = 1
    #: Run a standby coordinator (one extra node) that mirrors the
    #: master's durable state every epoch and deterministically assumes
    #: the master role if the master dies mid-run (``--standby``).
    #: Required for ``crash:master`` fault specs.
    standby: bool = False

    # -- epochs and load balancing ---------------------------------------
    #: Distribution epoch t_d, seconds.
    dist_epoch: float = 2.0
    #: Reorganization epoch t_r, seconds.
    reorg_epoch: float = 20.0
    #: Consumer threshold on average buffer occupancy.
    th_con: float = 0.01
    #: Supplier threshold on average buffer occupancy.
    th_sup: float = 0.5
    #: Enable supplier->consumer partition-group migration.
    load_balancing: bool = True
    #: State replication for lossless crash recovery (``repro.replication``):
    #: ``"off"`` (crashes lose window state, runs finish degraded),
    #: ``"log"`` (backups hold a full shipment log from each partition's
    #: bootstrap), or ``"checkpoint+log"`` (owners also piggyback a
    #: compact state checkpoint every reorganization epoch so backups
    #: can truncate their logs).
    replication: str = "off"

    # -- degree of declustering (Section V-A) ------------------------------
    #: Adapt the number of active slaves at run time.
    adaptive_declustering: bool = False
    #: Granularity parameter beta: grow when N_sup > beta * N_con.
    beta: float = 0.5
    #: Initial number of active slaves (defaults to all).
    initial_active_slaves: int | None = None

    # -- execution backend -------------------------------------------------
    #: Runtime backend executing the cluster: ``"sim"`` (deterministic
    #: DES kernel), ``"thread"`` (one OS thread per node generator),
    #: ``"process"`` (one OS process per cluster node, real sockets) or
    #: ``"tcp"`` (one worker per node over TCP, optionally multi-host).
    #: Registered in :mod:`repro.core.system`; unknown names raise
    #: :class:`ConfigError` at run time with the available set.
    backend: str = "sim"
    #: Static peer map for the tcp backend: ``((node_id, "host:port"),
    #: ...)``.  Listed nodes are expected to be running ``swjoin worker
    #: --listen`` at that address; every other node is forked locally.
    tcp_peers: tuple[tuple[int, str], ...] = ()
    #: Host the tcp backend binds its *local* workers' listen sockets
    #: on.  Loopback by default; use a routable address when remote
    #: workers must connect back to locally forked nodes.
    tcp_host: str = "127.0.0.1"
    #: Wall seconds per modeled second on the wall-clock backends
    #: (thread/process): ``time_scale=0.01`` compresses a 60-second
    #: scenario into 0.6 wall seconds.  Ignored by the DES backend.
    time_scale: float = 1.0
    #: Not a setting (a ``ClassVar`` is no dataclass field): the name
    #: perf/spans.py hands :func:`repro.core.kernels.get_kernel` to find
    #: its ``kernel.probe`` span.  Deleted by the ``benchmark`` PR that
    #: re-points the span.
    kernel: t.ClassVar[str] = "window"

    # -- run --------------------------------------------------------------
    #: Simulated run length, seconds (paper: 20 minutes).
    run_seconds: float = 1200.0
    #: Warm-up before metrics are gathered, seconds (paper: 10 minutes).
    warmup_seconds: float = 600.0
    #: Root seed for all random substreams.
    seed: int = 20130724
    #: Geometry scale factor recorded by :meth:`scaled` (1.0 = paper).
    scale: float = 1.0

    # -- substrates --------------------------------------------------------
    network: NetworkConfig = field(default_factory=NetworkConfig)
    cost: CostModelConfig = field(default_factory=CostModelConfig)
    #: Tracing / time-series sampling; off by default.
    obs: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    #: Deterministic fault plan (crashes, message faults, slowdowns);
    #: empty by default — an empty plan arms no timers, spawns no
    #: injector, and leaves the run byte-identical to one without the
    #: fault plane.
    faults: FaultPlan = field(default_factory=FaultPlan)

    # ----------------------------------------------------------------------
    @classmethod
    def paper_defaults(cls) -> "SystemConfig":
        """Table I of the paper, verbatim."""
        return cls()

    def with_(self, **changes: t.Any) -> "SystemConfig":
        """Functional update; unknown keys raise :class:`ConfigError`."""
        names = {f.name for f in dataclasses.fields(self)}
        unknown = set(changes) - names
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        return replace(self, **changes).validated()

    def scaled(self, sigma: float) -> "SystemConfig":
        """Shrink run geometry by *sigma*, preserving saturation shape.

        Window, run length, warm-up, theta and the slave buffer scale by
        ``sigma``; the per-byte scan cost scales by ``1/sigma`` so a
        given arrival *rate* loads a slave exactly as much as at full
        scale.  Epochs are left untouched.
        """
        if not 0 < sigma <= 1:
            raise ConfigError(f"scale factor must be in (0, 1]: {sigma!r}")
        return self.with_(
            window_seconds=self.window_seconds * sigma,
            run_seconds=self.run_seconds * sigma,
            warmup_seconds=self.warmup_seconds * sigma,
            theta_bytes=max(self.block_bytes, int(self.theta_bytes * sigma)),
            slave_buffer_bytes=max(
                self.block_bytes, int(self.slave_buffer_bytes * sigma)
            ),
            slave_memory_bytes=(
                None
                if self.slave_memory_bytes is None
                else max(self.block_bytes, int(self.slave_memory_bytes * sigma))
            ),
            cost=replace(self.cost, scan_byte_cost=self.cost.scan_byte_cost / sigma),
            scale=self.scale * sigma,
        )

    # ----------------------------------------------------------------------
    @property
    def tuples_per_block(self) -> int:
        return self.block_bytes // self.tuple_bytes

    def speed_of(self, slave_index: int) -> float:
        """Relative CPU speed of the *slave_index*-th slave."""
        if self.slave_speeds is None:
            return 1.0
        return self.slave_speeds[slave_index]

    @property
    def n_active_initial(self) -> int:
        n = (
            self.num_slaves
            if self.initial_active_slaves is None
            else self.initial_active_slaves
        )
        return max(1, min(n, self.num_slaves))

    def validated(self) -> "SystemConfig":
        if not 2 <= self.n_streams <= 8:
            raise ConfigError("n_streams must lie in [2, 8]")
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
        if not 0.0 <= self.b_skew <= 1.0:
            raise ConfigError("b_skew must lie in [0, 1]")
        if self.key_domain < 1:
            raise ConfigError("key_domain must be >= 1")
        if self.tuple_bytes < 1 or self.block_bytes < self.tuple_bytes:
            raise ConfigError("need tuple_bytes >= 1 and block_bytes >= tuple_bytes")
        if self.block_bytes % self.tuple_bytes:
            raise ConfigError("block_bytes must be a multiple of tuple_bytes")
        if self.window_seconds <= 0:
            raise ConfigError("window_seconds must be positive")
        if self.npart < 1:
            raise ConfigError("npart must be >= 1")
        if self.theta_bytes < self.block_bytes:
            raise ConfigError("theta_bytes must be at least one block")
        if self.num_slaves < 1:
            raise ConfigError("num_slaves must be >= 1")
        if self.slave_speeds is not None:
            if len(self.slave_speeds) != self.num_slaves:
                raise ConfigError(
                    "slave_speeds must have one entry per slave"
                )
            if any(s <= 0 for s in self.slave_speeds):
                raise ConfigError("slave speeds must be positive")
        if not 1 <= self.num_subgroups <= self.num_slaves:
            raise ConfigError("num_subgroups must be in [1, num_slaves]")
        if self.dist_epoch <= 0 or self.reorg_epoch <= 0:
            raise ConfigError("epochs must be positive")
        if self.reorg_epoch < self.dist_epoch:
            raise ConfigError("reorg_epoch must be >= dist_epoch")
        if not 0 <= self.th_con < self.th_sup <= 1:
            raise ConfigError("need 0 <= th_con < th_sup <= 1")
        if self.replication not in ("off", "log", "checkpoint+log"):
            raise ConfigError(
                "replication must be one of 'off', 'log', 'checkpoint+log'"
            )
        if not 0 < self.beta < 1:
            raise ConfigError("beta must lie in (0, 1)")
        if not self.backend or not isinstance(self.backend, str):
            raise ConfigError("backend must be a non-empty string")
        if self.tcp_peers:
            if self.backend != "tcp":
                raise ConfigError(
                    "tcp_peers is only meaningful with backend='tcp'"
                )
            seen: set[int] = set()
            for entry in self.tcp_peers:
                if len(entry) != 2:
                    raise ConfigError(
                        f"tcp_peers entries must be (node_id, 'host:port') "
                        f"pairs, got {entry!r}"
                    )
                nid, addr = entry
                if not isinstance(nid, int) or nid < 0:
                    raise ConfigError(
                        f"tcp peer node id must be a non-negative int, "
                        f"got {nid!r}"
                    )
                if nid in seen:
                    raise ConfigError(f"duplicate tcp peer for node {nid}")
                seen.add(nid)
                host, sep, port = str(addr).rpartition(":")
                if (
                    not sep
                    or not host
                    or not port.isdigit()
                    or not 0 < int(port) < 65536
                ):
                    raise ConfigError(
                        f"tcp peer address must be HOST:PORT, got {addr!r}"
                    )
        if not self.tcp_host:
            raise ConfigError("tcp_host must be a non-empty host name")
        if self.time_scale <= 0:
            raise ConfigError("time_scale must be positive")
        if self.run_seconds <= 0 or not 0 <= self.warmup_seconds < self.run_seconds:
            raise ConfigError("need 0 <= warmup_seconds < run_seconds")
        if self.slave_buffer_bytes < self.block_bytes:
            raise ConfigError("slave_buffer_bytes must hold at least one block")
        if (
            self.slave_memory_bytes is not None
            and self.slave_memory_bytes < self.block_bytes
        ):
            raise ConfigError("slave_memory_bytes must hold at least one block")
        self.network.validated()
        self.cost.validated()
        self.obs.validated()
        self.faults.validated(num_slaves=self.num_slaves)
        if not self.standby and any(
            c.targets_master for c in self.faults.crashes
        ):
            raise ConfigError(
                "crash:master fault specs require standby=True "
                "(swjoin run --standby): without a standby coordinator "
                "a master crash kills the whole run"
            )
        return self
