"""Command-line interface.

Examples::

    swjoin run --rate 3000 --slaves 4 --scale 0.05
    swjoin run --scale 0.05 --adaptive --trace trace.jsonl
    swjoin run --scale 0.05 --fault crash:2@35s
    swjoin run --backend tcp --peers 3=10.0.0.2:7000
    swjoin worker --listen 0.0.0.0:7000
    swjoin report trace.jsonl
    swjoin experiment fig07 --scale 0.05
    swjoin experiment all --out EXPERIMENTS.generated.md
    swjoin lint
    swjoin list
"""

from __future__ import annotations

import argparse
import sys
import time
import typing as t

from repro._version import __version__
from repro.analysis.experiments import DEFAULT_SCALE, EXPERIMENTS, run_experiment
from repro.config import (
    BACKENDS,
    ObservabilityConfig,
    SystemConfig,
    parse_hostport,
)
from repro.core.system import JoinSystem
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan


def _add_run_parser(sub: t.Any) -> None:
    p = sub.add_parser("run", help="run one simulated cluster configuration")
    p.add_argument("--rate", type=float, default=1500.0, help="tuples/s/stream")
    p.add_argument("--slaves", type=int, default=4)
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--b-skew", type=float, default=0.7)
    p.add_argument("--npart", type=int, default=60)
    p.add_argument("--dist-epoch", type=float, default=2.0)
    p.add_argument("--subgroups", type=int, default=1)
    p.add_argument("--seed", type=int, default=20130724)
    p.add_argument("--backend", choices=BACKENDS,
                   default="sim",
                   help="runtime backend: deterministic DES (sim, default), "
                        "every node on the wall-clocked kernel (thread), one "
                        "OS process per cluster node (process), or one worker "
                        "per node over real TCP connections, optionally "
                        "spanning hosts via `swjoin worker` (tcp)")
    p.add_argument("--peers", metavar="NODE=HOST:PORT", action="append",
                   help="tcp backend only: static peer map entry for a "
                        "remote node served by `swjoin worker --listen`; "
                        "repeatable, comma-separable.  Unlisted nodes are "
                        "forked locally on loopback")
    p.add_argument("--bind-host", metavar="HOST", default="127.0.0.1",
                   help="tcp backend only: address local workers listen "
                        "on (default loopback; use a routable address "
                        "when remote workers must reach local nodes)")
    p.add_argument("--time-scale", type=float, default=None,
                   metavar="FACTOR",
                   help="wall seconds per modeled second on the thread/"
                        "process backends (default 0.05; ignored by sim)")
    p.add_argument("--no-fine-tuning", action="store_true")
    p.add_argument("--adaptive", action="store_true",
                   help="enable adaptive degree of declustering")
    p.add_argument("--no-load-balancing", action="store_true")
    p.add_argument("--trace", metavar="PATH",
                   help="write a JSONL event trace to PATH")
    p.add_argument("--trace-transport", action="store_true",
                   help="also trace per-transfer network spans (verbose)")
    p.add_argument("--sample-period", type=float, metavar="SECONDS",
                   help="sample per-node gauges every SECONDS of sim time "
                        "(default: the distribution epoch when tracing)")
    p.add_argument("--metrics", action="store_true",
                   help="print the typed per-node view of the run's "
                        "counters after the run")
    p.add_argument("--admin-port", type=int, metavar="PORT",
                   help="serve the admin/health HTTP endpoint on PORT "
                        "for the duration of the run (0 = ephemeral)")
    p.add_argument("--plot-gauge", metavar="GAUGE",
                   help="chart one sampled gauge after the run "
                        "(e.g. occupancy, window_bytes, queue_depth)")
    p.add_argument("--replication", choices=("off", "log", "checkpoint+log"),
                   default="off",
                   help="replicate partition-group state to backup slaves "
                        "so crash recovery is lossless (default: off)")
    p.add_argument("--standby", action="store_true",
                   help="run a standby coordinator mirroring the master's "
                        "durable state every epoch; it takes over "
                        "deterministically if the master dies (required "
                        "for crash:master fault specs)")
    p.add_argument("--fault", metavar="SPEC", action="append",
                   help="inject a fault; repeatable.  SPECs: "
                        "crash:<slave>@<t>s, crash:master@<t>s, "
                        "drop:<src>-><dst>@<k>, "
                        "delay:<src>-><dst>@<k>+<s>s, "
                        "slow:<slave>x<factor>@<t0>-<t1>s")
    p.add_argument("--detect-timeout", type=float, metavar="SECONDS",
                   help="failure-detection timeout on the master's "
                        "scheduled receives (default: one distribution "
                        "epoch when faults are injected)")


def _parse_peers(specs: t.Sequence[str]) -> tuple[tuple[int, str], ...]:
    """Parse repeated/comma-separated ``NODE=HOST:PORT`` peer entries."""
    peers: list[tuple[int, str]] = []
    for spec in specs:
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            node, sep, addr = item.partition("=")
            if not sep or not node.strip().isdigit():
                raise ConfigError(
                    f"--peers entries must look like NODE=HOST:PORT, "
                    f"got {item!r}"
                )
            peers.append((int(node.strip()), addr.strip()))
    return tuple(peers)


def _obs_config(args: argparse.Namespace) -> ObservabilityConfig:
    sample_period = args.sample_period
    if sample_period is None and (args.trace or args.plot_gauge):
        # Traces should carry gauge samples by default; once per
        # distribution epoch matches the system's own cadence.
        sample_period = args.dist_epoch
    return ObservabilityConfig(
        trace_path=args.trace,
        trace_transport=args.trace_transport,
        sample_period=sample_period,
        admin_port=args.admin_port,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = SystemConfig.paper_defaults()
    if args.scale != 1.0:
        cfg = cfg.scaled(args.scale)
    if args.time_scale is None:
        # A watchable default: 5% wall speed demos a scaled run in a
        # few seconds without starving the real compute.
        args.time_scale = 0.05
    cfg = cfg.with_(
        rate=args.rate,
        num_slaves=args.slaves,
        b_skew=args.b_skew,
        npart=args.npart,
        dist_epoch=args.dist_epoch,
        num_subgroups=args.subgroups,
        seed=args.seed,
        backend=args.backend,
        tcp_peers=_parse_peers(args.peers or ()),
        tcp_host=args.bind_host,
        time_scale=args.time_scale,
        fine_tuning=not args.no_fine_tuning,
        adaptive_declustering=args.adaptive,
        load_balancing=not args.no_load_balancing,
        replication=args.replication,
        standby=args.standby,
        obs=_obs_config(args),
    )
    if args.fault or args.detect_timeout is not None:
        cfg = cfg.with_(
            faults=FaultPlan.parse(
                args.fault or (), detect_timeout=args.detect_timeout
            )
        )
    started = time.perf_counter()
    result = JoinSystem(cfg).run()
    elapsed = time.perf_counter() - started
    print(result.summary())
    print(f"(simulated {cfg.run_seconds:g}s in {elapsed:.1f}s wall)")
    if args.trace:
        print(f"trace written to {args.trace} (inspect: swjoin report {args.trace})")
    if args.metrics:
        for node, snapshot in sorted(result.node_metrics.items()):
            parts = []
            for name, sample in sorted(snapshot.items()):
                value = sample.get("value", sample.get("count"))
                parts.append(f"{name}={value:g}")
            print(f"metrics n{node}: {' '.join(parts)}")
    if args.plot_gauge:
        from repro.analysis.plots import plot_run_series

        print()
        print(plot_run_series(result, args.plot_gauge))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    # Lazy import: only the tcp backend pulls in the socket runtime.
    from repro.runtime.tcp import serve_worker

    host, port = parse_hostport(args.listen)
    return serve_worker(host, port)


def _cmd_report(args: argparse.Namespace) -> int:
    # Lazy import: the report module pulls in the analysis layer.
    from repro.obs.report import load_trace, render_report

    try:
        meta, records = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_report(meta, records, top=args.top))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    sections = []
    for name in names:
        started = time.perf_counter()
        exp = run_experiment(name, scale=args.scale, quick=args.quick)
        elapsed = time.perf_counter() - started
        print(exp.render())
        if args.plot:
            from repro.analysis.plots import plot_experiment

            print()
            print(plot_experiment(exp))
        print(f"({elapsed:.1f}s wall)\n")
        sections.append(exp.to_markdown())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# Generated experiment results (v{__version__})\n\n")
            fh.write("\n".join(sections))
        print(f"wrote {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: linting is a dev workflow, not a run-time dependency.
    from repro.lint.cli import cmd_lint

    return cmd_lint(args)


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(n) for n in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name.ljust(width)}  {EXPERIMENTS[name].title}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swjoin",
        description=(
            "Parallel windowed stream joins over a (simulated) "
            "shared-nothing cluster — reproduction of Chakraborty & "
            "Singh, CLUSTER 2013."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)

    p = sub.add_parser("experiment", help="reproduce a paper figure")
    p.add_argument("name", help="experiment id (e.g. fig07) or 'all'")
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--quick", action="store_true", help="coarse sweep grid")
    p.add_argument("--plot", action="store_true", help="ASCII chart too")
    p.add_argument("--out", help="also write markdown to this file")

    p = sub.add_parser(
        "worker",
        help="serve one cluster node for a remote "
             "`swjoin run --backend tcp` launcher, then exit",
    )
    p.add_argument("--listen", required=True, metavar="HOST:PORT",
                   help="address to listen on (port 0 = ephemeral; the "
                        "bound address is printed on startup)")

    p = sub.add_parser("report", help="summarize a JSONL trace file")
    p.add_argument("path", help="trace file written by `swjoin run --trace`")
    p.add_argument("--top", type=int, default=5,
                   help="how many hot partitions to list")

    from repro.lint.cli import add_lint_parser

    add_lint_parser(sub)

    sub.add_parser("list", help="list available experiments")
    return parser


def main(argv: t.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "list":
        return _cmd_list(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
