"""The ``swjoin lint`` subcommand.

Examples::

    swjoin lint                        # lint src/repro with the default baseline
    swjoin lint src/repro tests        # explicit paths
    swjoin lint --select SIM001        # one rule only
    swjoin lint --list-rules
    swjoin lint --write-baseline       # accept current findings (triage them!)

Exit status: 0 when nothing fresh was found and no baseline entry is
stale, 1 otherwise, 2 for usage errors (e.g. a malformed baseline).
"""

from __future__ import annotations

import argparse
import json
import sys
import typing as t

from repro.errors import LintError
from repro.lint.baseline import Baseline
from repro.lint.engine import LintResult, lint_paths
from repro.lint.registry import RULES

__all__ = ["add_lint_parser", "cmd_lint", "main"]

#: Baseline used when ``--baseline`` is not given and the file exists.
DEFAULT_BASELINE = "lint-baseline.txt"
#: Default lint target.
DEFAULT_PATHS = ("src/repro",)


def add_lint_parser(sub: t.Any) -> None:
    p = sub.add_parser(
        "lint",
        help="run the codebase-specific static-analysis pass",
        description=(
            "Static analysis for simulation purity and protocol "
            "exhaustiveness (rules SIM*/OBS*/PERF*/PROTO*/CFG*).  "
            "SIM001/SIM002/PERF001 flag every load or import of the wall "
            "clock, unseeded randomness, or blocking I/O outside the "
            "files entitled to it (see --list-rules)."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    p.add_argument(
        "--baseline",
        metavar="PATH",
        help=(
            "baseline file of triaged findings "
            f"(default: {DEFAULT_BASELINE} when present)"
        ),
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report everything as fresh)",
    )
    p.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only the given rule id (repeatable)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "write the current findings to the baseline file and exit; "
            "generated entries carry a TODO comment to replace with a "
            "tracking reference"
        ),
    )
    p.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )


def _load_baseline(args: argparse.Namespace) -> tuple[Baseline | None, str]:
    import os

    path = args.baseline or DEFAULT_BASELINE
    if args.no_baseline:
        return None, path
    if args.baseline is None and not os.path.exists(path):
        return None, path
    return Baseline.load(path), path


def _print_text(result: LintResult, stream: t.TextIO) -> None:
    for finding in result.fresh:
        print(finding.render(), file=stream)
    for entry in result.stale_baseline:
        print(
            f"stale baseline entry (fixed? delete it): {entry.render()}",
            file=stream,
        )
    print(f"swjoin lint: {result.summary()}", file=stream)


def _print_json(result: LintResult, stream: t.TextIO) -> None:
    payload = {
        "ok": result.ok,
        "fresh": [f.to_record() for f in result.fresh],
        "baselined": [f.to_record() for f in result.baselined],
        "stale_baseline": [e.key for e in result.stale_baseline],
        "suppressed": result.suppressed,
        "n_files": result.n_files,
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        width = max(len(rule_id) for rule_id in RULES)
        for rule_id in sorted(RULES):
            print(f"{rule_id.ljust(width)}  {RULES[rule_id].summary}")
        return 0
    if args.write_baseline:
        # Writing replaces whatever baseline exists, so don't require one.
        baseline_path = args.baseline or DEFAULT_BASELINE
        result = lint_paths(args.paths, baseline=None, only=args.select)
        with open(baseline_path, "w", encoding="utf-8") as fh:
            fh.write(Baseline.render(result.findings))
        print(
            f"wrote {len(result.findings)} entr(y/ies) to {baseline_path} — "
            "replace every TODO with a tracking reference"
        )
        return 0
    try:
        baseline, _ = _load_baseline(args)
    except (LintError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = lint_paths(args.paths, baseline=baseline, only=args.select)
    if args.format == "json":
        _print_json(result, sys.stdout)
    else:
        _print_text(result, sys.stdout)
    return 0 if result.ok else 1


def main(argv: t.Sequence[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(prog="swjoin-lint")
    sub = parser.add_subparsers(dest="command", required=False)
    add_lint_parser(sub)
    raw = list(argv) if argv is not None else sys.argv[1:]
    if not raw or raw[0] != "lint":
        raw = ["lint", *raw]
    return cmd_lint(parser.parse_args(raw))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
