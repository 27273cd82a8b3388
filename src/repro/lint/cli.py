"""The ``swjoin lint`` subcommand.

Examples::

    swjoin lint                        # lint src/repro
    swjoin lint src/repro tests        # explicit paths
    swjoin lint --select SIM001        # one rule only
    swjoin lint --list-rules

Exit status: 0 when nothing was found, 1 on any finding, 2 for usage
errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import sys
import typing as t

from repro.lint.engine import LintResult, lint_paths
from repro.lint.registry import RULES

__all__ = ["add_lint_parser", "cmd_lint", "main"]

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
        "--list-rules", action="store_true", help="list rule ids and exit"
    )


def _print_text(result: LintResult, stream: t.TextIO) -> None:
    for finding in result.findings:
        print(finding.render(), file=stream)
    print(f"swjoin lint: {result.summary()}", file=stream)


def _print_json(result: LintResult, stream: t.TextIO) -> None:
    payload = {
        "ok": result.ok,
        "findings": [f.to_record() for f in result.findings],
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
    result = lint_paths(args.paths, only=args.select)
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
