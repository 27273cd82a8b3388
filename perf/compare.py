#!/usr/bin/env python3
"""Compare two results of ``perf/run.py --out``: ``compare.py A.json B.json``.

For every workload x end-to-end metric, prints both values, the ratio
B/A (A is the base) and a verdict against the bound fixed in
``BENCHMARK.json``: ``worse`` when B is worse than A by more than the
bound, ``better`` when it is better by more than the bound, else ``ok``.
A workload with failed runs on side B is ``worse`` whatever it measured.
Exits 1 on any ``worse``.
"""

from __future__ import annotations

import json
import os
import sys
import typing as t

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(a: float, b: float, better: str, bound: float) -> str:
    # Signed change in the "worse" direction, as a share of the base.
    worsening = (b - a) / a if better == "lower" else (a - b) / a
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "ok"


def load(path: str) -> dict[str, t.Any]:
    with open(path) as handle:
        return json.load(handle)


def main(argv: t.Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, other = (load(path)["workloads"] for path in argv)
    declared = load(os.path.join(ROOT, "BENCHMARK.json"))
    worse = 0
    print(f"{'workload':<12}{'metric':<18}{'A':>14}{'B':>14}"
          f"{'B/A':>8}{'bound':>7}  verdict")
    for spec in declared["workloads"]:
        name = spec["name"]
        if name not in base or name not in other:
            print(f"{name:<12}missing from one side" + " " * 40 + "worse")
            worse += 1
            continue
        if other[name]["failed"] or not other[name]["correct"]:
            print(f"{name:<12}B had {other[name]['failed']} failed run(s), "
                  f"correct={other[name]['correct']}".ljust(75) + "worse")
            worse += 1
        for metric in declared["end_to_end"]:
            key = metric["name"]
            try:
                a = base[name]["end_to_end"][key]["value"]
                b = other[name]["end_to_end"][key]["value"]
            except KeyError:
                print(f"{name:<12}{key:<18}not measured".ljust(75) + "worse")
                worse += 1
                continue
            word = verdict(a, b, metric["better"], metric["bound"])
            worse += word == "worse"
            print(f"{name:<12}{key:<18}{a:>14.6g}{b:>14.6g}"
                  f"{b / a:>8.3f}{metric['bound']:>7.2f}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
