"""Compare two sets of benchmark results, one row per workload and metric.

Usage, from the repository root:

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result records written by ``run.py --results DIR``
(untraced runs only are used). For every workload and end-to-end metric of
``BENCHMARK.json`` the table gives each side's median and quartiles and a
verdict:

- ``unresolved``: either side's quartile spread is wider than the bound, so
  the runs cannot tell, unless every run of the change beats every run of
  the base (``better, every run``);
- ``worse than bound``: the change's median is worse than the base's by
  more than the metric's bound;
- ``better``: the change wins at least nine tenths of the paired runs
  (ties count for neither) and the medians differ by more than the base's
  own quartile spread;
- ``within bound`` otherwise.

Exits 1 when any row is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(directory: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            by_workload.setdefault(record["workload"], []).append(record)
    for records in by_workload.values():
        records.sort(key=lambda r: r["seed"])
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], change: list[float], bound: float, higher_better: bool) -> str:
    def better(x: float, y: float) -> bool:
        return x > y if higher_better else x < y

    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    if (bq3 - bq1) / bmed > bound or (cq3 - cq1) / cmed > bound:
        if all(better(c, b) for c in change for b in base):
            return "better, every run"
        return "unresolved"
    worse_by = (bmed - cmed) / bmed if higher_better else (cmed - bmed) / bmed
    if worse_by > bound:
        return "worse than bound"
    pairs = list(zip(base, change))
    wins = sum(better(c, b) for b, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - bmed) > bq3 - bq1 and better(cmed, bmed):
        return "better"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    base, change = load(args.base), load(args.change)
    worse = False
    print(f"{'workload':14s} {'metric':16s} {'unit':6s} {'base median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'change':>8s}  verdict")
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload:14s} missing from {'base' if workload not in base else 'change'}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            v = verdict(b, c, metric["bound"], metric["better"] == "higher")
            worse = worse or v == "worse than bound"
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            base_col = f"{bmed:.5g} [{bq1:.5g}, {bq3:.5g}]"
            change_col = f"{cmed:.5g} [{cq1:.5g}, {cq3:.5g}]"
            print(f"{workload:14s} {name:16s} {metric['unit']:6s} {base_col:>32s} {change_col:>32s} "
                  f"{(cmed - bmed) / bmed:+8.1%}  {v} (runs {len(b)}/{len(c)})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
