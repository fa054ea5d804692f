"""Medians and quartiles of each metric across stored benchmark runs.

Usage::

    python3 bench/summarize.py [--trace 0|1]

Reads the run records that ``run.py`` writes under ``.bench_results/`` and
prints, per workload and metric, the number of runs, the median, the first
and third quartiles and the spread (interquartile distance over the
median).  For end-to-end metrics it also prints the bound from
``BENCHMARK.json`` and flags spreads above a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"


def load_records(trace: int) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(RESULTS.glob(f"*/seed*-trace{trace}-*.json")):
        record = json.loads(path.read_text())
        by_workload[record["workload"]].append(record)
    return by_workload


def bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    limit = bounds() if args.trace == 0 else {}
    steady = True
    for workload, records in sorted(load_records(args.trace).items()):
        seeds = sorted({r["environment"]["seed"] for r in records})
        wrong = sum(not r["correct"] for r in records)
        print(f"{workload}: {len(records)} runs, seeds {seeds}, {wrong} incorrect")
        for name in records[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in records]
            unit = records[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("inf")
            line = (f"  {name:45s} median {med:12.6g} {unit:14s} "
                    f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.3f}")
            if name in limit:
                ok = spread <= limit[name] / 3
                steady &= ok
                line += f"  bound {limit[name]:.2f}{'' if ok else '  WIDE'}"
            print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
