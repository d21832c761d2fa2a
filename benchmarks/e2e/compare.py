"""Compare two checkouts on the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py --parent ../parent --change . [--pairs 10]
        [--workload paper --workload collect ...]

The same benchmark code (this directory's ``run.py``) measures both
trees: each run's working directory is the tree, whose ``src/`` holds
the program under test.  Pair ``i`` runs every workload on both sides
at seed ``i`` for ``run_seconds`` of ``BENCHMARK.json``; even pairs run
the parent first, odd pairs the change, so drift in machine load hits
both sides alike.  At least ten pairs are run.

Every (end-to-end metric, workload) gets its own row with each side's
median and quartiles and one verdict, using the bounds in
``BENCHMARK.json``:

* ``improved`` — the change wins at least nine tenths of the pairs
  (ties count for neither), its median differs from the parent's by
  more than the parent's own quartile spread, and no more operations
  fail than on the parent;
* ``regressed`` — the change's median is worse than the parent's by
  more than the bound, and the parent's spread is within the bound (or
  every change run is worse than every parent run);
* ``unresolved`` — the parent's runs spread wider than the bound, and
  not every change run is better than every parent run;
* ``no-worse`` — otherwise.

The failed-operation share of each side is reported per workload.  The
exit code is 1 when a run breaks or a row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
#: Fewest pairs a verdict may rest on.
MIN_PAIRS = 10


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run against ``tree`` for the benchmark's
    ``run_seconds``; returns its result line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} on {tree} (seed {seed}) exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def verdict(parent: List[float], change: List[float], better: str,
            bound: float, more_failures: bool) -> str:
    """Classify one (metric, workload) row; the lists are paired by run."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = (q3 - q1) / abs(p_med)
    worse = sign * (c_med - p_med) / abs(p_med)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    all_worse = min(sign * c for c in change) > max(sign * p for p in parent)
    if (wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1
            and not more_failures):
        return "improved"
    if worse > bound and (spread <= bound or all_worse):
        return "regressed"
    if spread > bound and not all_better:
        return "unresolved"
    return "no-worse"


def _quartiles(values: List[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]])
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    results: Dict[str, Dict[str, List[dict]]] = defaultdict(lambda: defaultdict(list))
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                try:
                    results[workload][side].append(
                        run_once(sides[side], workload, seed=pair))
                except RuntimeError as error:
                    print(error, file=sys.stderr)
                    return 1
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    status = 0
    print(f"{'workload':12s} {'metric':12s} {'parent median [q1, q3]':36s} "
          f"{'change median [q1, q3]':36s} {'delta':>8s}  verdict")
    for workload in workloads:
        runs = results[workload]
        shares = {side: sum(r["failed"] for r in runs[side])
                  / sum(r["attempted"] for r in runs[side]) for side in sides}
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
            call = verdict(parent, change, metric["better"], metric["bound"],
                           shares["change"] > shares["parent"])
            status |= call == "regressed"
            delta = statistics.median(change) / statistics.median(parent) - 1
            print(f"{workload:12s} {name:12s} {_quartiles(parent):36s} "
                  f"{_quartiles(change):36s} {delta:+8.2%}  {call}")
        print(f"{workload:12s} failed-operation share: parent "
              f"{shares['parent']:.4%}, change {shares['change']:.4%}")
    return status


if __name__ == "__main__":
    sys.exit(main())
