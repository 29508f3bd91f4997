"""Run N full sets of the same code and compare them to the bounds.

    python bench_wall/repeat.py [--sets N] [--seed S] [--workload NAME]...

Set ``i`` runs ``run.py --seed S+i`` (untraced).  For every (end-to-end
metric, workload) pair the spread of the N values is the distance
between their first and third quartile (``statistics.quantiles``,
``n=4``) as a share of their median — for N = 2 that is 1.5 times the
difference over the mean.  The exit status is non-zero when a spread
exceeds the metric's bound in ``BENCHMARK.json`` or a set fails its
oracle: the same code disagreeing with itself by more than the bound
means the bound cannot gate anything.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def run_set(seed: int, workloads: list[str]) -> dict:
    """One ``run.py`` invocation; returns ``{workload: report}``."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"repeat-seed{seed}.json"
    command = [sys.executable, str(HERE / "run.py"), "--seed", str(seed),
               "--json", str(path)]
    for name in workloads:
        command += ["--workload", name]
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        raise SystemExit(f"repeat: set with seed {seed} exited "
                         f"{done.returncode}")
    return json.loads(path.read_text())["workloads"]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", default=[],
                        metavar="NAME")
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be at least 2")

    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sets = [run_set(args.seed + i, args.workload) for i in range(args.sets)]

    any_over = False
    print(f"{'workload':<18} {'metric':<12} {'median':>10} {'min':>10} "
          f"{'max':>10} {'spread':>8} {'bound':>6}")
    for name in sets[0]:
        for metric in contract["end_to_end"]:
            values = [s[name]["end_to_end"][metric["name"]] for s in sets]
            share = spread(values)
            over = share > metric["bound"]
            any_over = any_over or over
            print(f"{name:<18} {metric['name']:<12} "
                  f"{statistics.median(values):>10.4f} {min(values):>10.4f} "
                  f"{max(values):>10.4f} {share:>8.2%} "
                  f"{metric['bound']:>6.0%}{'  OVER' if over else ''}")
    return 1 if any_over else 0


if __name__ == "__main__":
    sys.exit(main())
