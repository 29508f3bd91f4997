"""Correctness oracle: simulated results must not move with host time.

``reference.json`` pins, per workload, the simulated statistics of one
pass.  ``drift`` is the largest relative deviation of a run's results
from them; integers and strings compare exactly (a mismatch counts as
a drift of 1).  Workloads marked ``"seeded": true`` have results that
depend on ``--seed`` (weights, data), so the pinned values apply at
seed 0 only; at any other seed the oracle is determinism — every pass
of the run must equal the first.
"""

from __future__ import annotations

import json

from workloads import HERE, REPO

REFERENCE = HERE / "reference.json"

#: Where each workload's pinned values were copied from.
COMMITTED = {
    "frontier-fold": "BENCH_obs.json",
    "exact-step": "BENCH_obs.json",
    "serve-mix": "BENCH_serve.json",
}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def drift(results: dict, expected: dict) -> float:
    """Max relative deviation of ``results`` from ``expected``."""
    if results.keys() != expected.keys():
        return 1.0
    worst = 0.0
    for key, want in expected.items():
        got = results[key]
        if isinstance(want, float) and isinstance(got, float):
            scale = max(abs(want), 1e-300)
            worst = max(worst, abs(got - want) / scale)
        elif got != want:
            return 1.0
    return worst


def expected_results(reference: dict, workload: str, seed: int) -> dict | None:
    """The pinned results that apply to this run, if any do."""
    entry = reference["workloads"][workload]
    if entry["seeded"] and seed != 0:
        return None
    return entry["results"]


def committed_disagreements(reference: dict | None = None) -> list[str]:
    """Where ``reference.json`` differs from the committed BENCH_*.json."""
    reference = reference if reference is not None else load_reference()
    problems = []
    for workload, filename in COMMITTED.items():
        cases = json.loads((REPO / filename).read_text())["cases"]
        pinned = reference["workloads"][workload]["results"]
        for key, value in pinned.items():
            case, field = key.split(".")
            committed = cases.get(case, {}).get(field)
            if committed != value:
                problems.append(
                    f"{workload}: {key} is {value!r} in reference.json but "
                    f"{committed!r} in {filename}"
                )
    return problems
