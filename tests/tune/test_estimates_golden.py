"""Every estimate of the ``tune-4d`` sweep, pinned bit for bit.

``estimator == simulation`` compares the estimator with the engine, so
a change that touches both is only ever checked against itself.  This
golden is the outside reference: ``float.hex()`` of the timing fields
of all 304 candidates of the ``tune-4d`` request (``orbit-1b``, 32
GCDs, micro-batch 2 and 4, pp 1 and 2), plus every seventh candidate
re-priced under one fixed :class:`~repro.replan.DegradationProfile`.

Regenerate (only for a deliberate modeled-time change, in the same PR)::

    PYTHONPATH=src python tests/tune/test_estimates_golden.py --regen
"""

import json
import sys
from pathlib import Path

from repro.models import PAPER_MODELS
from repro.replan import DegradationProfile
from repro.tune import AnalyticEstimator, TuneRequest, enumerate_space

GOLDEN = Path(__file__).parent / "data" / "estimates_golden.json"
FIELDS = ("step_time_s", "compute_s", "comm_s", "exposed_comm_s", "bubble_s")

#: A straggler on a stage-0 and on a stage-1 rank (of the pp = 2
#: layouts), a slow link on each side of the stage cut.
PROFILE = DegradationProfile(
    compute=((1, 2.5), (18, 1.75)), links=((0, 3.0), (21, 1.5)),
    remaining_steps=4,
)
#: Stride of the candidates re-priced under :data:`PROFILE` (coprime to
#: the eight policy variants of a layout, so every variant is drawn).
DEGRADED_STRIDE = 7


def hexes(estimate) -> list[str]:
    return [float(getattr(estimate, name)).hex() for name in FIELDS]


def compute_estimates() -> dict:
    request = TuneRequest(PAPER_MODELS["orbit-1b"], 32, micro_batches=(2, 4),
                          pp_sizes=(1, 2))
    candidates = enumerate_space(request).candidates
    estimator = AnalyticEstimator(
        request.config, request.num_gpus, request.gpus_per_node)
    return {
        "fields": list(FIELDS),
        "clean": {c.label(): hexes(estimator.estimate(c))
                  for c in candidates},
        "degraded": {c.label(): hexes(estimator.estimate(c, PROFILE))
                     for c in candidates[::DEGRADED_STRIDE]},
    }


def test_every_estimate_equals_the_golden():
    want = json.loads(GOLDEN.read_text())
    got = compute_estimates()
    assert len(got["clean"]) == 304
    assert len(got["degraded"]) == 44
    assert got["fields"] == want["fields"]
    for section in ("clean", "degraded"):
        assert list(got[section]) == list(want[section])
        mismatched = {label: (got[section][label], want[section][label])
                      for label in want[section]
                      if got[section][label] != want[section][label]}
        assert not mismatched, f"{section}: {mismatched}"


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/tune/test_estimates_golden.py --regen")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_estimates(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
