"""Online adaptive re-planning: mid-run plan migration.

``repro.replan`` turns the fault injector's live degradations into a typed
decision — stay on the current parallelism plan, or checkpoint, rebuild
and resume on a better one — priced against the run's own goodput
history.  See :mod:`repro.replan.controller` for the decision
procedure, :mod:`repro.replan.profile` for the degraded-machine model,
and :mod:`repro.replan.cost` for the migration cost model.
"""

from repro.replan.controller import ReplanController, ReplanDecision, candidate_of
from repro.replan.cost import MigrationCostModel
from repro.replan.profile import DegradationProfile

__all__ = [
    "DegradationProfile",
    "MigrationCostModel",
    "ReplanController",
    "ReplanDecision",
    "candidate_of",
]
