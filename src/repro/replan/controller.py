"""The ReplanController: should this run switch plans, and to what?

Consulted by the :class:`~repro.faults.supervisor.Supervisor` after
every committed step that has live degradation evidence.  One
evaluation is four moves:

1. **Project** the degraded topology (a
   :class:`~repro.replan.profile.DegradationProfile`) — done by the
   caller, from injector evidence and/or health findings.
2. **Re-price the candidate space** on that profile with the
   :class:`~repro.tune.estimator.AnalyticEstimator`: projected step
   time of the current plan vs every legal alternative that preserves
   the global batch (and therefore the data stream — the bitwise
   contract of an elastic switch).
3. **Compare the projected gain over the remaining horizon** — degraded
   step-time difference while the degradation window lasts, clean
   difference after it expires — against the
   :class:`~repro.replan.cost.MigrationCostModel` total.
4. **Decide**: switch only when the gain clears the migration cost by
   the hysteresis margin (a break-even switch would churn for nothing);
   otherwise stay — and a stay changes zero bytes of training state.

The controller is pure decision logic: it never touches the session.
Executing a switch (checkpoint -> rebuild -> resume) is the
Supervisor's job, so every mutation of training state stays on the one
code path that already owns recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.replan.cost import MigrationCostModel
from repro.replan.profile import DegradationProfile
from repro.tune.estimator import AnalyticEstimator
from repro.tune.space import Candidate, TuneRequest, enumerate_space
from repro.utils.logging import get_logger

_LOG = get_logger("replan")

#: Micro-batch axis of the alternative space (plus the spec's own);
#: candidates are filtered to the spec's observation count regardless,
#: so this only bounds the equal-batch factorization trades.
_MICRO_BATCHES = (1, 2, 4, 8)


@dataclass(frozen=True)
class ReplanDecision:
    """One evaluated migration decision (journaled as typed data)."""

    step: int
    action: str  # "stay" | "switch"
    reason: str
    profile_key: str
    current_label: str
    best_label: str
    #: Projected step seconds on the *degraded* machine.
    current_step_s: float
    best_step_s: float
    #: Projected step seconds on a clean machine (post-window regime).
    current_clean_step_s: float
    best_clean_step_s: float
    #: Walltime saved over the remaining horizon by switching now.
    projected_gain_s: float
    migration_cost_s: float
    hysteresis: float
    remaining_steps: int
    degraded_steps: int
    candidates_considered: int
    #: The chosen alternative as a :class:`~repro.tune.space.Candidate`
    #: (the executable form of ``best_label``); carried for the
    #: Supervisor's switch path, not serialized.
    best_candidate: Candidate | None = None

    @property
    def switch(self) -> bool:
        return self.action == "switch"

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "action": self.action,
            "reason": self.reason,
            "profile": self.profile_key,
            "current": self.current_label,
            "best": self.best_label,
            "current_step_s": self.current_step_s,
            "best_step_s": self.best_step_s,
            "current_clean_step_s": self.current_clean_step_s,
            "best_clean_step_s": self.best_clean_step_s,
            "projected_gain_s": self.projected_gain_s,
            "migration_cost_s": self.migration_cost_s,
            "hysteresis": self.hysteresis,
            "remaining_steps": self.remaining_steps,
            "degraded_steps": self.degraded_steps,
            "candidates_considered": self.candidates_considered,
        }


def candidate_of(spec) -> Candidate:
    """The tuner's view of a RunSpec's plan."""
    return Candidate(
        tp_size=spec.tp_size,
        fsdp_size=spec.fsdp_size,
        ddp_size=spec.ddp_size,
        micro_batch=spec.micro_batch,
        recompute=spec.recompute,
        prefetch=spec.prefetch,
        tp_innermost=spec.tp_innermost,
        pp_size=spec.pp_size,
    )


class ReplanController:
    """Analytic mid-run replanner for one supervised spec.

    Parameters
    ----------
    spec:
        The run being supervised (fixes model, world, and global batch).
    hysteresis:
        Extra margin the projected gain must clear beyond the migration
        cost (0.25 = gain must exceed cost by 25%).
    estimator:
        Injectable :class:`AnalyticEstimator` (tests, probe reuse).
    """

    def __init__(
        self,
        spec,
        *,
        hysteresis: float = 0.25,
        estimator: AnalyticEstimator | None = None,
    ):
        if not (math.isfinite(hysteresis) and hysteresis >= 0):
            raise ValueError(f"hysteresis {hysteresis} must be finite and non-negative")
        self.spec = spec
        self.hysteresis = float(hysteresis)
        self.micro_batches = tuple(sorted(set(_MICRO_BATCHES) | {spec.micro_batch}))
        #: Numeric runs keep to plans the sharded elastic resume can
        #: reach — same per-replica (pp, tp, fsdp) grid, DDP and
        #: micro-batch retraded — because their parameter shards live in
        #: the grid layout; a meta checkpoint is pure RNG + loop state,
        #: so meta runs may take any legal plan.
        self.elastic_only = not spec.meta
        self.estimator = estimator if estimator is not None else AnalyticEstimator(
            spec.config, spec.num_gpus, spec.gpus_per_node
        )
        #: estimate cache: (candidate, profile key) -> Estimate.
        self._estimates: dict[tuple, object] = {}

    # -- candidate space -------------------------------------------------------
    def alternatives(self, spec) -> list[Candidate]:
        """Legal same-world candidates preserving the observation count."""
        request = TuneRequest(
            config=spec.config,
            num_gpus=spec.num_gpus,
            gpus_per_node=spec.gpus_per_node,
            micro_batches=self.micro_batches,
            recompute_options=(False, True),
            prefetch_options=(spec.prefetch,),
            pp_sizes=(spec.pp_size,),
        )
        current = candidate_of(spec)
        out = []
        for candidate in enumerate_space(request).candidates:
            if candidate.observations != spec.observations:
                continue
            if self.elastic_only and (
                candidate.tp_size != spec.tp_size
                or candidate.fsdp_size != spec.fsdp_size
                or candidate.tp_innermost != spec.tp_innermost
                or candidate.recompute != spec.recompute
            ):
                continue
            if candidate == current:
                continue
            out.append(candidate)
        return out

    def _estimate(self, candidate: Candidate, profile) -> object:
        key = (candidate, profile.key() if profile is not None else "")
        if key not in self._estimates:
            self._estimates[key] = self.estimator.estimate(
                candidate, degradation=profile
            )
        return self._estimates[key]

    # -- the decision ----------------------------------------------------------
    def evaluate(
        self,
        spec,
        step: int,
        num_steps: int,
        profile: DegradationProfile,
        cost_model: MigrationCostModel,
    ) -> ReplanDecision:
        """Price current vs alternatives on ``profile``; decide.

        ``step`` is the next step to run; ``num_steps`` the run's step
        budget, so ``num_steps - step`` is the remaining horizon the
        projected gain integrates over.
        """
        current = candidate_of(spec)
        remaining = max(0, num_steps - step)
        degraded_steps = min(profile.remaining_steps, remaining)

        current_deg = self._estimate(current, profile)
        current_clean = self._estimate(current, None)

        def horizon_s(deg, clean) -> float:
            return (degraded_steps * deg.step_time_s
                    + (remaining - degraded_steps) * clean.step_time_s)

        def decision(action, reason, best_candidate, best_deg, best_clean,
                     gain, considered) -> ReplanDecision:
            return ReplanDecision(
                step=step,
                action=action,
                reason=reason,
                profile_key=profile.key(),
                current_label=current.label(),
                best_label=best_candidate.label(),
                current_step_s=current_deg.step_time_s,
                best_step_s=best_deg.step_time_s,
                current_clean_step_s=current_clean.step_time_s,
                best_clean_step_s=best_clean.step_time_s,
                projected_gain_s=gain,
                migration_cost_s=cost_model.total_s,
                hysteresis=self.hysteresis,
                remaining_steps=remaining,
                degraded_steps=degraded_steps,
                candidates_considered=considered,
                best_candidate=best_candidate,
            )

        if remaining <= 0:
            return decision("stay", "horizon exhausted", current,
                            current_deg, current_clean, 0.0, 0)

        best = None
        candidates = self.alternatives(spec)
        for candidate in candidates:
            deg = self._estimate(candidate, profile)
            if not deg.fits:
                continue
            clean = self._estimate(candidate, None)
            projected = horizon_s(deg, clean)
            if best is None or projected < best[0]:
                best = (projected, candidate, deg, clean)

        current_projected = horizon_s(current_deg, current_clean)
        if best is None:
            return decision("stay", "no feasible alternative",
                            current, current_deg, current_clean,
                            0.0, len(candidates))

        projected, candidate, deg, clean = best
        gain = current_projected - projected
        threshold = cost_model.total_s * (1.0 + self.hysteresis)
        if gain <= threshold:
            reason = (
                f"projected gain {gain:.6f} s does not clear migration "
                f"cost {cost_model.total_s:.6f} s x {1 + self.hysteresis:.2f}"
            )
            return decision("stay", reason, candidate, deg, clean,
                            gain, len(candidates))
        reason = (
            f"{candidate.label()} projects {gain:.6f} s gain over "
            f"{remaining} remaining step(s) ({degraded_steps} degraded), "
            f"vs {cost_model.total_s:.6f} s migration cost"
        )
        _LOG.info("replan switch at step %d: %s", step, reason)
        return decision("switch", reason, candidate, deg, clean,
                        gain, len(candidates))
