"""Pipeline-vs-FSDP crossover — the regime the 4D axis exists for.

ORBIT's Hybrid-STOP (paper Sec II) excludes pipeline parallelism,
citing its layer-count limit; the comparative literature (PAPERS.md:
layer-parallel training, the hybrid-parallelism design guide) predicts
the pipeline axis wins at a *fixed* GCD count in identifiable regimes.
This driver reproduces one such point with the 4D tuner.

The mechanism: activation memory is not sharded by FSDP (every rank
holds its own micro-batch), so at a large enough micro-batch every 3D
plan must either activation-checkpoint — re-paying 1/3 of the trunk
compute — or shard tensor-parallel, paying collectives and halving the
observations per step.  A 1F1B pipeline bounds in-flight activations
to ``min(S, M)/M`` of the fused step and holds only its stage's
parameters, so a ``pp>1`` plan fits un-checkpointed and pays only the
bubble ``(S-1)/(M+S-1)``: pipeline outranks recompute whenever
``M > 3*(S-1)``.

Default point: ORBIT-115M on 16 GCDs (2 nodes x 8) at micro-batch 32.
Every ``tp=1`` 3D plan exceeds device memory, the best fitting 3D plan
(``tp2 + recompute``) pays both penalties, and the 2-stage pipeline
wins on time per observation with the bubble visible in its breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import format_table
from repro.models.configs import ORBIT_115M, OrbitConfig
from repro.tune.estimator import AnalyticEstimator, Estimate
from repro.tune.search import InfeasibleRequest, simulate_candidate
from repro.tune.space import Candidate, TuneRequest, enumerate_space


@dataclass
class CrossoverRow:
    """One ranked plan of the fixed-GCD sweep."""

    candidate: Candidate
    estimate: Estimate
    simulated_step_s: float | None = None

    @property
    def pipelined(self) -> bool:
        return self.candidate.pp_size > 1


@dataclass
class CrossoverResult:
    config_name: str
    num_gpus: int
    gpus_per_node: int
    micro_batch: int
    #: Memory-feasible plans, best time-per-observation first.
    rows: list[CrossoverRow] = field(default_factory=list)
    oom_3d: int = 0
    oom_4d: int = 0

    def best(self, pipelined: bool) -> CrossoverRow:
        return next(row for row in self.rows if row.pipelined == pipelined)

    @property
    def crossed_over(self) -> bool:
        """True when the best 4D plan outranks the best 3D plan."""
        return (
            self.best(True).estimate.time_per_obs_s
            < self.best(False).estimate.time_per_obs_s
        )

    @property
    def speedup(self) -> float:
        """Best-3D time per observation over best-4D (> 1 == pipeline wins)."""
        return (
            self.best(False).estimate.time_per_obs_s
            / self.best(True).estimate.time_per_obs_s
        )

    def format(self, limit: int = 8) -> str:
        shown = list(self.rows[:limit])
        # Keep the two front-runners in frame even when one camp sweeps
        # the top of the ranking.
        for row in (self.best(False), self.best(True)):
            if row not in shown:
                shown.append(row)
        table_rows = []
        for row in shown:
            estimate = row.estimate
            table_rows.append([
                row.candidate.label(),
                f"{estimate.time_per_obs_s:.6f}",
                f"{estimate.bubble_s:.4f}" if row.pipelined else "-",
                f"{estimate.bubble_fraction:.3f}" if row.pipelined else "-",
                f"{estimate.peak_memory_bytes / 2**30:.1f} GiB",
                f"{row.simulated_step_s:.4f}"
                if row.simulated_step_s is not None else "-",
            ])
        best_3d, best_4d = self.best(False), self.best(True)
        verdict = (
            f"pipeline wins: {best_4d.candidate.label()} is {self.speedup:.2f}x "
            f"the best 3D plan {best_3d.candidate.label()} "
            f"(bubble {best_4d.estimate.bubble_s:.4f} s vs recompute/TP overheads)"
            if self.crossed_over
            else f"no crossover: best 3D plan {best_3d.candidate.label()} "
            f"still leads {best_4d.candidate.label()}"
        )
        return "\n".join([
            format_table(
                ["config", "t/obs", "bubble_s", "bubble_frac", "mem/GCD", "sim_step_s"],
                table_rows,
                title=(
                    f"Pipeline-vs-FSDP crossover: {self.config_name} on "
                    f"{self.num_gpus} GCDs x mb{self.micro_batch} "
                    f"({self.oom_3d} 3D / {self.oom_4d} 4D plans OOM-pruned)"
                ),
            ),
            "",
            verdict,
        ])


def run(
    config: OrbitConfig = ORBIT_115M,
    num_gpus: int = 16,
    gpus_per_node: int = 8,
    micro_batch: int = 32,
    pp_sizes: tuple[int, ...] = (1, 2),
    validate: bool = True,
) -> CrossoverResult:
    """Rank the 4D space at one fixed-GCD point; pin the micro-batch.

    The micro-batch is pinned (like Fig 6's operating regime) because
    the crossover is a statement about a *batch* workload: at small
    micro-batches every 3D plan fits un-checkpointed and the bubble has
    nothing to buy back.  ``validate=True`` also runs one real
    simulated engine step for the two front-runners — the same
    harness ``repro tune`` validates with — as an exactness check.

    Raises :class:`~repro.tune.search.InfeasibleRequest` when no 3D or
    no pipelined plan fits device memory: there is no crossover to rank.
    """
    request = TuneRequest(
        config, num_gpus, gpus_per_node=gpus_per_node,
        micro_batches=(micro_batch,),
        recompute_options=(False, True), prefetch_options=(True,),
        pp_sizes=pp_sizes,
    )
    estimator = AnalyticEstimator(config, num_gpus, gpus_per_node)
    space = enumerate_space(request)
    scored = [
        CrossoverRow(candidate, estimator.estimate(candidate))
        for candidate in space.candidates
    ]
    result = CrossoverResult(
        config_name=config.name, num_gpus=num_gpus,
        gpus_per_node=gpus_per_node, micro_batch=micro_batch,
    )
    result.rows = sorted(
        (row for row in scored if row.estimate.fits),
        key=lambda row: row.estimate.time_per_obs_s,
    )
    result.oom_3d = sum(
        1 for row in scored if not row.estimate.fits and not row.pipelined
    )
    result.oom_4d = sum(
        1 for row in scored if not row.estimate.fits and row.pipelined
    )
    for pipelined in (False, True):
        if not any(row.pipelined == pipelined for row in result.rows):
            raise InfeasibleRequest(
                f"no {'pipelined' if pipelined else '3D'} plan of "
                f"{config.name} fits {num_gpus} GCDs at micro-batch {micro_batch}",
                space,
            )
    if validate:
        for pipelined in (False, True):
            row = result.best(pipelined)
            row.simulated_step_s = simulate_candidate(
                request, row.candidate
            )["step_time_s"]
    return result
