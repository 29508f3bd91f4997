"""Two-stage configuration search: analytic ranking, simulated validation.

Stage one scores every legal candidate with the
:class:`~repro.tune.estimator.AnalyticEstimator` (exact replay of the
engine's cost accounting, so the ranking *is* the simulated ranking)
and prunes candidates the memory model says will not fit.  Stage two
runs the top-k survivors through the real meta-mode engine via the
bench harness — the same code path the regression gate measures,
symmetry-folded wherever the candidate is eligible and exact per rank
otherwise — both as a belt-and-braces check on the analytic numbers
and to keep the winner's critical-path summary for the report.

Validation results are cached in a JSON file keyed by
``(model structure, topology, candidate)``, so re-tuning after an
unrelated code change replays instantly; the cache never feeds stage
one, which is cheap enough to always recompute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.tune.estimator import AnalyticEstimator, Estimate
from repro.tune.space import Candidate, SearchSpace, TuneRequest, enumerate_space
from repro.utils.artifacts import ArtifactFormatError, read_json, write_json
from repro.utils.logging import get_logger

_LOG = get_logger("tune")

#: Format version of the tune cache file.  Bumped to 2 when the label
#: schema grew the optional ``pp{S}.`` prefix for pipelined candidates.
CACHE_SCHEMA = 2


#: The fields :func:`_validation_summary` writes into every cache entry.
_ENTRY_FIELDS = ("step_time_s", "time_per_obs_s", "peak_memory_bytes",
                 "exposed_comm_fraction", "bound_resource", "critical_path")


class InfeasibleRequest(RuntimeError):
    """No candidate can run: everything was rejected or exceeds memory.

    Carries the enumerated :class:`SearchSpace` so the CLI can explain
    exactly why before exiting with status 2.
    """

    def __init__(self, message: str, space: SearchSpace):
        super().__init__(message)
        self.space = space


@dataclass
class ScoredCandidate:
    """A candidate with its analytic estimate and, for the top-k, the
    simulated measurement dict from the validation stage."""

    candidate: Candidate
    estimate: Estimate
    simulated: dict | None = None

    @property
    def simulated_step_time_s(self) -> float | None:
        return self.simulated["step_time_s"] if self.simulated else None

    @property
    def analytic_error(self) -> float | None:
        """Relative error of the analytic estimate vs the simulation."""
        if not self.simulated:
            return None
        sim = self.simulated["step_time_s"]
        return abs(self.estimate.step_time_s - sim) / sim if sim else 0.0


@dataclass(frozen=True)
class TuneResult:
    """Everything the report needs: ranking, validation, and pruning."""

    request: TuneRequest
    space: SearchSpace
    #: All memory-feasible candidates, best analytic time-per-observation
    #: (the Fig 6 throughput metric) first.
    ranked: tuple[ScoredCandidate, ...]
    #: Candidates pruned for exceeding device memory.
    oom_pruned: tuple[ScoredCandidate, ...]
    #: The top-k slice of ``ranked``, each with ``simulated`` filled in.
    validated: tuple[ScoredCandidate, ...]
    #: The validated candidate with the lowest *simulated* time per
    #: observation.
    winner: ScoredCandidate
    cache_hits: int = 0
    cache_misses: int = 0


class TuneCache:
    """JSON-file cache of simulated validation results.

    Keys combine the model's structural identity, the machine topology,
    and the candidate label, so a cache file can safely serve many
    models and machine sizes at once.  ``path=None`` keeps the cache
    in-memory only (tests, one-shot runs).

    A file that is torn, not a JSON object, or holds an entry
    :func:`_validation_summary` could not have written raises
    :class:`ArtifactFormatError` here, not a ``KeyError`` deep in a search;
    a file of another schema version is ignored with a warning.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            self._entries = self._load()

    def _load(self) -> dict[str, dict]:
        doc = read_json(self.path, "tune cache")
        if doc.get("schema") != CACHE_SCHEMA:
            _LOG.warning(
                "ignoring tune cache %s with schema %r",
                self.path, doc.get("schema"),
            )
            return {}
        entries = doc.get("entries", {})
        if not isinstance(entries, dict):
            raise ArtifactFormatError(
                f"tune cache {self.path}: 'entries' is not an object")
        for key, entry in entries.items():
            where = f"tune cache {self.path}: entry {key!r}"
            if not isinstance(entry, dict):
                raise ArtifactFormatError(f"{where} is not an object")
            for name in _ENTRY_FIELDS:
                if name not in entry:
                    raise ArtifactFormatError(f"{where} has no {name!r}")
            step = entry["step_time_s"]
            if (not isinstance(step, (int, float)) or isinstance(step, bool)
                    or not math.isfinite(step)):
                raise ArtifactFormatError(
                    f"{where}: 'step_time_s' cannot be {step!r}")
        return entries

    @staticmethod
    def key(request: TuneRequest, candidate: Candidate) -> str:
        """Cache key: model structure, machine topology, candidate —
        and, when the request prices a *degraded* machine, the
        degradation profile.  The degraded component is appended only
        when present, so every clean-topology key (and the entries
        existing cache files hold under them) is unchanged.
        """
        parts = [request.config.key(), request.topology_key(),
                 candidate.label()]
        if request.degradation_key:
            parts.append(f"degraded={request.degradation_key}")
        return "|".join(parts)

    def get(self, request: TuneRequest, candidate: Candidate) -> dict | None:
        entry = self._entries.get(self.key(request, candidate))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, request: TuneRequest, candidate: Candidate, value: dict) -> None:
        self._entries[self.key(request, candidate)] = value

    def __len__(self) -> int:
        return len(self._entries)

    def save(self) -> None:
        """Write the file whole or not at all (:func:`write_json`) — a crash
        mid-save leaves the previous cache loadable, never a torn one."""
        if self.path is not None:
            write_json(self.path, {"schema": CACHE_SCHEMA, "entries": self._entries},
                       sort_keys=True)


def simulate_candidate(request: TuneRequest, candidate: Candidate) -> dict:
    """One real meta-mode engine step of ``candidate``, as a plain dict.

    Runs through :func:`repro.bench.harness.run_case` — the exact
    harness the regression gate measures — and keeps a compact
    critical-path summary of the trace for the report.

    The step is symmetry-folded wherever
    :func:`~repro.cluster.symmetry.decide_fold` finds the candidate
    eligible (an exact per-rank step otherwise).  The same case run
    with ``fold="off"`` is the oracle: every field of the dict is
    ``==`` except ``exposed_comm_fraction``, which may differ in the
    last bits (≤ 1e-12 relative) because the folded trace sums
    members-weighted class spans where the exact one sums per-rank
    spans — so cache entries written by either kind of step stay valid.
    """
    from repro.bench.harness import run_case

    return _validation_summary(
        run_case(_validation_case(request, candidate), config=request.config)
    )


def _validation_case(request: TuneRequest, candidate: Candidate):
    from repro.bench.harness import BenchCase

    return BenchCase(
        name=candidate.label(),
        model=request.config.name,
        num_gpus=request.num_gpus,
        gpus_per_node=request.gpus_per_node,
        tp_size=candidate.tp_size,
        fsdp_size=candidate.fsdp_size,
        ddp_size=candidate.ddp_size,
        micro_batch=candidate.micro_batch,
        pp_size=candidate.pp_size,
        prefetch=candidate.prefetch,
        recompute=candidate.recompute,
        tp_innermost=candidate.tp_innermost,
        fold="on",
    )


def _validation_summary(record) -> dict:
    """The cached dict of one validated step, from its bench record."""
    overall = record.decomposition.overall
    critical = overall.ranks[overall.critical_rank]
    by_op = sorted(
        ((op, s) for op, s in overall.exposed_comm_by_op.items() if s > 0),
        key=lambda kv: kv[1], reverse=True,
    )
    return {
        "step_time_s": record.step_time_s,
        "time_per_obs_s": record.time_per_obs_s,
        "peak_memory_bytes": record.peak_memory_bytes,
        "exposed_comm_fraction": record.exposed_comm_fraction,
        "bound_resource": record.bound_resource,
        "critical_path": {
            "critical_rank": overall.critical_rank,
            "compute_s": critical.compute_s,
            "exposed_comm_s": critical.exposed_comm_s,
            "hidden_comm_s": critical.hidden_comm_s,
            "exposed_comm_by_op": dict(by_op[:8]),
        },
    }


def score_space(space: SearchSpace, estimator: AnalyticEstimator):
    """Stage one: score every legal candidate.  Returns the ones that
    fit, ranked by throughput — walltime per observation, the paper's
    Fig 6 metric, since the FSDP/DDP axes multiply the global batch —
    and the memory-pruned ones, smallest predicted peak first."""
    scored = [
        ScoredCandidate(candidate, estimator.estimate(candidate))
        for candidate in space.candidates
    ]
    feasible = sorted(
        (s for s in scored if s.estimate.fits),
        key=lambda s: s.estimate.time_per_obs_s,
    )
    oom = tuple(sorted(
        (s for s in scored if not s.estimate.fits),
        key=lambda s: s.estimate.peak_memory_bytes,
    ))
    return feasible, oom


def run_search(
    request: TuneRequest,
    top_k: int = 3,
    cache: TuneCache | None = None,
    estimator: AnalyticEstimator | None = None,
) -> TuneResult:
    """Enumerate, score, prune, and validate; return the full picture.

    Raises :class:`InfeasibleRequest` when no candidate is both legal
    and memory-feasible — the CLI maps that to exit status 2.
    """
    if not request.engine_mode:
        raise ValueError(
            "run_search needs engine_mode=True: relaxed-mode candidates "
            "cannot be simulated for validation"
        )
    if top_k < 1:
        raise ValueError("top_k must be positive")
    space = enumerate_space(request)
    if not space.candidates:
        reasons = "; ".join(
            f"{reason} (x{count})"
            for reason, count in sorted(space.rejection_reasons().items())
        )
        raise InfeasibleRequest(
            f"no legal configuration for {request.config.name} on "
            f"{request.num_gpus} GPUs: {reasons}",
            space,
        )
    if estimator is None:
        estimator = AnalyticEstimator(
            request.config, request.num_gpus, request.gpus_per_node
        )
    _LOG.info(
        "tune %s on %d GPUs: scoring %d candidates (%d rejected)",
        request.config.name, request.num_gpus,
        len(space.candidates), len(space.rejections),
    )
    feasible, oom = score_space(space, estimator)
    if not feasible:
        raise InfeasibleRequest(
            f"all {len(oom)} legal configurations of {request.config.name} "
            f"exceed device memory on {request.num_gpus} GPUs "
            "(smallest predicted peak "
            f"{oom[0].estimate.peak_memory_bytes / 2**30:.1f} GiB)",
            space,
        )

    if cache is None:
        cache = TuneCache()
    top = feasible[: min(top_k, len(feasible))]
    for entry in top:
        simulated = cache.get(request, entry.candidate)
        if simulated is None:
            simulated = simulate_candidate(request, entry.candidate)
            cache.put(request, entry.candidate, simulated)
        entry.simulated = simulated
    cache.save()

    winner = min(top, key=lambda s: s.simulated["time_per_obs_s"])
    _LOG.info(
        "tune winner: %s, simulated step %.6f s (analytic %.6f s)",
        winner.candidate.label(),
        winner.simulated["step_time_s"], winner.estimate.step_time_s,
    )
    return TuneResult(
        request=request,
        space=space,
        ranked=tuple(feasible),
        oom_pruned=oom,
        validated=tuple(top),
        winner=winner,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
