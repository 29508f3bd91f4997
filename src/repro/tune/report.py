"""Human- and machine-readable output for tune results.

:func:`render_report` prints the ranked table (analytic time, memory,
exposed-communication share, and — for the validated top-k — the
simulated step time and the analytic error against it), the why-pruned
explanations grouped by reason, and a critical-path breakdown of the
winner.  :func:`result_document` is the JSON mirror of the same
information (``repro tune --out``), and :func:`write_report` puts it on
disk.
"""

from __future__ import annotations

from pathlib import Path

from repro.tune.search import ScoredCandidate, TuneResult
from repro.utils.artifacts import write_json

#: Format version of the ``repro tune --out`` document.
REPORT_SCHEMA = 1


def _gib(nbytes: float) -> str:
    return f"{nbytes / 2**30:.2f} GiB"


def _ranked_rows(result: TuneResult, limit: int) -> list[list[str]]:
    rows = []
    for index, entry in enumerate(result.ranked[:limit], start=1):
        estimate = entry.estimate
        simulated = entry.simulated_step_time_s
        error = entry.analytic_error
        rows.append([
            str(index),
            entry.candidate.label(),
            f"{estimate.step_time_s:.6f}",
            f"{estimate.time_per_obs_s:.6f}",
            f"{estimate.exposed_comm_fraction:.3f}",
            f"{estimate.bubble_s:.6f}" if estimate.bubble_s else "-",
            _gib(estimate.peak_memory_bytes),
            f"{simulated:.6f}" if simulated is not None else "-",
            f"{error:.2%}" if error is not None else "-",
        ])
    return rows


def render_report(result: TuneResult, limit: int = 12) -> str:
    """The full text report for one tune run."""
    from repro.experiments.common import format_table

    request = result.request
    lines = [
        f"repro tune: {request.config.name} on {request.num_gpus} GPUs "
        f"({request.nodes} nodes x {request.gpus_per_node})",
        f"  legal candidates: {len(result.space.candidates)}"
        f" | memory-feasible: {len(result.ranked)}"
        f" | validated: {len(result.validated)}"
        f" | cache: {result.cache_hits} hits / {result.cache_misses} misses",
        "",
        format_table(
            ["#", "config", "est_step_s", "est_s/obs", "exp-comm",
             "bubble_s", "est peak", "sim_step_s", "err"],
            _ranked_rows(result, limit),
            title="Ranked configurations (analytic estimate; top-k simulated)",
        ),
    ]
    if len(result.ranked) > limit:
        lines.append(f"  ... and {len(result.ranked) - limit} more")

    pruned = result.space.rejection_reasons()
    if pruned or result.oom_pruned:
        lines += ["", "Why configurations were pruned:"]
        for reason, count in sorted(pruned.items()):
            lines.append(f"  - {reason}  (x{count})")
        if result.oom_pruned:
            worst = result.oom_pruned[0]
            lines.append(
                f"  - predicted peak exceeds device memory "
                f"(x{len(result.oom_pruned)}; closest: "
                f"{worst.candidate.label()} at "
                f"{_gib(worst.estimate.peak_memory_bytes)})"
            )

    winner = result.winner
    path = winner.simulated["critical_path"]
    lines += [
        "",
        f"Winner: {winner.candidate.label()}",
        f"  simulated step {winner.simulated['step_time_s']:.6f} s "
        f"({winner.simulated['time_per_obs_s']:.6f} s/obs), "
        f"analytic error {winner.analytic_error:.2%}",
        f"  predicted peak memory {_gib(winner.estimate.peak_memory_bytes)}, "
        f"{winner.simulated['bound_resource']}-bound",
        f"  critical path (rank {path['critical_rank']}): "
        f"compute {path['compute_s']:.6f} s"
        f" + exposed comm {path['exposed_comm_s']:.6f} s"
        f" (hidden {path['hidden_comm_s']:.6f} s)",
    ]
    by_op = path.get("exposed_comm_by_op") or {}
    if by_op:
        lines.append("  exposed communication by op:")
        for op, seconds in by_op.items():
            lines.append(f"    {op:<20s} {seconds:.6f} s")
    return "\n".join(lines)


def recovery_recommendation(
    result: TuneResult,
    mtbf_s: float,
    checkpoint_cost_s: float = 30.0,
    restart_latency_s: float = 120.0,
) -> dict:
    """Recovery-aware checkpoint cadence for the tune winner: the
    Young/Daly :func:`~repro.faults.goodput.checkpoint_plan` at its
    *simulated* step time (``repro faults --checkpoint-every`` units)."""
    from repro.faults.goodput import checkpoint_plan

    step_s = result.winner.simulated["step_time_s"]
    return {
        "mtbf_s": mtbf_s,
        "checkpoint_cost_s": checkpoint_cost_s,
        "restart_latency_s": restart_latency_s,
        "step_time_s": step_s,
        **checkpoint_plan(mtbf_s, checkpoint_cost_s, restart_latency_s, step_s),
    }


def render_recovery(recommendation: dict) -> str:
    """Text form of :func:`recovery_recommendation`."""
    rec = recommendation
    return "\n".join([
        f"Recovery-aware checkpointing (MTBF {rec['mtbf_s']:.0f} s, "
        f"checkpoint cost {rec['checkpoint_cost_s']:.0f} s, "
        f"restart latency {rec['restart_latency_s']:.0f} s):",
        f"  checkpoint every {rec['checkpoint_interval_s']:.1f} s "
        f"= {rec['checkpoint_every_steps']} step(s) of "
        f"{rec['step_time_s']:.6f} s",
        f"  expected goodput fraction {rec['goodput_fraction']:.4f}",
    ])


def _scored_dict(entry: ScoredCandidate) -> dict:
    estimate = entry.estimate
    out = {
        "config": entry.candidate.label(),
        "pp_size": entry.candidate.pp_size,
        "tp_size": entry.candidate.tp_size,
        "fsdp_size": entry.candidate.fsdp_size,
        "ddp_size": entry.candidate.ddp_size,
        "micro_batch": entry.candidate.micro_batch,
        "recompute": entry.candidate.recompute,
        "prefetch": entry.candidate.prefetch,
        "tp_innermost": entry.candidate.tp_innermost,
        "estimate": {
            "step_time_s": estimate.step_time_s,
            "time_per_obs_s": estimate.time_per_obs_s,
            "compute_s": estimate.compute_s,
            "comm_s": estimate.comm_s,
            "exposed_comm_s": estimate.exposed_comm_s,
            "exposed_comm_fraction": estimate.exposed_comm_fraction,
            "bubble_s": estimate.bubble_s,
            "bubble_fraction": estimate.bubble_fraction,
            "peak_memory_bytes": estimate.peak_memory_bytes,
            "fits": estimate.fits,
        },
    }
    if entry.simulated is not None:
        out["simulated"] = entry.simulated
        out["analytic_error"] = entry.analytic_error
    return out


def result_document(result: TuneResult) -> dict:
    """The JSON document for ``repro tune --out``."""
    request = result.request
    return {
        "schema": REPORT_SCHEMA,
        "request": {
            "model": request.config.name,
            "config_key": request.config.key(),
            "topology_key": request.topology_key(),
            "num_gpus": request.num_gpus,
            "gpus_per_node": request.gpus_per_node,
            "micro_batches": list(request.micro_batches),
            "pp_sizes": list(request.pp_sizes),
            "recompute_options": list(request.recompute_options),
            "prefetch_options": list(request.prefetch_options),
        },
        "space": {
            "candidates": len(result.space.candidates),
            "feasible": len(result.ranked),
            "oom_pruned": len(result.oom_pruned),
            "rejections": [
                {
                    "pp_size": r.pp_size,
                    "tp_size": r.tp_size,
                    "fsdp_size": r.fsdp_size,
                    "ddp_size": r.ddp_size,
                    "tp_innermost": r.tp_innermost,
                    "reason": r.reason,
                }
                for r in result.space.rejections
            ],
        },
        "ranked": [_scored_dict(entry) for entry in result.ranked],
        "winner": _scored_dict(result.winner),
        "cache": {"hits": result.cache_hits, "misses": result.cache_misses},
    }


def write_report(result: TuneResult, path) -> Path:
    """Write :func:`result_document` as JSON; returns the path."""
    return write_json(path, result_document(result), sort_keys=True)
