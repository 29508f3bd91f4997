"""Run orchestration: one Session/StepLoop spine under every consumer.

Every driver of the simulated Hybrid-STOP stack — the bench harness,
the traced-step capture, the tuner's validation stage, the experiment
scripts, and the trainers — used to rebuild the same
cluster → plan → engine → tracer → optimizer pipeline by hand.  This
package centralizes that construction:

* :class:`~repro.runtime.spec.RunSpec` — the validated description of
  what a Session executes: model config, machine topology, parallelism
  factors, the engine policies (prefetch, recompute, layer wrapping,
  rank layout, fold) and the run mode.  Topology/legality validation
  lives here, shared by the CLI, the bench harness, and the tuner's
  space enumeration.
* :class:`~repro.runtime.session.Session` — turns a RunSpec into the
  live stack (cluster + plan + engine + tracer + optimizer), in meta
  (shape-only) or numeric mode, and owns the checkpoint: ``save`` and
  ``resume``, where the archive decides how it is restored.
* :data:`~repro.runtime.tapes.STEP_TAPES` — the meta and numeric step
  tapes of the process, keyed by spec, so a rebuilt Session replays
  from its first step.
* :class:`~repro.runtime.steploop.StepLoop` — the hook-driven step
  driver (``on_step_start`` / ``on_step_end``) that the serial and
  distributed trainers, the fine-tuner, ``run_case``,
  ``run_traced_spec`` and the Supervisor all route through.
"""

from repro.runtime.spec import (
    RunSpec,
    RunSpecError,
    engine_legality_reason,
)
from repro.runtime.session import Session, build_cluster, fabricate_batch
from repro.runtime.tapes import STEP_TAPES
from repro.runtime.steploop import StepEvent, StepHooks, StepLoop
from repro.runtime.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointCorruptError,
    load_archive,
    save_archive,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointCorruptError",
    "RunSpec",
    "RunSpecError",
    "STEP_TAPES",
    "Session",
    "StepEvent",
    "StepHooks",
    "StepLoop",
    "build_cluster",
    "engine_legality_reason",
    "fabricate_batch",
    "load_archive",
    "save_archive",
]
