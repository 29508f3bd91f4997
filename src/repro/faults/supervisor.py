"""The self-healing supervisor: detect, classify, recover, account.

Wraps a :class:`~repro.runtime.session.Session` /
:class:`~repro.runtime.steploop.StepLoop` pair and drives a step budget
to completion *through* the faults a
:class:`~repro.faults.plan.FaultPlan` injects:

* **transient** faults (collective timeouts) are retried in place with
  exponential backoff — the step's RNG state is rewound first, so the
  retried step consumes the exact batch the failed attempt did;
* **crashes** (GPU loss) trigger checkpoint-rollback restart: a fresh
  incarnation of the session resumes from the latest sharded archive
  and replays the lost steps, reproducing the fault-free trajectory
  bitwise (the fire-once injector never re-kills a replayed step);
* **node loss** is permanent: the supervisor rebuilds the
  :class:`~repro.runtime.spec.RunSpec` with a shrunken DDP axis
  (micro-batch rescaled so the global batch — and therefore the data
  stream — is preserved), remaps surviving ranks, and resumes
  elastically from the archive;
* **gradient corruption** never reaches the parameters: the numeric
  trainer's grad scaler backs off and skips the step, and the skip is
  charged to the goodput ledger.

Every recovery path is charged to a :class:`~repro.faults.goodput.
GoodputLedger`, so the final :class:`~repro.faults.report.
RecoveryReport` attributes exactly where the walltime went.

It is one explicit machine, drawn in DESIGN.md: *run* -> fault ->
``_recover`` -> {retry | rollback | regroup | migrate} -> ``_restart``
-> *run*, with one checkpoint writer (``_save``) and one ``Session``
construction site (``_build_session``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.faults.errors import (
    ElasticRecoveryError,
    FatalFaultError,
    FaultError,
    NodeLossError,
    TransientFaultError,
)
from repro.faults.goodput import GoodputLedger
from repro.faults.injector import FaultInjector
from repro.faults.plan import DEGRADATION_KINDS, FaultPlan
from repro.faults.report import RecoveryEvent, RecoveryReport
from repro.utils.logging import get_logger

_LOG = get_logger("faults.supervisor")

#: Transient recovery: a failed attempt is detected after this window,
#: and retry ``n`` waits ``_BACKOFF_BASE_S * 2**(n - 1)`` first.
_DETECT_TIMEOUT_S = 0.5
_BACKOFF_BASE_S = 0.05


@dataclass
class _Attempt:
    """One step's trip through the machine."""

    step: int
    #: Timeline walltime when the current try began.
    t0: float = 0.0
    #: In-place retries so far, and what they cost (dead tries + backoff).
    retries: int = 0
    lost_s: float = 0.0
    #: The transient fault the latest retry answered.
    fault: FaultError | None = None


class Supervisor:
    """Drive a spec through a fault plan to completion.

    Parameters
    ----------
    spec:
        The run to protect (meta or numeric mode).
    plan:
        The deterministic fault schedule (may be empty).
    checkpoint_every / checkpoint_dir:
        Periodic durable checkpoints — the rollback target for crash
        and node-loss recovery.  ``checkpoint_every=0`` disables them;
        recovery then restarts from step 0 (still bitwise-correct,
        just expensive).
    retry_budget:
        Transient recovery: at most ``retry_budget`` in-place retries,
        with exponential backoff delays charged to the ledger; each
        failed attempt also pays the detection window.
    restart_latency_s / checkpoint_cost_s:
        Simulated cost-model charges for an incarnation restart and
        for writing one checkpoint.
    max_restarts:
        Hard cap on incarnations (defense against a plan that kills
        every replay; a fire-once plan never hits it).
    health_every:
        Run :meth:`~repro.runtime.session.Session.check_health` every
        N steps and record straggler findings as ``observed`` events —
        the detection channel for non-crash degradations.
    degradation_aware:
        Opt-in goodput accounting for degradation windows: the excess
        of a degraded step over the plan's best observed clean step is
        charged to the ledger's ``lost_degraded_s`` bucket instead of
        counting as useful work.  Off by default — the historical
        accounting (and its journal bytes) treats every committed
        second as useful.
    replan_hysteresis / replan_warmup_s:
        Controller tuning for ``spec.replan == "on"`` runs: the
        break-even margin and the configured warm-up surcharge of the
        migration cost model.
    session_kwargs:
        Extra keyword arguments for every ``Session`` construction
        (``precision``, ``monitor``, ...).
    """

    def __init__(
        self,
        spec,
        plan: FaultPlan | None = None,
        *,
        checkpoint_every: int = 0,
        checkpoint_dir=None,
        retry_budget: int = 3,
        restart_latency_s: float = 2.0,
        checkpoint_cost_s: float = 0.25,
        max_restarts: int = 8,
        health_every: int = 0,
        degradation_aware: bool = False,
        replan_hysteresis: float = 0.25,
        replan_warmup_s: float = 0.0,
        session_kwargs: dict | None = None,
    ):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("periodic checkpoints need a checkpoint_dir")
        if retry_budget < 1:
            raise ValueError("retry_budget must be at least 1")
        for name, value in (
            ("checkpoint_cost_s", checkpoint_cost_s),
            ("restart_latency_s", restart_latency_s),
            ("replan_warmup_s", replan_warmup_s),
            ("replan_hysteresis", replan_hysteresis),
        ):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} {value} must be finite and non-negative")
        if spec.replan == "on" and checkpoint_dir is None:
            raise ValueError(
                "replan='on' needs a checkpoint_dir: a live plan switch "
                "migrates through a durable checkpoint"
            )
        self.spec = spec
        self.plan = plan if plan is not None else FaultPlan()
        if self.plan.faults and self.plan.max_rank() >= spec.num_gpus:
            raise ValueError(
                f"fault plan targets rank {self.plan.max_rank()}, outside "
                f"the {spec.num_gpus}-GPU world"
            )
        self.injector = FaultInjector(self.plan, gpus_per_node=spec.gpus_per_node)
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.retry_budget = retry_budget
        self.restart_latency_s = restart_latency_s
        self.checkpoint_cost_s = checkpoint_cost_s
        self.max_restarts = max_restarts
        self.health_every = health_every
        self.session_kwargs = dict(session_kwargs or {})
        # One monitor instance across every incarnation: the session is
        # rebuilt after crashes/regroups, so the telemetry stream must
        # be owned here (the injector pattern) and passed through.
        if self.session_kwargs.get("monitor") is None:
            from repro.obs.monitor import monitor_for

            self.session_kwargs["monitor"] = monitor_for(spec)
        self.monitor = self.session_kwargs["monitor"]
        self.ledger = GoodputLedger()
        self.session = None
        self.loop = None
        self._last_checkpoint: dict | None = None
        self._reported_degradations: set[int] = set()
        # -- adaptive re-planning state ------------------------------------
        self.degradation_aware = bool(degradation_aware)
        self.replan_hysteresis = replan_hysteresis
        self.replan_warmup_s = replan_warmup_s
        #: Best observed clean-step seconds per plan shape — the
        #: degradation-aware baseline a degraded step is charged against.
        self._clean_baselines: dict[tuple, float] = {}
        self._controller = None
        self._last_replan_signature = None
        #: Realized post-switch accounting for the outcome journal event.
        self._switch_info: dict | None = None
        self._num_steps = 0

    # -- construction ----------------------------------------------------------
    def _build_session(self, spec) -> None:
        """The one place a ``Session`` is constructed: a fresh
        incarnation of ``spec`` on the shared monitor and injector.  A
        numeric incarnation gets its own grad scaler; its state comes
        back from the checkpoint, never from the previous incarnation."""
        from repro.runtime import Session

        scaler = None
        if not spec.meta:
            from repro.nn.grad_scaler import DynamicGradScaler

            scaler = DynamicGradScaler()
        self.session = Session(spec, grad_scaler=scaler, **self.session_kwargs)
        self.session.cluster.attach_injector(self.injector)

    def _restart(self, spec, *, elastic: bool = False) -> None:
        """checkpoint -> rebuild -> resume, for every policy that ends an
        incarnation: build ``spec``'s session, restore the last durable
        checkpoint into it (step 0 without one) and continue its loop.

        ``elastic`` restores a numeric archive written for another DDP
        extent (regroup, migration); a meta archive is plan-independent.
        """
        from repro.runtime import StepLoop

        self.spec = spec
        self._build_session(spec)
        state = None
        if self._last_checkpoint is not None:
            path = self._last_checkpoint["path"]
            if spec.meta:
                state = self.session.resume_meta(path)
            elif elastic:
                state = self.session.resume_elastic(path)["loop"]
            else:
                state = self.session.resume(path)["loop"]
        self.loop = StepLoop.from_state_dict(
            self.session.step_fn(), state, hooks=self.session.loop_hooks()
        )

    def _save(self, path) -> None:
        """Write the durable checkpoint every later restart resumes from."""
        if self.spec.meta:
            self.session.save_meta(path, loop_state=self.loop.state_dict())
        else:
            self.session.save(path, loop=self.loop)
        self._last_checkpoint = {"path": path, "step": self.loop.step}

    def _wall(self) -> float:
        return self.session.cluster.timeline.walltime_s()

    def _record(self, report: RecoveryReport, *, err=None, **fields) -> None:
        """One :class:`RecoveryEvent` (of fault ``err``'s kind and rank,
        when given): appended to the report, mirrored into the journal."""
        if err is not None:
            fields.update(kind=self._kind_of(err), rank=self._rank_of(err))
        event = RecoveryEvent(**fields)
        report.events.append(event)
        self.monitor.record_recovery(event)

    # -- the supervised loop ----------------------------------------------------
    def run(self, num_steps: int) -> RecoveryReport:
        """Drive ``num_steps`` steps through the plan; never raises for
        scheduled faults — failures land in ``report.unrecovered``."""
        if num_steps < 1:
            raise ValueError("num_steps must be positive")
        self._num_steps = num_steps
        report = RecoveryReport(ledger=self.ledger)
        if self.session is None:
            self._restart(self.spec)
        self.monitor.record_run(
            self.loop.step, "start",
            f"supervised run: {num_steps} step(s), "
            f"{len(self.plan.faults)} scheduled fault(s)",
        )
        while self.loop.step < num_steps and not report.unrecovered:
            self._step(report)
        report.steps_completed = self.loop.step
        report.history = list(self.loop.history)
        report.pending = self.injector.pending()
        report.moot = self.injector.moot()
        report.final_spec = self.spec.identity()
        self._report_switch_outcome()
        outcome = "recovered" if report.recovered else "unrecovered"
        self.monitor.record_run(
            self.loop.step, "end",
            f"run {outcome}: {report.steps_completed} step(s) committed, "
            f"goodput {self.ledger.goodput_fraction:.4f}",
        )
        return report

    # -- commit + periodic work -------------------------------------------------
    def _commit(self, event, seconds: float, report: RecoveryReport) -> None:
        step = event.step
        if self.spec.meta:
            grad_fault = self.injector.grad_fault(step, fire=True)
            skipped = grad_fault is not None
        else:
            grad_fault = self.injector.grad_fault(step)
            skipped = bool(
                getattr(self.session.trainer, "last_step_skipped", False)
            )
        degraded_s = self._degraded_excess(step, seconds, skipped)
        self.ledger.commit_step(step, seconds, skipped=skipped,
                                degraded_s=degraded_s)
        if self._switch_info is not None:
            self._switch_info["steps"] += 1
            self._switch_info["seconds"] += seconds
            if self.injector.active_degradations(step):
                self._switch_info["degraded"] += 1
        # Goodput fractions land on the session's metrics and in the
        # monitor's timeseries every committed step (the goodput_decay
        # detector watches goodput.fraction).
        fractions = self.ledger.publish_gauges(self.session.tracer.metrics)
        self.monitor.observe_gauges(step, fractions)
        if skipped:
            kind = grad_fault.kind.value if grad_fault else "grad_overflow"
            self._record(
                report,
                step=step,
                kind=kind,
                action="skip_step",
                rank=grad_fault.rank if grad_fault else None,
                lost_s=seconds,
                detail="grad scaler backed off; optimizer step skipped",
            )
            _LOG.warning("step %d skipped (%s)", step, kind)
        for spec in self.injector.fired_at(step):
            if spec.kind in DEGRADATION_KINDS and id(spec) not in self._reported_degradations:
                self._reported_degradations.add(id(spec))
                self._record(
                    report,
                    step=step,
                    kind=spec.kind.value,
                    action="observed",
                    rank=spec.rank,
                    detail=(
                        f"x{spec.factor:.2f} slowdown for "
                        f"{spec.duration_steps} step(s)"
                    ),
                )
        self._maybe_checkpoint()
        self._maybe_health(report)
        self._maybe_replan(report)

    def _degraded_excess(self, step: int, seconds: float, skipped: bool) -> float:
        """Degradation-aware accounting: a degraded step's excess over
        the plan's best observed clean step; clean steps feed the
        baseline instead.  Returns 0.0 unless ``degradation_aware``."""
        if not self.degradation_aware or skipped:
            return 0.0
        key = self._plan_key(self.spec)
        baseline = self._clean_baselines.get(key)
        if self.injector.active_degradations(step):
            if baseline is None:
                return 0.0
            return max(0.0, seconds - baseline)
        if baseline is None or seconds < baseline:
            self._clean_baselines[key] = seconds
        return 0.0

    @staticmethod
    def _plan_key(spec) -> tuple:
        return (spec.pp_size, spec.tp_size, spec.fsdp_size, spec.ddp_size,
                spec.micro_batch, spec.recompute, spec.prefetch,
                spec.tp_innermost)

    def _maybe_checkpoint(self) -> None:
        if not self.checkpoint_every or self.loop.step % self.checkpoint_every:
            return
        path = self.checkpoint_dir / f"ckpt_step{self.loop.step}.npz"
        self._save(path)
        self.ledger.checkpoint(self.checkpoint_cost_s)
        self.monitor.record_checkpoint(
            self.loop.step, "save", detail=f"durable checkpoint at {path.name}"
        )

    def _maybe_health(self, report: RecoveryReport) -> None:
        if not self.health_every or self.loop.step % self.health_every:
            return
        findings = self.session.check_health()
        for finding in findings:
            if finding.category == "straggler":
                self._record(
                    report,
                    step=self.loop.step - 1,
                    kind="health." + finding.category,
                    action="observed",
                    rank=finding.ranks[0] if finding.ranks else None,
                    detail=finding.message,
                )

    # -- online adaptive re-planning ----------------------------------------------
    def _replan_controller(self):
        """The controller for the current world (rebuilt after regroups)."""
        from repro.replan import ReplanController

        if (self._controller is None
                or self._controller.spec.num_gpus != self.spec.num_gpus):
            self._controller = ReplanController(
                self.spec, hysteresis=self.replan_hysteresis
            )
        return self._controller

    def _maybe_replan(self, report: RecoveryReport) -> None:
        """Consult the controller when degradation evidence is live.

        One evaluation per distinct evidence signature (the factor maps,
        not the shrinking window): re-pricing the same sickness every
        step would only journal noise, and a shrinking horizon can turn
        a switch into a stay but never the reverse.
        """
        if self.spec.replan != "on":
            return
        from repro.replan import DegradationProfile, MigrationCostModel

        step = self.loop.step
        profile = DegradationProfile.from_injector(self.injector, step)
        if profile.is_clean:
            self._last_replan_signature = None
            return
        signature = (profile.compute, profile.links, profile.lost_ranks)
        if signature == self._last_replan_signature:
            return
        self._last_replan_signature = signature
        cost = MigrationCostModel.from_ledger(
            self.ledger, self.checkpoint_cost_s, self.restart_latency_s,
            warmup_s=self.replan_warmup_s,
        )
        decision = self._replan_controller().evaluate(
            self.spec, step, self._num_steps, profile, cost
        )
        self.monitor.record_replan(
            step, "decision", message=decision.reason,
            data=decision.as_dict(),
        )
        if decision.switch:
            self._migrate(decision, report)

    def _migrate(self, decision, report: RecoveryReport) -> None:
        """*migrate*: live plan migration, checkpoint -> rebuild ->
        bitwise resume on the controller's best candidate."""
        old = self.spec
        step = self.loop.step
        # A Candidate's fields are exactly the plan fields of a RunSpec.
        new_spec = old.replace(**asdict(decision.best_candidate))
        path = self.checkpoint_dir / f"replan_step{step}.npz"
        self._save(path)
        self.ledger.replan(decision.migration_cost_s)
        # Seed the new plan's clean baseline from the old plan's by the
        # projected clean-step ratio, so degradation-aware accounting
        # keeps charging post-switch degraded steps honestly even
        # before the new plan commits its first clean step.
        old_base = self._clean_baselines.get(self._plan_key(old))
        if old_base is not None and decision.current_clean_step_s > 0:
            self._clean_baselines.setdefault(
                self._plan_key(new_spec),
                old_base * decision.best_clean_step_s
                / decision.current_clean_step_s,
            )
        self._restart(new_spec, elastic=True)
        self._controller = None
        self._switch_info = {
            "decision": decision, "steps": 0, "seconds": 0.0, "degraded": 0,
        }
        detail = f"{decision.current_label} -> {decision.best_label}"
        report.events.append(RecoveryEvent(
            step=step,
            kind="replan",
            action="plan_switch",
            lost_s=decision.migration_cost_s,
            detail=detail + f": {decision.reason}",
        ))
        self.monitor.record_replan(
            step, "switch", message=detail,
            data={
                "from": decision.current_label,
                "to": decision.best_label,
                "migration_cost_s": decision.migration_cost_s,
                "projected_gain_s": decision.projected_gain_s,
                "checkpoint": path.name,
            },
        )
        _LOG.warning("replan at step %d: %s (projected gain %.6f s)",
                     step, detail, decision.projected_gain_s)

    def _report_switch_outcome(self) -> None:
        """Journal projected vs realized gain once the run ends."""
        if self._switch_info is None or not self._switch_info["steps"]:
            return
        info = self._switch_info
        decision = info["decision"]
        degraded = info["degraded"]
        clean = info["steps"] - degraded
        counterfactual = (degraded * decision.current_step_s
                          + clean * decision.current_clean_step_s)
        realized = (counterfactual - info["seconds"]
                    - decision.migration_cost_s)
        self.monitor.record_replan(
            self.loop.step, "outcome",
            message=(
                f"switch at step {decision.step}: projected "
                f"{decision.projected_gain_s:.6f} s gain, realized "
                f"{realized:.6f} s over {info['steps']} step(s)"
            ),
            data={
                "switch_step": decision.step,
                "steps_on_new_plan": info["steps"],
                "degraded_steps_on_new_plan": degraded,
                "seconds_on_new_plan": info["seconds"],
                "counterfactual_s": counterfactual,
                "projected_gain_s": decision.projected_gain_s,
                "realized_gain_s": realized,
            },
        )

    # -- the machine: run -> fault -> recover -> restart -> run -----------------------
    def _step(self, report: RecoveryReport) -> None:
        """*run*: drive the next step to a commit or to a restart.

        A fault goes to :meth:`_recover`; when that answers "retry" the
        step's RNG state is rewound first, so the retried step consumes
        the exact batch the failed attempt did.
        """
        attempt = _Attempt(step=self.loop.step)
        self.injector.begin_step(attempt.step)
        rng = self.session.data_rng.bit_generator
        rng_state = rng.state
        while True:
            attempt.t0 = self._wall()
            try:
                event = self.loop.run_step()
            except (TransientFaultError, FatalFaultError) as err:
                if not self._recover(err, attempt, report):
                    return
                rng.state = rng_state
                continue
            if attempt.retries:
                self._record(
                    report,
                    err=attempt.fault,
                    step=attempt.step,
                    action="retry",
                    attempts=attempt.retries,
                    lost_s=attempt.lost_s,
                    detail=f"recovered after {attempt.retries} retry attempt(s)",
                )
                _LOG.info("step %d recovered after %d retry(ies)",
                          attempt.step, attempt.retries)
            self._commit(event, self._wall() - attempt.t0, report)
            return

    def _recover(self, err: FaultError, attempt: _Attempt, report) -> bool:
        """*fault*: the one fault class -> policy dispatch.

        ========================  ==========================================
        transient, budget left    *retry* in place (returns ``True``)
        transient, budget spent   ``retry_exhausted``, then *rollback*
        fatal                     *rollback* (a node loss: *regroup*)
        ========================  ==========================================

        The dead attempt plus its detection window is charged to the
        retry bucket when the step is retried and to the rollback
        bucket when the incarnation is given up.
        """
        wasted = (self._wall() - attempt.t0) + _DETECT_TIMEOUT_S
        if isinstance(err, TransientFaultError):
            if attempt.retries < self.retry_budget:
                attempt.retries += 1
                backoff = _BACKOFF_BASE_S * 2 ** (attempt.retries - 1)
                self.ledger.retry(wasted, backoff)
                attempt.lost_s += wasted + backoff
                attempt.fault = err
                return True
            self._record(
                report,
                err=err,
                step=attempt.step,
                action="retry_exhausted",
                attempts=self.retry_budget,
                lost_s=attempt.lost_s,
                detail="escalating to rollback restart",
            )
        self._rollback(err, attempt.step, wasted, report,
                       regroup=isinstance(err, NodeLossError))
        return False

    def _rollback(self, err, step: int, attempt_s: float, report, *,
                  regroup: bool) -> None:
        """*rollback* / *regroup*: give the incarnation up and restart
        from the last durable checkpoint — into the same world, or,
        after a node loss, into the DDP-shrunken one.

        Unrecoverable when no legal shrunken world exists or (checked
        second) the restart budget is spent; both leave an
        ``unrecovered`` event in the report and the journal.
        """
        old = new_spec = self.spec
        unrecoverable = None  # (report message, event detail)
        if regroup:
            gpn = old.gpus_per_node
            node = (self._rank_of(err) or 0) // gpn
            lost_ranks = set(range(node * gpn, (node + 1) * gpn))
            try:
                new_spec = self._shrunken_spec(old, lost_ranks)
            except ElasticRecoveryError as impossible:
                unrecoverable = (str(impossible), str(impossible))
        if unrecoverable is None and self.ledger.restarts >= self.max_restarts:
            unrecoverable = (
                f"restart budget ({self.max_restarts}) exhausted at step "
                f"{step}: {err}",
                str(err),
            )
        if unrecoverable is not None:
            report.unrecovered.append(unrecoverable[0])
            self._record(report, err=err, step=step, action="unrecovered",
                         detail=unrecoverable[1])
            return
        lost_steps, lost_s = self.ledger.rollback(attempt_s)
        self.ledger.restart(self.restart_latency_s, elastic=regroup)
        if regroup:
            self.injector.remap_ranks({
                r: (r if r < node * gpn else r - gpn)
                for r in range(old.num_gpus)
                if r not in lost_ranks
            })
        resume_from = (
            self._last_checkpoint["step"] if self._last_checkpoint else 0
        )
        self.monitor.record_checkpoint(
            step, "rollback",
            detail=f"rolling back from step {step} to step {resume_from}"
                   + (" (elastic regroup)" if regroup else ""),
        )
        self._restart(new_spec, elastic=regroup)
        detail = f"resumed from step {resume_from}"
        if regroup:
            detail = (
                f"node {node} lost: ddp {old.ddp_size}->{new_spec.ddp_size}, "
                f"micro-batch {old.micro_batch}->{new_spec.micro_batch}, "
                + detail
            )
        self._record(
            report,
            err=err,
            step=step,
            action="elastic_regroup" if regroup else "rollback_restart",
            lost_s=lost_s + self.restart_latency_s,
            lost_steps=lost_steps,
            detail=detail,
        )
        _LOG.warning("%s at step %d: %s (%d step(s) to replay)",
                     self._kind_of(err), step, detail, lost_steps)

    @staticmethod
    def _shrunken_spec(old, lost_ranks: set[int]):
        """The legal DDP-shrunken RunSpec after losing ``lost_ranks``,
        preserving the global batch; raises ElasticRecoveryError."""
        from repro.runtime import RunSpecError

        surviving = old.num_gpus - len(lost_ranks)
        per_replica = old.pp_size * old.tp_size * old.fsdp_size
        if surviving < per_replica or surviving % per_replica:
            raise ElasticRecoveryError(
                f"surviving world of {surviving} GPUs cannot host whole "
                f"pp x tp x fsdp = {per_replica} replicas"
            )
        new_ddp = surviving // per_replica
        global_batch = old.micro_batch * old.fsdp_size * old.ddp_size
        if global_batch % (new_ddp * old.fsdp_size):
            raise ElasticRecoveryError(
                f"global batch {global_batch} cannot be preserved over "
                f"ddp={new_ddp} x fsdp={old.fsdp_size} micro-batches"
            )
        new_micro = global_batch // (new_ddp * old.fsdp_size)
        try:
            new_spec = old.replace(
                num_gpus=surviving, ddp_size=new_ddp, micro_batch=new_micro,
                # Skew on ranks past the shrunken world had nothing to slow.
                compute_skew=[(r, s) for r, s in old.compute_skew if r < surviving],
            )
        except RunSpecError as invalid:
            raise ElasticRecoveryError(
                f"no legal shrunken topology: {invalid}"
            ) from invalid
        reason = new_spec.legality_reason()
        if reason is not None:
            raise ElasticRecoveryError(
                f"shrunken topology rejected by engine legality: {reason}"
            )
        return new_spec

    # -- fault attribute helpers -----------------------------------------------------
    @staticmethod
    def _kind_of(err) -> str:
        fault = getattr(err, "fault", None)
        return fault.kind.value if fault is not None else type(err).__name__

    @staticmethod
    def _rank_of(err):
        fault = getattr(err, "fault", None)
        return fault.rank if fault is not None else None


def run_supervised(
    spec,
    plan: FaultPlan | None = None,
    num_steps: int = 8,
    **supervisor_kwargs,
) -> RecoveryReport:
    """One-call convenience: supervise ``spec`` through ``plan``."""
    return Supervisor(spec, plan, **supervisor_kwargs).run(num_steps)
