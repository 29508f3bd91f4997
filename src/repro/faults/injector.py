"""The deterministic fault injector hooked into the Timeline.

Every unit of simulated time passes through
:meth:`~repro.cluster.timeline.Timeline.record_compute` or
:meth:`~repro.cluster.timeline.Timeline.record_comm`; those methods
consult the cluster's attached injector *before* recording, so a
scheduled fault fires at exactly the compute or collective event the
:class:`~repro.faults.plan.FaultPlan` names — the same choke-point
pattern the tracer uses, but on the failure path:

* crash-class faults (:data:`~repro.faults.plan.FaultKind.GPU_CRASH`,
  :data:`~repro.faults.plan.FaultKind.NODE_LOSS`,
  :data:`~repro.faults.plan.FaultKind.COLLECTIVE_TIMEOUT`) raise the
  matching typed :class:`~repro.faults.errors.FaultError` and leave the
  event unrecorded (the collective never completed);
* degradations (:data:`~repro.faults.plan.FaultKind.LINK_DEGRADE`,
  :data:`~repro.faults.plan.FaultKind.STRAGGLER`) multiply the event's
  seconds while their step window is active;
* :data:`~repro.faults.plan.FaultKind.GRAD_CORRUPTION` is consumed by
  the numeric trainer (:meth:`FaultInjector.poison_gradients`) or, in
  meta mode, acknowledged by the supervisor
  (:meth:`FaultInjector.grad_fault`).

Each injection fires exactly once: replaying a step after recovery
does not re-fire the fault that killed it, which is what makes
crash-and-resume runs bitwise comparable to fault-free ones.

Every timeline injector declares ``pricing``, settled per step, that
:meth:`~repro.cluster.timeline.Timeline.replay` routes on: ``None``
while a hook call could raise or change state (a live crash is armed
for the step, or an in-window degradation has not fired yet), else a
hashable description of everything the hooks compute — ``()`` where
they hand the seconds back, as :data:`~repro.obs.off.OFF`'s do.  A
replay under a settled ``pricing`` lands a compiled form whose seconds
went through the hooks once, at compile time; where ``pricing`` is
``None`` it walks every event through them.  A priced hook reads ``op``
only through :func:`stretch_compute`'s ``pipeline.stall`` exemption, a
name no replay rename reaches (renames swap ``step.<N>/``, block and
trunk prefixes), so the form compiled from the recorded names serves
every rename.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.cluster.timeline import stretch_compute
from repro.faults.errors import (
    CollectiveTimeoutError,
    GpuCrashError,
    NodeLossError,
)
from repro.faults.plan import (
    DEGRADATION_KINDS,
    FATAL_KINDS,
    TRANSIENT_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)


#: Kinds that raise from the event they fire at.
_CRASH_KINDS = TRANSIENT_KINDS | FATAL_KINDS


class _Armed:
    """Mutable firing state for one scheduled injection."""

    __slots__ = ("spec", "rank", "fired", "fired_step", "moot")

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        #: Current target rank (renumbered by elastic regroups).
        self.rank = spec.rank
        self.fired = False
        self.fired_step: int | None = None
        self.moot = False  # target rank was lost before the fault fired

    @property
    def live(self) -> bool:
        return not self.fired and not self.moot


class FaultInjector:
    """Timeline-attached executor of one :class:`FaultPlan`.

    The supervisor calls :meth:`begin_step` before driving each step so
    step-indexed injections know when they are armed; the timeline
    calls :meth:`before_compute` / :meth:`before_comm` per event.  The injector
    survives session teardown (crash recovery re-attaches the same
    instance to the rebuilt cluster), so fire-once bookkeeping spans
    incarnations.
    """

    def __init__(self, plan: FaultPlan, gpus_per_node: int = 8):
        self.plan = plan
        self.gpus_per_node = int(gpus_per_node)
        self._armed = [_Armed(spec) for spec in plan.faults]
        self.begin_step(-1)

    # -- driving -------------------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Arm the injections of ``step`` (supervisor hook).

        Settles, per step and not per event, which entries an event of
        this step can meet — crash-class ones scheduled here,
        degradations whose window covers it, each in plan order.  With
        none, ``before_compute`` / ``before_comm`` hand the seconds back.
        It settles :attr:`pricing` with them: ``None`` while one of
        them is live, ``()`` with none, else this type and the
        ``(kind, rank, factor)`` of each degradation, in plan order.
        """
        self.step = step = int(step)
        self._crashes = [
            armed for armed in self._armed
            if armed.spec.kind in _CRASH_KINDS and armed.spec.step == step
        ]
        in_window = [
            armed for armed in self._armed
            if not armed.moot and armed.spec.step <= step
            < armed.spec.step + armed.spec.duration_steps
        ]
        self._stragglers = [
            a for a in in_window if a.spec.kind is FaultKind.STRAGGLER]
        self._link_degrades = [
            a for a in in_window if a.spec.kind is FaultKind.LINK_DEGRADE]
        degradations = [a for a in in_window if a.spec.kind in DEGRADATION_KINDS]
        if any(a.live for a in self._crashes + degradations):
            self.pricing = None
        elif degradations:
            self.pricing = (type(self), *(
                (a.spec.kind, a.rank, a.spec.factor) for a in degradations))
        else:
            self.pricing = ()

    # -- timeline protocol ---------------------------------------------------
    def before_compute(self, rank: int, seconds: float, op: str) -> float:
        if self._crashes:
            self._maybe_raise((rank,), op, comm=False)
        if not self._stragglers:
            return seconds
        return stretch_compute(
            seconds, self._factor(self._stragglers, (rank,)), op)

    def before_comm(self, ranks: Sequence[int], seconds: float, op: str) -> float:
        if self._crashes:
            self._maybe_raise(ranks, op, comm=True)
        if not self._link_degrades:
            return seconds
        return seconds * self._factor(self._link_degrades, ranks)

    # -- crash-class firing ---------------------------------------------------
    def _maybe_raise(self, ranks: Sequence[int], op: str, comm: bool) -> None:
        for armed in self._crashes:
            spec = armed.spec
            if not armed.live:  # fired earlier in this step, or went moot
                continue
            if spec.kind is FaultKind.COLLECTIVE_TIMEOUT and not comm:
                continue  # timeouts are collective-only events
            if armed.rank not in ranks:
                continue
            if spec.op is not None and spec.op != op:
                continue
            armed.fired = True
            armed.fired_step = self.step
            where = f"step {self.step}, op {op!r}, rank {armed.rank}"
            if spec.kind is FaultKind.COLLECTIVE_TIMEOUT:
                raise CollectiveTimeoutError(
                    f"collective timeout at {where}", fault=spec
                )
            if spec.kind is FaultKind.GPU_CRASH:
                raise GpuCrashError(f"GPU crash at {where}", fault=spec)
            node = armed.rank // self.gpus_per_node
            raise NodeLossError(
                f"node {node} lost at {where}", fault=spec
            )

    # -- degradations ---------------------------------------------------------
    def _factor(self, in_window: list, ranks: Sequence[int]) -> float:
        """Product, in plan order, of the ``in_window`` degradations
        that target one of ``ranks``; each is marked fired on first hit."""
        factor = 1.0
        for armed in in_window:
            if armed.rank not in ranks:
                continue
            if not armed.fired:
                armed.fired = True
                armed.fired_step = self.step
            factor *= armed.spec.factor
        return factor

    # -- symmetry-fold coordination --------------------------------------------
    def affects_step(self, step: int) -> bool:
        """Could any injection touch an event of ``step``?

        The folded timeline consults this before each step: a step a
        fault can touch must run in exact (per-rank) mode, because the
        fault singles out one rank and breaks the class symmetry.
        Degradations count for their whole step window; crash-class and
        corruption injections only while still live at their step.
        """
        step = int(step)
        for armed in self._armed:
            spec = armed.spec
            if spec.kind in DEGRADATION_KINDS:
                if not armed.moot and \
                        spec.step <= step < spec.step + spec.duration_steps:
                    return True
            elif armed.live and spec.step == step:
                return True
        return False

    # -- gradient corruption ---------------------------------------------------
    def grad_fault(self, step: int, fire: bool = False) -> FaultSpec | None:
        """The grad-corruption injection of ``step``, if any.

        ``fire=True`` additionally marks an unfired injection as fired
        (the meta-mode path, where there are no numeric gradients to
        poison but the skipped step must still be accounted).
        """
        for armed in self._armed:
            spec = armed.spec
            if spec.kind is not FaultKind.GRAD_CORRUPTION or armed.moot:
                continue
            if spec.step != step:
                continue
            if armed.fired or fire:
                if fire and not armed.fired:
                    armed.fired = True
                    armed.fired_step = step
                return spec
        return None

    def poison_gradients(self, step: int, params: Sequence) -> FaultSpec | None:
        """Numeric path: plant a NaN in the first available gradient.

        Called by the distributed trainer after gradient reduction and
        before the grad-scaler finiteness check, so an injected
        corruption takes the exact route a real bit-flip would: the
        scaler sees a non-finite gradient, backs the scale off, and the
        optimizer step is skipped.
        """
        import numpy as np

        from repro.meta import is_meta

        for armed in self._armed:
            spec = armed.spec
            if spec.kind is not FaultKind.GRAD_CORRUPTION or not armed.live:
                continue
            if spec.step != step:
                continue
            for param in params:
                grad = getattr(param, "grad", None)
                if grad is None or is_meta(grad):
                    continue
                np.asarray(grad).flat[0] = math.nan
                armed.fired = True
                armed.fired_step = step
                return spec
        return None

    # -- elastic regroup -------------------------------------------------------
    def remap_ranks(self, mapping: dict[int, int]) -> list[FaultSpec]:
        """Renumber pending faults after a node loss.

        ``mapping`` maps surviving old global ranks to their new ranks;
        pending faults targeting a lost rank become moot (returned so
        the report can note them).
        """
        dropped = []
        for armed in self._armed:
            if armed.fired or armed.moot:
                continue
            if armed.rank in mapping:
                armed.rank = mapping[armed.rank]
            else:
                armed.moot = True
                dropped.append(armed.spec)
        self.begin_step(self.step)  # moot entries leave this step's sets
        return dropped

    # -- introspection ----------------------------------------------------------
    def active_degradations(self, step: int) -> list[tuple[int, FaultSpec]]:
        """Degradations that have fired and whose window covers ``step``.

        Returns ``(current_rank, spec)`` pairs — the rank is the armed
        entry's (possibly elastically renumbered) target, the spec
        carries kind, factor, and window.  This is the Supervisor's
        evidence feed for degradation-aware accounting and the replan
        controller's :meth:`~repro.replan.DegradationProfile.from_injector`
        projection; only *fired* injections count, so the evidence is
        what the run has actually observed, never the plan's future.
        """
        step = int(step)
        return [
            (armed.rank, armed.spec)
            for armed in self._armed
            if armed.spec.kind in DEGRADATION_KINDS
            and armed.fired and not armed.moot
            and armed.spec.step <= step < armed.spec.step + armed.spec.duration_steps
        ]

    def fired(self) -> list[FaultSpec]:
        return [a.spec for a in self._armed if a.fired]

    def fired_at(self, step: int) -> list[FaultSpec]:
        return [a.spec for a in self._armed if a.fired and a.fired_step == step]

    def pending(self) -> list[FaultSpec]:
        return [a.spec for a in self._armed if a.live]

    def moot(self) -> list[FaultSpec]:
        return [a.spec for a in self._armed if a.moot]
