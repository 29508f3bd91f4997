"""StepLoop: the hook-driven step driver every consumer routes through.

The serial :class:`~repro.train.trainer.Trainer`, the
:class:`~repro.train.distributed.DistributedTrainer`, the
:class:`~repro.train.finetune.Finetuner`, the bench harness's
``run_case`` and the capture layer's ``run_traced_spec`` all used to
hand-roll their own ``for step in range(n)`` loop, which meant
cross-cutting behaviour — per-step telemetry, early stop, loss and
resume bookkeeping — could not be added once.  StepLoop owns that
loop: callers supply a ``step_fn(step) -> (loss, batch_size)`` and
optional hooks, and get back the standard
:class:`~repro.train.trainer.PretrainResult` trajectory.  Periodic
checkpoints and health probes are the
:class:`~repro.faults.supervisor.Supervisor`'s, between steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class StepEvent:
    """What one completed step looked like, as seen by hooks."""

    step: int  #: 0-based index of the step that just ran.
    loss: float
    batch_size: int
    observations_seen: int  #: cumulative, including resumed history.


@dataclass
class StepHooks:
    """Optional callbacks around each step; either may be set.

    Signatures::

        on_step_start(loop, step)
        on_step_end(loop, event)
    """

    on_step_start: Callable | None = None
    on_step_end: Callable | None = None


class StepLoop:
    """Drive ``step_fn`` for a budget of steps with hooks and resume state.

    Parameters
    ----------
    step_fn:
        ``step_fn(step) -> (loss, batch_size)``.  Meta-mode steps report
        ``nan`` loss; the loop still counts their observations.
    hooks:
        A :class:`StepHooks` (or any object with the same optional
        attributes), or a list of them — every hook that defines a
        callback gets it, in order.
    start_step / observations_seen / history:
        Resume state: a loop restored from a checkpoint continues the
        step numbering, the observation counter, and the loss history of
        the interrupted run, so the final trajectory is identical to an
        uninterrupted one.
    """

    def __init__(
        self,
        step_fn: Callable[[int], tuple[float, int]],
        hooks=None,
        start_step: int = 0,
        observations_seen: int = 0,
        history: list[tuple[int, float]] | None = None,
    ):
        self.step_fn = step_fn
        if hooks is None:
            hooks = []
        elif not isinstance(hooks, (list, tuple)):
            hooks = [hooks]
        self.hooks = list(hooks)
        #: Index of the next step to run (== steps completed so far).
        self.step = start_step
        self.observations_seen = observations_seen
        #: (observations seen, loss) per completed step, oldest first.
        self.history: list[tuple[int, float]] = list(history or [])
        self._stop = False

    # -- resume state --------------------------------------------------------
    def state_dict(self) -> dict:
        """The JSON-able loop-state document every checkpoint stores."""
        return {
            "step": self.step,
            "observations_seen": self.observations_seen,
            "history": [[obs, loss] for obs, loss in self.history],
        }

    @classmethod
    def from_state_dict(cls, step_fn, state: dict | None, **kwargs) -> "StepLoop":
        """A loop continuing from a :meth:`state_dict` document (``None``:
        from step 0); ``kwargs`` are the other constructor arguments."""
        if state is None:
            return cls(step_fn, **kwargs)
        return cls(
            step_fn,
            start_step=state["step"],
            observations_seen=state["observations_seen"],
            history=[tuple(pair) for pair in state["history"]],
            **kwargs,
        )

    # -- hooks ---------------------------------------------------------------
    def _dispatch(self, name: str, *args) -> None:
        for hook in self.hooks:
            fn = getattr(hook, name, None)
            if fn is not None:
                fn(self, *args)

    def request_stop(self) -> None:
        """Stop after the current step completes (hook-callable)."""
        self._stop = True

    # -- driving -------------------------------------------------------------
    def run_step(self) -> StepEvent:
        """Run exactly one step and fire its hooks."""
        step = self.step
        self._dispatch("on_step_start", step)
        loss, batch_size = self.step_fn(step)
        loss = float(loss)
        self.observations_seen += int(batch_size)
        self.history.append((self.observations_seen, loss))
        self.step += 1
        event = StepEvent(
            step=step,
            loss=loss,
            batch_size=int(batch_size),
            observations_seen=self.observations_seen,
        )
        self._dispatch("on_step_end", event)
        return event

    def run(self, num_steps: int):
        """Run ``num_steps`` further steps; returns the cumulative
        :class:`~repro.train.trainer.PretrainResult` trajectory.

        A hook (or ``step_fn``) calling :meth:`request_stop` ends the
        run early with the history so far.
        """
        # Deferred: trainer imports StepLoop for its own driving.
        from repro.train.trainer import PretrainResult

        if num_steps < 1:
            raise ValueError("num_steps must be positive")
        self._stop = False
        target = self.step + num_steps
        while self.step < target and not self._stop:
            self.run_step()
        return PretrainResult(history=list(self.history))
