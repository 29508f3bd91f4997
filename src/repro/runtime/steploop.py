"""StepLoop: the hook-driven step driver every consumer routes through.

The serial :class:`~repro.train.trainer.Trainer`, the
:class:`~repro.train.distributed.DistributedTrainer`, the
:class:`~repro.train.finetune.Finetuner`, the bench harness's
``run_case`` and the capture layer's ``run_traced_spec`` all used to
hand-roll their own ``for step in range(n)`` loop, which meant
cross-cutting behaviour — periodic checkpoints, health probes, early
stop, loss bookkeeping — could not be added once.  StepLoop owns that
loop: callers supply a ``step_fn(step) -> (loss, batch_size)`` and
optional hooks, and get back the standard
:class:`~repro.train.trainer.PretrainResult` trajectory.
"""

from __future__ import annotations

import math
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
    """Optional callbacks around the loop; any subset may be set.

    Signatures::

        on_step_start(loop, step)
        on_step_end(loop, event)       # every step
        on_loss(loop, event)           # only when the loss is finite
        on_checkpoint(loop, event)     # after a periodic checkpoint fires
        on_health(loop, findings)      # after a periodic health probe
    """

    on_step_start: Callable | None = None
    on_step_end: Callable | None = None
    on_loss: Callable | None = None
    on_checkpoint: Callable | None = None
    on_health: Callable | None = None


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
    checkpoint_every / checkpoint_fn:
        Fire ``checkpoint_fn(loop)`` after every ``checkpoint_every``-th
        step (plus the ``on_checkpoint`` hooks).
    health_every / health_fn:
        Fire ``health_fn(loop) -> findings`` periodically and hand the
        findings to ``on_health`` hooks.
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
        checkpoint_every: int = 0,
        checkpoint_fn: Callable | None = None,
        health_every: int = 0,
        health_fn: Callable | None = None,
        start_step: int = 0,
        observations_seen: int = 0,
        history: list[tuple[int, float]] | None = None,
    ):
        if checkpoint_every < 0 or health_every < 0:
            raise ValueError("periodic intervals must be non-negative")
        self.step_fn = step_fn
        if hooks is None:
            hooks = []
        elif not isinstance(hooks, (list, tuple)):
            hooks = [hooks]
        self.hooks = list(hooks)
        self.checkpoint_every = checkpoint_every
        self.checkpoint_fn = checkpoint_fn
        self.health_every = health_every
        self.health_fn = health_fn
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
        if math.isfinite(loss):
            self._dispatch("on_loss", event)
        if (
            self.checkpoint_every
            and self.step % self.checkpoint_every == 0
            and self.checkpoint_fn is not None
        ):
            self.checkpoint_fn(self)
            self._dispatch("on_checkpoint", event)
        if (
            self.health_every
            and self.step % self.health_every == 0
            and self.health_fn is not None
        ):
            findings = self.health_fn(self)
            self._dispatch("on_health", findings)
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
