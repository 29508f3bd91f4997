"""Autoregressive rollout forecasting.

ClimaX-family models can reach long leads two ways: direct prediction
with a lead-time embedding (what the paper fine-tunes), or rolling a
short-lead model forward autoregressively (the FourCastNet protocol).
:class:`RolloutForecaster` implements the latter so both protocols can
be compared on the same trained model.

A rollout needs the model to predict *all* of its input channels (the
output feeds back as the next input); static channels are carried over
from the initial condition.

The rollout is exposed **incrementally**: :meth:`~RolloutForecaster.
iter_states` yields the normalized state after each base-lead model
application, so a consumer that wants many leads from the same
initialization pays for each autoregressive step exactly once, and
:meth:`~RolloutForecaster.advance_many` applies one step to a *stack*
of states — the serving layer's rollout prefix cache
(:mod:`repro.serve.cache`) advances all the windows of a micro-batch
through it together.  There is one model call site (``self.infer``, a
:class:`~repro.nn.tape.ForwardTape`: once a stack width has been seen,
its forward is replayed from the recorded kernel list): ``advance`` is the
one-state stack and :meth:`~RolloutForecaster.forecast` a thin loop
over ``iter_states``, so the chain of float operations — and therefore
the result — is bitwise identical whichever door a lead is computed
through.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.dataset import ClimateDataset
from repro.data.normalization import Normalizer
from repro.data.synthetic import HOURS_PER_STEP
from repro.nn import ForwardTape


class RolloutForecaster:
    """Iteratively apply a one-step model to reach longer leads.

    Parameters
    ----------
    model:
        A model mapping all channels to all channels (``out_vars ==
        in_vars``), trained at ``base_lead_steps``.
    normalizer:
        Channel statistics for the model's normalized space.
    base_lead_steps:
        The lead (in 6-hour steps) of one model application.
    """

    def __init__(
        self,
        model,
        normalizer: Normalizer,
        base_lead_steps: int = 1,
        name: str = "rollout",
    ):
        if base_lead_steps < 1:
            raise ValueError("base_lead_steps must be positive")
        self.model = model
        self.infer = ForwardTape(model)
        self.normalizer = normalizer
        self.base_lead_steps = base_lead_steps
        self.name = name

    # -- incremental interface ------------------------------------------------
    def initial_state(self, dataset: ClimateDataset, index: int) -> np.ndarray:
        """The normalized initial condition (state after zero steps)."""
        return self.normalizer.normalize(dataset.snapshot(index))

    def advance_many(self, states, static_indices) -> list[np.ndarray]:
        """One base-lead application to every state, through one forward.

        The states are stacked along the batch axis, so ``B`` rollouts
        — at whatever depth each one stands; the model does not see
        depth — cost one model call.  Element ``i`` is bitwise-equal
        to ``advance(states[i])``: that is measured, not assumed (see
        DESIGN.md, "The serving data plane"), and held by
        ``tests/eval/test_rollout.py`` and ``repro serve --smoke``.

        Each returned state is a *fresh* array owning its memory — not
        a view of the stacked output, which would stay alive as long
        as any sibling is cached.  The model's returned buffer is never
        written: static channels (orography etc.) are pinned on the
        copy, from that state's own input, so a model that hands back
        a cached or shared array keeps it intact.
        """
        batch = np.stack(states).astype(np.float32, copy=False)
        lead_hours = np.full(
            len(batch), self.base_lead_steps * HOURS_PER_STEP, np.float32
        )
        predictions = self.infer(batch, lead_hours)
        if predictions.shape != batch.shape:
            raise ValueError(
                "rollout needs a model predicting all input channels: "
                f"got {predictions.shape[1:]}, state is {batch.shape[1:]}"
            )
        advanced = []
        for state, prediction in zip(states, predictions):
            prediction = np.array(prediction)
            prediction[static_indices] = state[static_indices]
            advanced.append(prediction)
        return advanced

    def advance(self, state: np.ndarray, static_indices) -> np.ndarray:
        """One base-lead model application: the one-state stack."""
        return self.advance_many([state], static_indices)[0]

    def iter_states(
        self, dataset: ClimateDataset, index: int
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(k, state)`` after ``k`` base-lead applications.

        ``k`` runs 1, 2, 3, ... without bound — the consumer stops
        iterating at the lead it needs.  Each yielded state is the
        normalized all-channel field at lead ``k * base_lead_steps``.
        """
        static = dataset.registry.static_indices
        state = self.initial_state(dataset, index)
        k = 0
        while True:
            state = self.advance(state, static)
            k += 1
            yield k, state

    def finalize(
        self, state: np.ndarray, dataset: ClimateDataset,
        out_names: list[str] | None = None,
    ) -> np.ndarray:
        """Denormalize a rollout state and select the output channels."""
        denorm = self.normalizer.denormalize(state)
        names = dataset.out_names if out_names is None else list(out_names)
        return denorm[dataset.registry.indices(names)]

    # -- the classic one-shot interface ---------------------------------------
    def forecast(self, dataset: ClimateDataset, index: int, lead_steps: int) -> np.ndarray:
        """Roll the model forward to ``lead_steps`` and return the targets."""
        if lead_steps % self.base_lead_steps:
            raise ValueError(
                f"lead {lead_steps} not a multiple of the rollout step "
                f"{self.base_lead_steps}"
            )
        applications = lead_steps // self.base_lead_steps
        if applications == 0:
            return self.finalize(self.initial_state(dataset, index), dataset)
        for k, state in self.iter_states(dataset, index):
            if k == applications:
                return self.finalize(state, dataset)
        raise AssertionError("unreachable: iter_states is unbounded")
