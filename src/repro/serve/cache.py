"""Rollout prefix cache: one autoregressive chain serves every shorter lead.

The expensive object in forecast serving is the rollout — ``k`` model
applications to reach lead ``k``.  But rollouts *nest*: the chain that
produced a lead-20 forecast passed through every lead below it.  The
cache therefore stores, per synoptic window (``init_index``), the list
of **normalized** states ``states[k]`` after ``k`` base-lead
applications.  A request for any lead ≤ the cached depth is a pure
lookup (zero model steps); a deeper request extends the chain from the
last cached state, paying only for the new steps.

Variables ride free: states are all-channel, and output selection
happens at :meth:`~repro.eval.rollout.RolloutForecaster.finalize`
time, so the key is ``init_index`` alone — one entry subsumes every
``(lead_steps, out_vars)`` combination the issue's conceptual
``(init_index, lead_steps, out_vars)`` key spans.

A micro-batch is served in three phases (:meth:`RolloutPrefixCache.
forecast_batch`): **plan** walks the requests in order and does all the
bookkeeping — entries created, LRU ticks bumped, victims evicted,
hits/misses/steps counted, each request's ``(new_steps, hit)`` fixed —
without calling the model; **execute** advances every chain the plan
left short of its target, all of them stacked through one forward per
step (:meth:`~repro.eval.rollout.RolloutForecaster.advance_many`), so
a batch costs the *max* over its windows of new steps in forwards, not
the sum; **finalize** selects each request's state and variables.  The
plan holds entry *objects*, not ``init_index`` keys: with fewer slots
than the batch has windows, a window can be evicted and asked for
again inside one batch, and the sequential accounting (which the
modeled latencies are priced from) recomputes it as a second chain.

Determinism contract: every state comes out of the same
:meth:`~repro.eval.rollout.RolloutForecaster.advance_many` /
:meth:`~repro.eval.rollout.RolloutForecaster.finalize` chain that
``forecast`` runs, and a stacked forward is bitwise-equal per element
to a one-state forward (the named oracle in
``tests/eval/test_rollout.py``; measured, see DESIGN.md), so a cache
hit, a partial extension, a from-scratch recompute, a batched and a
one-request call are **bitwise identical** — eviction and batching can
change cost, never bytes.  ``tests/serve/test_cache.py`` asserts this,
and that one batched call leaves the same results, counters and
eviction order as the same requests served one call each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.serve.request import ForecastRequest, RequestError


@dataclass(eq=False)
class _Entry:
    """Cached rollout prefix for one synoptic window.

    Compared and hashed by identity: a plan may hold two entries for
    one window (evicted, then created again).
    """

    #: ``states[k]`` = normalized all-channel state after ``k`` steps.
    states: list[np.ndarray] = field(default_factory=list)
    #: Last-access stamp for LRU eviction.
    tick: int = 0

    @property
    def depth(self) -> int:
        """Deepest lead (in base steps) this prefix reaches."""
        return len(self.states) - 1


def _check_servable(request: ForecastRequest, base_lead_steps: int, dataset) -> None:
    """Raise :class:`RequestError` unless the world can serve ``request``."""
    who = f"request {request.request_id}"
    if request.lead_steps % base_lead_steps:
        raise RequestError(
            f"{who}: lead {request.lead_steps} not a multiple of the "
            f"rollout step {base_lead_steps}"
        )
    try:
        dataset.absolute_step(request.init_index)
        dataset.registry.indices(request.out_vars)
    except (IndexError, KeyError) as error:
        raise RequestError(f"{who}: {error.args[0]}") from None


class RolloutPrefixCache:
    """LRU cache of rollout prefixes, keyed by ``init_index``.

    ``capacity`` counts synoptic windows, not states; 0 disables
    caching entirely (every request recomputes from scratch).
    """

    def __init__(self, capacity: int = 32):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self._entries: dict[int, _Entry] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.steps_computed = 0
        self.forward_calls = 0

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def depth(self, init_index: int) -> int:
        """Cached prefix depth for a window (-1 when absent)."""
        entry = self._entries.get(init_index)
        return -1 if entry is None else entry.depth

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counters; ``steps_computed / forward_calls`` is the stacking ratio."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio,
            "steps_computed": self.steps_computed,
            "forward_calls": self.forward_calls,
        }

    # -- the serving path ----------------------------------------------------
    def forecast_batch(
        self, forecaster, dataset, requests: list[ForecastRequest]
    ) -> tuple[list[tuple[np.ndarray, int, bool]], list[int]]:
        """Serve one micro-batch through the cache.

        Returns ``(served, stack_widths)``.  ``served[i]`` is request
        ``i``'s ``(result, new_steps, hit)``: the denormalized output
        field, the number of model applications newly paid for, and
        whether the request was a full prefix hit (``new_steps == 0``)
        — what serving the requests one call each, in this order,
        returns.  ``stack_widths`` has one element per model forward
        the batch cost: how many chains that forward advanced.

        Raises :class:`~repro.serve.request.RequestError` before
        anything is counted, created or evicted if any request cannot
        be served.
        """
        base = forecaster.base_lead_steps
        for request in requests:
            _check_servable(request, base, dataset)

        # plan: all the bookkeeping, request by request, on entry
        # objects.  ``targets`` is each touched entry's depth once the
        # batch has executed; an evicted entry stays in it (and alive)
        # until its requests are finalized.
        plan: list[tuple[_Entry, int, int]] = []
        targets: dict[_Entry, int] = {}
        for request in requests:
            applications = request.lead_steps // base
            entry = self._entries.get(request.init_index)
            if entry is None:
                entry = _Entry(
                    [forecaster.initial_state(dataset, request.init_index)]
                )
                if self.capacity:
                    self._entries[request.init_index] = entry
                    self._evict_beyond_capacity(keep=request.init_index)
            reach = targets.get(entry, entry.depth)
            new_steps = max(0, applications - reach)
            targets[entry] = reach + new_steps
            if new_steps:
                self.misses += 1
                self.steps_computed += new_steps
            else:
                self.hits += 1
            self._tick += 1
            entry.tick = self._tick
            plan.append((entry, applications, new_steps))

        # execute: the one chain-extension loop.  Chains at different
        # depths share a forward; each drops out at its own target.
        static = dataset.registry.static_indices
        stack_widths: list[int] = []
        pending = [e for e, target in targets.items() if e.depth < target]
        while pending:
            advanced = forecaster.advance_many(
                [e.states[-1] for e in pending], static
            )
            for entry, state in zip(pending, advanced):
                entry.states.append(state)
            stack_widths.append(len(pending))
            pending = [e for e in pending if e.depth < targets[e]]
        self.forward_calls += len(stack_widths)

        served = [
            (
                forecaster.finalize(
                    entry.states[applications], dataset, request.out_vars
                ),
                new_steps,
                new_steps == 0,
            )
            for request, (entry, applications, new_steps) in zip(requests, plan)
        ]
        return served, stack_widths

    def forecast(
        self,
        forecaster,
        dataset,
        init_index: int,
        lead_steps: int,
        out_vars=None,
    ) -> tuple[np.ndarray, int, bool]:
        """Serve one forecast: the one-request batch."""
        request = ForecastRequest(
            0, init_index, lead_steps,
            dataset.out_names if out_vars is None else out_vars, 0.0,
        )
        return self.forecast_batch(forecaster, dataset, [request])[0][0]

    def _evict_beyond_capacity(self, keep: int) -> None:
        while len(self._entries) > self.capacity:
            victim = min(
                (idx for idx in self._entries if idx != keep),
                key=lambda idx: self._entries[idx].tick,
            )
            del self._entries[victim]
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
