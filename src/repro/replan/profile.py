"""DegradationProfile: the replanner's picture of the sick machine.

The controller never looks at injector state directly; everything it
knows about the degraded cluster is projected into one frozen
:class:`DegradationProfile` — per-rank compute slowdown factors and
per-rank link bandwidth factors — plus how many more steps the evidence
says the condition will last.  One evidence channel feeds it:
:meth:`DegradationProfile.from_injector` reads the fault injector's
fired, in-window degradations (exact factors and exact remaining
windows), and the controller prices them with the same estimator the
tuner ranks plans with.

Profiles are canonically ordered and hashable, and :meth:`key` renders
a stable string used both for replan hysteresis (one evaluation per
distinct profile) and as the tune-cache degradation component
(:attr:`repro.tune.space.TuneRequest.degradation_key`).
"""

from __future__ import annotations

from dataclasses import dataclass


def _canonical(pairs) -> tuple[tuple[int, float], ...]:
    """Sorted (rank, factor) pairs, keeping the max factor per rank."""
    best: dict[int, float] = {}
    for rank, factor in pairs:
        rank = int(rank)
        factor = float(factor)
        if factor <= 1.0:
            continue
        best[rank] = max(best.get(rank, 1.0), factor)
    return tuple(sorted(best.items()))


@dataclass(frozen=True)
class DegradationProfile:
    """Projected state of a degraded cluster.

    ``compute`` / ``links`` hold ``(rank, factor)`` slowdown multipliers
    (factors are > 1; a rank absent from a map runs at full speed);
    ``remaining_steps`` is the longest remaining degradation window —
    the horizon over which the degraded (rather than clean) step time
    applies.
    """

    compute: tuple[tuple[int, float], ...] = ()
    links: tuple[tuple[int, float], ...] = ()
    remaining_steps: int = 0

    def __post_init__(self):
        object.__setattr__(self, "compute", _canonical(self.compute))
        object.__setattr__(self, "links", _canonical(self.links))
        if self.remaining_steps < 0:
            raise ValueError("remaining_steps must be non-negative")

    @property
    def is_clean(self) -> bool:
        """No degradation evidence at all (the stay-fast path)."""
        return not self.compute and not self.links

    def key(self) -> str:
        """Canonical string identity (hysteresis + tune-cache key)."""
        if self.is_clean:
            return ""
        parts = []
        for tag, pairs in (("c", self.compute), ("l", self.links)):
            parts.extend(f"{tag}{rank}x{factor:g}" for rank, factor in pairs)
        parts.append(f"w{self.remaining_steps}")
        return ",".join(parts)

    # -- evidence ---------------------------------------------------------------
    @classmethod
    def from_injector(cls, injector, step: int) -> "DegradationProfile":
        """Project the injector's fired, in-window degradations at
        ``step``."""
        from repro.faults.plan import FaultKind

        compute, links = [], []
        remaining = 0
        for rank, spec in injector.active_degradations(step):
            window_left = spec.step + spec.duration_steps - step
            remaining = max(remaining, window_left)
            if spec.kind is FaultKind.STRAGGLER:
                compute.append((rank, spec.factor))
            else:
                links.append((rank, spec.factor))
        return cls(compute=tuple(compute), links=tuple(links),
                   remaining_steps=remaining)
