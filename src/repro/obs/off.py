"""The disabled observer: one stateless handle for every channel that is off.

Tracer, metrics registry, run monitor, its journal and fault injector
are called unconditionally; :data:`OFF` is each of them when off.
Every method call sites invoke on a handle that may be off is written
here once and returns its neutral value (table in DESIGN.md,
"Instrumentation: one disabled handle"); no call has state to change.
The timeline's per-event hooks spell out the live signature (no
argument packing on the hot path), the rest take any arguments.
``tests/obs/test_off.py`` holds each to the live class's signature.
:class:`MetricsOnly` is the tracer of a session whose span table nobody
reads: ``Off`` but for a live metrics registry.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry


class Off:
    """Tracer, metrics, instrument, monitor, journal and injector: off."""

    __slots__ = ()

    enabled = False
    spans = ()
    generation = 0
    current_scope = ""
    current_comm_kind = "collective"
    #: The injector's settled pricing: its hooks hand every event's
    #: seconds back (``Timeline.replay`` lands compiled forms).
    pricing = ()

    def _nothing(self, *args, **kwargs) -> None:
        """A hook whose live result no call site reads."""

    set_context = span = instant = mark_free = clear = __exit__ = _nothing
    reset = inc = set = max = observe = _nothing
    attach_session = on_step_start = on_step_end = observe_gauges = _nothing
    append = poison_gradients = _nothing

    def _self(self, *args, **kwargs) -> "Off":
        """A hook whose live result is another handle: this one."""
        return self

    metrics = journal = property(_self)
    scope = __enter__ = counter = gauge = histogram = _self

    # -- the timeline's per-event hooks, in their live signatures ----------
    def on_compute(self, rank, t0, seconds, flops, op, members=None) -> None:
        return None

    def on_comm(self, rank, t0, seconds, hidden_s, nbytes, op, group,
                cid=None, members=None) -> None:
        return None

    def before_compute(self, rank, seconds, op):
        return seconds

    def before_comm(self, ranks, seconds, op):
        return seconds

    # -- neutral values ----------------------------------------------------
    def affects_step(self, step) -> bool:
        return False

    def as_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def snapshot(self) -> dict:
        return {}

    def __len__(self) -> int:
        return 0


#: The one disabled handle: the default tracer, registry, monitor and
#: injector everywhere.
OFF = Off()

#: The name the tracer's default went by, still imported by callers.
NULL_TRACER = OFF


class MetricsOnly(Off):
    """A tracer that records no span but keeps a live metrics registry,
    so counters and gauges still land (``enabled`` is False: the
    timeline labels, captures and frees nothing for it)."""

    __slots__ = ("metrics",)

    def __init__(self):
        self.metrics = MetricsRegistry()
