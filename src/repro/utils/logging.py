"""Library logging setup, with structured trace context.

The library never configures the root logger; it attaches a
``NullHandler`` to its own namespace so applications stay in control,
and offers :func:`get_logger` for namespaced child loggers.

Structured context
------------------
Every record emitted under the ``repro`` namespace can carry three
fields — ``rank``, ``step``, and ``phase`` — describing *where in a
traced run* the record was produced.  The fields live in a
:class:`contextvars.ContextVar`:

* :class:`~repro.obs.tracer.Tracer` scopes publish ``step`` and
  ``phase`` automatically (``step.3/engine.backward`` → ``step=3``,
  ``phase="engine.backward"``);
* per-rank execution contexts (the engine's ranked-compute blocks)
  publish ``rank``;
* any caller can push fields explicitly with
  :func:`trace_log_context`.

:func:`configure_logging` installs a handler whose records always carry
the three fields (``None`` outside a traced scope), formatted either as
plain text or as JSON lines::

    configure_logging(json_lines=True)
    # {"ts": ..., "level": "INFO", "logger": "repro.obs.health",
    #  "message": "...", "rank": 3, "step": 0, "phase": "engine.forward"}
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from contextvars import ContextVar

_ROOT_NAME = "repro"

logging.getLogger(_ROOT_NAME).addHandler(logging.NullHandler())

#: Fields every structured record carries.
TRACE_FIELDS = ("rank", "step", "phase")

_TRACE_CONTEXT: ContextVar[dict] = ContextVar(f"{_ROOT_NAME}_trace_context", default={})


def get_logger(name: str | None = None) -> logging.Logger:
    """Return a logger under the ``repro`` namespace.

    Parameters
    ----------
    name:
        Optional dotted suffix, e.g. ``"parallel.engine"``. ``None``
        returns the package root logger.
    """
    if name is None:
        return logging.getLogger(_ROOT_NAME)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


# -- trace context -----------------------------------------------------------
def current_trace_context() -> dict:
    """The active ``{rank, step, phase}`` fields (missing keys omitted)."""
    return dict(_TRACE_CONTEXT.get())


@contextmanager
def trace_log_context(**fields):
    """Overlay ``rank``/``step``/``phase`` onto the logging context.

    ``None`` values leave the inherited value in place, so nested
    scopes refine rather than erase (a rank-scoped block inside a step
    scope sees all three fields).
    """
    merged = dict(_TRACE_CONTEXT.get())
    merged.update({k: v for k, v in fields.items() if v is not None})
    token = _TRACE_CONTEXT.set(merged)
    try:
        yield
    finally:
        _TRACE_CONTEXT.reset(token)


class TraceContextFilter(logging.Filter):
    """Stamp every record with the trace fields (``None`` when unset).

    Values already set on the record (via ``extra={"rank": ...}``) win
    over the ambient context.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        context = _TRACE_CONTEXT.get()
        for field in TRACE_FIELDS:
            if not hasattr(record, field):
                setattr(record, field, context.get(field))
        return True


class JsonLinesFormatter(logging.Formatter):
    """One JSON object per record, trace fields included."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": self.formatTime(record, self.datefmt),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        for field in TRACE_FIELDS:
            payload[field] = getattr(record, field, None)
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload)


class TextFormatter(logging.Formatter):
    """Plain-text formatter that appends the non-empty trace fields."""

    def format(self, record: logging.LogRecord) -> str:
        base = super().format(record)
        parts = [
            f"{field}={getattr(record, field)}"
            for field in TRACE_FIELDS
            if getattr(record, field, None) is not None
        ]
        return f"{base} [{' '.join(parts)}]" if parts else base


def configure_logging(
    json_lines: bool = False,
    level: int | str = logging.INFO,
    stream=None,
) -> logging.Handler:
    """Attach a structured handler to the ``repro`` root logger.

    Returns the handler so callers (and tests) can detach it with
    ``get_logger().removeHandler(handler)``.
    """
    handler = logging.StreamHandler(stream)
    handler.addFilter(TraceContextFilter())
    if json_lines:
        handler.setFormatter(JsonLinesFormatter())
    else:
        handler.setFormatter(TextFormatter("%(levelname)s %(name)s: %(message)s"))
    root = get_logger()
    root.addHandler(handler)
    root.setLevel(level)
    return handler
