"""Structured logging: records carry rank/step/phase inside traced scopes."""

import io
import json
import logging

import pytest

from repro.obs.tracer import Tracer
from repro.utils.logging import (
    configure_logging,
    current_trace_context,
    get_logger,
    trace_log_context,
)


@pytest.fixture
def capture():
    """A configured JSON-lines handler writing into a StringIO."""
    stream = io.StringIO()
    handler = configure_logging(json_lines=True, level=logging.INFO, stream=stream)
    try:
        yield stream
    finally:
        get_logger().removeHandler(handler)


def _records(stream) -> list[dict]:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


class TestTraceContext:
    def test_tracer_scope_publishes_step_and_phase(self):
        tracer = Tracer()
        with tracer.scope("step", 3):
            with tracer.scope("engine.forward"):
                context = current_trace_context()
        assert context == {"step": 3, "phase": "engine.forward"}
        assert current_trace_context() == {}

    def test_none_values_do_not_erase(self):
        with trace_log_context(rank=5):
            with trace_log_context(rank=None, step=1):
                assert current_trace_context() == {"rank": 5, "step": 1}

    def test_nested_scopes_refine(self):
        tracer = Tracer()
        with trace_log_context(rank=2):
            with tracer.scope("step", 0):
                with tracer.scope("engine.backward"):
                    context = current_trace_context()
        assert context == {"rank": 2, "step": 0, "phase": "engine.backward"}


class TestJsonLines:
    def test_record_inside_scope_carries_all_fields(self, capture):
        tracer = Tracer()
        with tracer.scope("step", 7):
            with tracer.scope("engine.grad_sync"):
                with trace_log_context(rank=11):
                    get_logger("test").info("syncing")
        (record,) = _records(capture)
        assert record["message"] == "syncing"
        assert record["rank"] == 11
        assert record["step"] == 7
        assert record["phase"] == "engine.grad_sync"
        assert record["level"] == "INFO"
        assert record["logger"] == "repro.test"

    def test_record_outside_scope_has_null_fields(self, capture):
        get_logger("test").info("ambient")
        (record,) = _records(capture)
        assert (record["rank"], record["step"], record["phase"]) == (None, None, None)

    def test_extra_overrides_ambient_context(self, capture):
        with trace_log_context(rank=1):
            get_logger("test").info("explicit", extra={"rank": 9})
        (record,) = _records(capture)
        assert record["rank"] == 9

    def test_traced_step_emits_rank_scoped_records(self, capture):
        """End to end: health findings logged during check_run carry ranks."""
        from dataclasses import replace

        from repro.obs import check_run, run_traced_spec
        from tests.obs.test_invariants import TRACE_4

        run = run_traced_spec(replace(TRACE_4, compute_skew={2: 10_000_000.0}))
        findings = check_run(run.tracer, plan=run.plan)
        assert findings
        records = [r for r in _records(capture) if "straggler" in r["message"]]
        assert records
        assert any(record["rank"] == 2 for record in records)


class TestTextFormatter:
    def test_text_formatter_appends_fields(self):
        stream = io.StringIO()
        handler = configure_logging(json_lines=False, level=logging.INFO,
                                    stream=stream)
        try:
            tracer = Tracer()
            with tracer.scope("step", 0), trace_log_context(rank=3):
                get_logger("test").info("hello")
        finally:
            get_logger().removeHandler(handler)
        line = stream.getvalue().strip()
        assert "hello" in line
        assert "rank=3" in line and "step=0" in line
