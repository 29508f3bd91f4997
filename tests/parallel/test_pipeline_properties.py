"""Property-based tests for the engine's pipeline axis (random partitions)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import build_model
from repro.parallel.stages import (
    PipelineLimitError,
    bubble_fraction,
    partition_blocks,
    schedule_walltime,
)

from tests.parallel.test_pipeline import config, engine_grads, pipeline_engine, run, serial_grads


@st.composite
def pipeline_cases(draw):
    depth = draw(st.integers(1, 5))
    num_stages = draw(st.integers(1, depth))
    micro = draw(st.integers(1, 3))
    dim = draw(st.sampled_from([4, 8]))
    seed = draw(st.integers(0, 2**16))
    return depth, num_stages, micro, dim, seed


@settings(max_examples=20, deadline=None)
@given(case=pipeline_cases())
def test_property_pipeline_equals_serial(case):
    depth, num_stages, micro, dim, seed = case
    rng = np.random.default_rng(seed)
    engine, _ = pipeline_engine(num_stages, depth, seed, dim=dim)
    reference = build_model(config(depth, dim), rng=seed, dtype=np.float64)

    xs = [rng.normal(size=(1, 3, 8, 8)) for _ in range(micro)]
    grads = [rng.normal(size=(1, 2, 8, 8)) for _ in range(micro)]

    outputs, grad_inputs = run(engine, xs, grads)
    gx_ref, ref_grads = serial_grads(reference, xs, grads)

    # Output equivalence.
    check = build_model(config(depth, dim), rng=seed, dtype=np.float64)
    for x, y in zip(xs, outputs):
        expected = check(x, np.full((1,), 24.0))
        check.clear_cache()
        np.testing.assert_allclose(y, expected, rtol=1e-9, atol=1e-12)
    # Input-gradient equivalence.
    np.testing.assert_allclose(
        np.concatenate(grad_inputs, axis=0), gx_ref, rtol=1e-8, atol=1e-11
    )
    # Parameter-gradient equivalence, under the serial model's names.
    pipe_grads = engine_grads(engine)
    assert pipe_grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(
            pipe_grads[name], ref, rtol=1e-8, atol=1e-11, err_msg=name
        )


@settings(max_examples=20, deadline=None)
@given(
    depth=st.integers(1, 6),
    stages=st.integers(1, 6),
    micro=st.integers(1, 16),
)
def test_property_bubble_fraction_bounds(depth, stages, micro):
    """The GPipe bubble is always in [0, 1) and vanishes as M grows."""
    if stages > depth:
        with pytest.raises(PipelineLimitError):
            partition_blocks(depth, stages)
        return
    partition_blocks(depth, stages)
    bubble = bubble_fraction(stages, micro)
    assert 0.0 <= bubble < 1.0
    assert bubble_fraction(stages, micro + 8) <= bubble
    if stages == 1:
        assert bubble == 0.0


@settings(max_examples=500, deadline=None)
@given(
    busy=st.lists(st.floats(1e-9, 1e3), min_size=1, max_size=6),
    micro=st.integers(1, 64),
)
@example(busy=[0.1], micro=11)  # 11 * (0.1 / 11) != 0.1
def test_property_schedule_walltime(busy, micro):
    """One stage finishes in exactly its busy time — ``M * (b / M)``
    is not ``b`` for about one ``(b, M)`` in sixteen — and more stages
    in the closed-form 1F1B makespan, never before the slowest."""
    total = schedule_walltime(busy, micro)
    if len(busy) == 1:
        assert total == busy[0]
    else:
        assert total == (micro + len(busy) - 1) * (max(busy) / micro)
        assert total >= max(busy)
