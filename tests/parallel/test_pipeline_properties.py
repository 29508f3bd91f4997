"""Property-based tests for the pipeline engine (random partitions)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import VirtualCluster
from repro.nn.transformer import TransformerStack
from repro.parallel import PipelineParallelTrunk
from repro.parallel.stages import schedule_walltime


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
    serial = TransformerStack(dim, depth, 2, rng=seed, dtype=np.float64)
    reference = TransformerStack(dim, depth, 2, rng=seed, dtype=np.float64)
    cluster = VirtualCluster(num_gpus=num_stages, gpus_per_node=8)
    pipeline = PipelineParallelTrunk(serial, cluster, num_stages)

    xs = [rng.normal(size=(1, 2, dim)) for _ in range(micro)]
    grads = [rng.normal(size=(1, 2, dim)) for _ in range(micro)]

    outputs = pipeline.forward(xs)
    grad_inputs = pipeline.backward(grads)

    reference(np.concatenate(xs, axis=0))
    reference.zero_grad()
    gx_ref = reference.backward(np.concatenate(grads, axis=0))

    # Output equivalence.
    check = TransformerStack(dim, depth, 2, rng=seed, dtype=np.float64)
    for x, y in zip(xs, outputs):
        expected = check(x)
        check.clear_cache()
        np.testing.assert_allclose(y, expected, rtol=1e-9, atol=1e-12)
    # Input-gradient equivalence.
    np.testing.assert_allclose(
        np.concatenate(grad_inputs, axis=0), gx_ref, rtol=1e-8, atol=1e-11
    )
    # Parameter-gradient equivalence (the pipeline reuses serial's blocks).
    for (name, ref_param), pipe_param in zip(
        reference.named_parameters(), pipeline.parameters()
    ):
        np.testing.assert_allclose(
            pipe_param.grad, ref_param.grad, rtol=1e-8, atol=1e-11, err_msg=name
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
        return
    cluster = VirtualCluster(num_gpus=stages, gpus_per_node=8)
    serial = TransformerStack(4, depth, 2, rng=0)
    pipeline = PipelineParallelTrunk(serial, cluster, stages)
    bubble = pipeline.bubble_fraction(micro)
    assert 0.0 <= bubble < 1.0
    assert pipeline.bubble_fraction(micro + 8) <= bubble
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

