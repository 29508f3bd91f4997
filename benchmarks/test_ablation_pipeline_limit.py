"""Ablation: pipeline parallelism's layer-count limit (paper Sec II).

The paper dismisses pipeline parallelism because "the scalability for
pipeline parallelism is limited by the number of model layers".  This
benchmark makes that executable: the engine refuses more pipeline
stages than layers, the pipeline's maximal model size plateaus once
GPUs exceed the 56-layer depth, while Hybrid-STOP keeps scaling; and
the GPipe bubble shrinks only with more micro-batches — i.e. more
memory.
"""

import numpy as np
import pytest

from repro.cluster import VirtualCluster
from repro.memory.estimator import MemoryModel, Parallelism
from repro.models import ORBIT_113B, OrbitConfig, build_model
from repro.parallel import HybridParallelPlan, HybridSTOPEngine, PipelineLimitError
from repro.parallel.stages import bubble_fraction


def _max_sizes():
    model = MemoryModel()
    return {
        gpus: {
            "pipeline": model.max_model_size(Parallelism.PIPELINE, gpus, ORBIT_113B)[0],
            "hybrid": model.max_model_size(Parallelism.HYBRID_STOP, gpus, ORBIT_113B)[0],
        }
        for gpus in (8, 64, 512)
    }


@pytest.mark.quick
def test_pipeline_layer_limit(once):
    sizes = once(_max_sizes)
    rows = "\n".join(
        f"  {gpus:>4d} GPUs: pipeline {v['pipeline'] / 1e9:.1f}B, "
        f"hybrid-stop {v['hybrid'] / 1e9:.1f}B"
        for gpus, v in sizes.items()
    )
    print(f"\nmax model size, pipeline vs Hybrid-STOP:\n{rows}")

    # The executable limit: stages cannot exceed layers.
    config = OrbitConfig("two-layer", embed_dim=8, depth=2, num_heads=2, in_vars=2,
                         out_vars=2, img_height=8, img_width=8, patch_size=4)
    plan = HybridParallelPlan(VirtualCluster(num_gpus=3), pp_size=3)
    with pytest.raises(PipelineLimitError):
        HybridSTOPEngine(build_model(config, rng=0, dtype=np.float64), plan)

    # The scaling consequence: pipeline plateaus at depth (56 layers for
    # the 113B template), Hybrid-STOP keeps growing.
    assert sizes[64]["pipeline"] == sizes[512]["pipeline"]
    assert sizes[512]["hybrid"] > 1.5 * sizes[512]["pipeline"]

    # And the bubble: halving it requires ~doubling in-flight micro-batches.
    assert bubble_fraction(8, 4) > 2.5 * bubble_fraction(8, 32)
