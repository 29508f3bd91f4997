"""Ablation: peak memory across sharding strategies (paper Figs 2-3).

Runs the one engine at three grid points on the virtual cluster and
compares the device-tracker peak memory: plain FSDP (``tp=1``) without
layer wrapping (the full-model gather of Fig 2), plain FSDP with
wrapping, and Hybrid-STOP at ``tp=2, fsdp=2`` (which gathers only one
layer's tensor-parallel shard at a time).  All three run the same
sharding code, so the comparison is apples to apples.
"""

import numpy as np
import pytest

from repro.cluster import VirtualCluster
from repro.core import HybridSTOPTrunk
from repro.nn.transformer import TransformerStack
from repro.parallel import HybridParallelPlan


def _measure(seed: int = 0, dim: int = 32, depth: int = 4):
    def stack():
        return TransformerStack(dim, depth, 2, rng=seed, dtype=np.float64)

    def peak(tp, fsdp, micro_batch, layer_wrapping=True):
        cluster = VirtualCluster(num_gpus=4, gpus_per_node=8)
        plan = HybridParallelPlan(cluster, tp_size=tp, fsdp_size=fsdp)
        trunk = HybridSTOPTrunk(stack(), plan, layer_wrapping=layer_wrapping)
        xs = [rng.normal(size=(micro_batch, 4, dim)) for _ in range(fsdp)]
        grads = [rng.normal(size=(micro_batch, 4, dim)) for _ in range(fsdp)]
        trunk.forward(xs)
        trunk.backward(grads)
        return max(cluster.device(r).memory.peak_bytes for r in range(4))

    rng = np.random.default_rng(seed)
    return {
        "fsdp (no wrapping)": peak(1, 4, 1, layer_wrapping=False),
        "fsdp (wrapped)": peak(1, 4, 1),
        "hybrid-stop": peak(2, 2, 2),
    }


@pytest.mark.quick
def test_hybrid_stop_has_lowest_peak_memory(once):
    peaks = once(_measure)
    pretty = {k: f"{v / 1024:.0f} KiB" for k, v in peaks.items()}
    print(f"\nPeak device memory by strategy: {pretty}")

    # Fig 2's problem: without wrapping, FSDP transiently materializes
    # the whole model.
    assert peaks["fsdp (no wrapping)"] > 1.5 * peaks["fsdp (wrapped)"]
    # Fig 3's fix: Hybrid-STOP gathers only a tensor-parallel fraction
    # of one layer, beating even wrapped FSDP.
    assert peaks["hybrid-stop"] < peaks["fsdp (wrapped)"]
    assert peaks["hybrid-stop"] < 0.5 * peaks["fsdp (no wrapping)"]
