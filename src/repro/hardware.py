"""Frontier MI250X hardware constants (single source of truth).

Each Frontier node carries four MI250X cards; each card exposes two
GCDs (Graphics Compute Dies) that behave as independent GPUs — the
"GPU" of the paper.  Peaks below are per GCD (datasheet values are per
card), and the memory is the 64 GiB HBM2e attached to each GCD.
"""

from repro.utils.units import GIB

#: Peak fp32 matrix throughput per GCD, FLOP/s.
MI250X_GCD_PEAK_FP32 = 47.9e12 / 2

#: HBM per GCD.
MI250X_GCD_MEMORY_BYTES = 64 * GIB
