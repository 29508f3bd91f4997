"""Performance-regression harness (``repro bench``).

Trace-derived step time, scaling efficiency, exposed-comm fraction and
peak memory for a fixed matrix of simulated ORBIT configurations, with
a JSON baseline (``BENCH_obs.json``) and a CI tolerance gate.
"""

from repro.bench.harness import (
    DEFAULT_MATRIX,
    DEFAULT_TOLERANCE,
    FRONTIER_MATRIX,
    FULL_MATRIX,
    BenchCase,
    BenchRecord,
    compare,
    compare_cases,
    load_baseline,
    run_case,
    run_matrix,
    scaling_efficiencies,
    summary_table,
    to_document,
    write_baseline,
    write_document,
)

__all__ = [
    "DEFAULT_MATRIX",
    "DEFAULT_TOLERANCE",
    "FRONTIER_MATRIX",
    "FULL_MATRIX",
    "BenchCase",
    "BenchRecord",
    "compare",
    "compare_cases",
    "load_baseline",
    "run_case",
    "run_matrix",
    "scaling_efficiencies",
    "summary_table",
    "to_document",
    "write_baseline",
    "write_document",
]
