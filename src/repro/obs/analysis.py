"""Aggregations over recorded spans, as column reductions.

The row masks, :func:`group_ids` and :func:`sums_by` are what every
reduction in :mod:`repro.obs` is built from, including the one per-rank
table (:func:`~repro.obs.critical_path.rank_attribution`): a trace is
useful exactly because its sums are *defined* to equal the
:class:`~repro.cluster.timeline.Timeline` ledgers.

Every function takes a tracer, its ``spans`` view, a list of
:class:`~repro.obs.tracer.Span` or ready
:class:`~repro.obs.tracer.SpanColumns` (build them once when calling
several), and sums with :func:`sums_by`: ``np.bincount`` adds the
weights in row order in one C loop, which is the ledger's own ``+=``
walk float for float.  ``np.sum`` and ``np.add.reduceat`` add pairwise
and round differently; they must not be used here.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from repro.obs.tracer import COLLECTIVE, COMPUTE, GATHER, KIND_NAMES, SpanColumns


def is_timed(cols: SpanColumns) -> np.ndarray:
    """Row mask of the spans that carry simulated time (no markers)."""
    return cols.kind <= GATHER


def is_comm(cols: SpanColumns) -> np.ndarray:
    """Row mask of the collective/gather spans."""
    return (cols.kind == COLLECTIVE) | (cols.kind == GATHER)


def group_ids(labels: Iterable) -> tuple[list, np.ndarray]:
    """Distinct ``labels`` in order of first appearance, and each
    label's index into them.  One dict probe per label, no Python-level
    loop: work per *distinct* label is left to the caller."""
    first_row: dict = {}
    firsts = np.fromiter(
        map(first_row.setdefault, labels, itertools.count()), np.int64)
    # first rows of the distinct labels ascend, so they index themselves
    ids = np.searchsorted(np.fromiter(first_row.values(), np.int64), firsts)
    return list(first_row), ids


def sums_by(ids: np.ndarray, values: np.ndarray, size: int) -> list[float]:
    """Per-id sums of ``values``, accumulated in row order (see above)."""
    return np.bincount(ids, weights=values, minlength=size).tolist()


def top_operations(trace, limit: int = 10, key: str = "exposed") -> list[dict]:
    """Operations ranked by aggregate exposed (or total) time.

    Answers "which collective on which path dominated?": spans are
    grouped by ``(kind, name)`` and summed across ranks.
    """
    if key not in ("exposed", "total"):
        raise ValueError(f"key must be 'exposed' or 'total', got {key!r}")
    cols = SpanColumns.of(trace)
    cols = cols.take(np.flatnonzero(is_timed(cols)))
    operations, ids = group_ids(zip(cols.kind.tolist(), cols.name.tolist()))
    size = len(operations)
    ranked = sorted(
        (
            {"kind": KIND_NAMES[kind], "name": name, "count": count,
             "exposed_s": exposed, "total_s": total, "hidden_s": hidden,
             "nbytes": nbytes}
            for (kind, name), count, exposed, total, hidden, nbytes in zip(
                operations, np.bincount(ids, minlength=size).tolist(),
                sums_by(ids, cols.busy_s, size), sums_by(ids, cols.dur, size),
                sums_by(ids, cols.hidden_s, size),
                sums_by(ids, cols.nbytes, size))
        ),
        key=lambda e: (e["exposed_s"] if key == "exposed" else e["total_s"]),
        reverse=True,
    )
    return ranked[:limit]


def exposed_comm_ratio(trace) -> float:
    """Exposed communication as a fraction of total busy time.

    Compact spans from a folded timeline stand for a whole symmetry
    class; their ``members`` weight them back to the machine-wide
    ratio.  Exact traces carry no ``members``, and the weight of 1
    leaves the per-rank accumulation bitwise unchanged.
    """
    cols = SpanColumns.of(trace)
    timed = np.flatnonzero(is_timed(cols))
    ranks, ids = group_ids(cols.rank[timed].tolist())
    weighted = cols.busy_s[timed] * cols.members[timed]
    comm = cols.kind[timed] != COMPUTE
    busy = math.fsum(sums_by(ids, weighted, len(ranks)))
    exposed = math.fsum(sums_by(ids[comm], weighted[comm], len(ranks)))
    return exposed / busy if busy > 0 else 0.0
