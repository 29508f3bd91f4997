"""Functional collectives over per-rank buffers.

The virtual cluster executes in a single process, so a collective is a
pure function: it takes one buffer per group member (ordered by
group-local index) and returns one result per member, while recording
the modeled communication time on the cluster
:class:`~repro.cluster.timeline.Timeline`.

Both real :class:`numpy.ndarray` buffers and
:class:`~repro.meta.MetaArray` stand-ins are supported; in meta mode
only shapes and costs are produced.  Mixing the two in one call is an
error.

Semantics mirror mpi4py/RCCL:

========================  ====================================================
``all_gather``            every member receives the concatenation of all
                          members' shards (along ``axis``)
``reduce_scatter``        every member contributes a full buffer and receives
                          its reduced shard (along ``axis``)
``all_reduce``            every member receives the elementwise reduction
``broadcast``             every member receives the root's buffer
``scatter``/``gather``    root distributes / collects shards
``all_to_all``            member *i* sends block *j* to member *j*
========================  ====================================================
"""

from __future__ import annotations

from itertools import repeat
from operator import is_
from typing import Sequence

import numpy as np

from repro.cluster.process_group import ProcessGroup
from repro.meta import MetaArray, is_meta, nbytes_of
from repro.nn.ops import kernel

_REDUCE_OPS = ("sum", "mean", "max", "min")


def distinct_buffers(buffers: Sequence) -> list:
    """The distinct objects among ``buffers`` (by identity, first-seen order).

    A folded engine pads its per-member lists by repeating one object;
    work that depends on the object alone (validation, flattening) then
    runs once per entry here — one, when folded — not once per member.
    """
    first = buffers[0]
    if all(map(is_, buffers, repeat(first))):
        return [first]
    return list(dict(zip(map(id, buffers), buffers)).values())


def _check_buffers(group: ProcessGroup, buffers: Sequence) -> tuple[bool, list]:
    """Validate one-buffer-per-member.

    Returns ``(meta, distinct)``: whether the call is in meta mode, and
    the :func:`distinct_buffers` the per-buffer checks below walk.
    """
    if len(buffers) != group.size:
        raise ValueError(
            f"expected {group.size} buffers (one per group member), got {len(buffers)}"
        )
    distinct = distinct_buffers(buffers)
    meta = is_meta(distinct[0])
    if any(is_meta(b) is not meta for b in distinct):
        raise TypeError("cannot mix MetaArray and ndarray buffers in one collective")
    return meta, distinct


def _member_sum(buffers: Sequence, distinct: list, value) -> int:
    """``sum(value(b) for b in buffers)``, in O(1) when one object repeats."""
    if len(distinct) == 1:
        return value(distinct[0]) * len(buffers)
    return sum(value(b) for b in buffers)


def _common_shape(distinct: list, what: str) -> tuple:
    shapes = {tuple(b.shape) for b in distinct}
    if len(shapes) != 1:
        raise ValueError(f"{what} buffers must share a shape, got {shapes}")
    return shapes.pop()


def _reduce(*buffers, op: str) -> np.ndarray:
    # np.stack and .sum(axis=0) without their Python layers
    stack = np.concatenate([np.asarray(b)[np.newaxis] for b in buffers])
    if op == "sum":
        return np.add.reduce(stack, axis=0)
    if op == "mean":
        return stack.mean(axis=0)
    if op == "max":
        return stack.max(axis=0)
    if op == "min":
        return stack.min(axis=0)
    raise ValueError(f"unknown reduce op {op!r}; expected one of {_REDUCE_OPS}")


def _reduce_scatter(*buffers, op: str, axis: int, parts: int) -> list:
    # Shards are np.split's views of the one reduction: disjoint, and
    # along axis 0 already contiguous (ascontiguousarray copies otherwise).
    reduced = _reduce(*buffers, op=op)
    size, lead = reduced.shape[axis] // parts, (slice(None),) * (axis % reduced.ndim)
    return [np.ascontiguousarray(reduced[lead + (slice(i * size, (i + 1) * size),)])
            for i in range(parts)]


def _concatenate(*shards, axis: int) -> np.ndarray:
    return np.concatenate([np.asarray(s) for s in shards], axis=axis)


def _record(
    group: ProcessGroup, seconds: float, nbytes: float, overlappable: bool, op: str
) -> None:
    group.cluster.timeline.record_comm(
        group.ranks, seconds, nbytes, overlappable=overlappable, op=op
    )


def all_gather(
    group: ProcessGroup,
    shards: Sequence,
    axis: int = 0,
    overlappable: bool = False,
) -> list:
    """Concatenate per-member shards; every member receives the result."""
    meta, distinct = _check_buffers(group, shards)
    total_bytes = _member_sum(shards, distinct, nbytes_of)
    seconds = group.cluster.cost_model.all_gather(group.ranks, total_bytes)
    _record(group, seconds, total_bytes, overlappable, "all_gather")
    if group.size == 1:
        return [shards[0]]
    if meta:
        first = shards[0]
        shape = list(first.shape)
        shape[axis] = _member_sum(shards, distinct, lambda s: s.shape[axis])
        out = MetaArray(tuple(shape), first.dtype)
        return [out] * group.size
    return [kernel(_concatenate, *shards, axis=axis)] * group.size


def reduce_scatter(
    group: ProcessGroup,
    buffers: Sequence,
    op: str = "sum",
    axis: int = 0,
    overlappable: bool = False,
) -> list:
    """Reduce full buffers elementwise, then scatter equal shards along ``axis``."""
    meta, distinct = _check_buffers(group, buffers)
    shape = _common_shape(distinct, "reduce_scatter")
    if shape[axis] % group.size:
        raise ValueError(
            f"axis {axis} of shape {shape} not divisible by group size {group.size}"
        )
    total_bytes = nbytes_of(buffers[0])
    seconds = group.cluster.cost_model.reduce_scatter(group.ranks, total_bytes)
    _record(group, seconds, total_bytes, overlappable, "reduce_scatter")
    shard_len = shape[axis] // group.size
    if meta:
        out_shape = list(shape)
        out_shape[axis] = shard_len
        out = MetaArray(tuple(out_shape), buffers[0].dtype)
        return [out] * group.size
    return kernel(_reduce_scatter, *buffers, op=op, axis=axis, parts=group.size)


def all_reduce(
    group: ProcessGroup,
    buffers: Sequence,
    op: str = "sum",
    overlappable: bool = False,
) -> list:
    """Elementwise reduction delivered to every member."""
    meta, distinct = _check_buffers(group, buffers)
    _common_shape(distinct, "all_reduce")
    total_bytes = nbytes_of(buffers[0])
    seconds = group.cluster.cost_model.all_reduce(group.ranks, total_bytes)
    _record(group, seconds, total_bytes, overlappable, "all_reduce")
    if meta:
        return [buffers[0]] * group.size
    if group.size == 1:
        return [np.asarray(buffers[0])]
    return [kernel(_reduce, *buffers, op=op)] * group.size


def broadcast(group: ProcessGroup, buffer, root: int = 0, overlappable: bool = False) -> list:
    """Send the root's buffer (group-local ``root``) to every member."""
    if not 0 <= root < group.size:
        raise ValueError(f"root {root} outside group of size {group.size}")
    total_bytes = nbytes_of(buffer)
    seconds = group.cluster.cost_model.broadcast(group.ranks, total_bytes)
    _record(group, seconds, total_bytes, overlappable, "broadcast")
    return [buffer] * group.size


def scatter(
    group: ProcessGroup,
    shards: Sequence,
    root: int = 0,
    overlappable: bool = False,
) -> list:
    """Root distributes ``shards[i]`` to member ``i``."""
    if len(shards) != group.size:
        raise ValueError(f"scatter needs {group.size} shards, got {len(shards)}")
    if not 0 <= root < group.size:
        raise ValueError(f"root {root} outside group of size {group.size}")
    total_bytes = sum(nbytes_of(s) for s in shards)
    seconds = group.cluster.cost_model.scatter(group.ranks, total_bytes)
    _record(group, seconds, total_bytes, overlappable, "scatter")
    return list(shards)


def gather(
    group: ProcessGroup,
    shards: Sequence,
    root: int = 0,
    axis: int = 0,
    overlappable: bool = False,
) -> list:
    """Collect shards onto the root; non-root members receive ``None``."""
    meta, distinct = _check_buffers(group, shards)
    if not 0 <= root < group.size:
        raise ValueError(f"root {root} outside group of size {group.size}")
    total_bytes = _member_sum(shards, distinct, nbytes_of)
    seconds = group.cluster.cost_model.gather(group.ranks, total_bytes)
    _record(group, seconds, total_bytes, overlappable, "gather")
    if meta:
        first = shards[0]
        shape = list(first.shape)
        shape[axis] = _member_sum(shards, distinct, lambda s: s.shape[axis])
        result = MetaArray(tuple(shape), first.dtype)
    else:
        result = _concatenate(*shards, axis=axis)
    return [result if i == root else None for i in range(group.size)]


def all_to_all(group: ProcessGroup, blocks: Sequence[Sequence], overlappable: bool = False) -> list:
    """``blocks[i][j]`` goes from member *i* to member *j*; returns per-member lists."""
    if len(blocks) != group.size:
        raise ValueError(f"all_to_all needs {group.size} block rows, got {len(blocks)}")
    for i, row in enumerate(blocks):
        if len(row) != group.size:
            raise ValueError(f"block row {i} has {len(row)} entries, expected {group.size}")
    per_rank_bytes = max(sum(nbytes_of(b) for b in row) for row in blocks)
    seconds = group.cluster.cost_model.all_to_all(group.ranks, per_rank_bytes)
    _record(group, seconds, per_rank_bytes, overlappable, "all_to_all")
    return [[blocks[i][j] for i in range(group.size)] for j in range(group.size)]


def barrier(group: ProcessGroup) -> None:
    """Synchronize the group (costed as a tiny all-reduce)."""
    seconds = group.cluster.cost_model.all_reduce(group.ranks, 4)
    _record(group, seconds, 0, False, "barrier")
