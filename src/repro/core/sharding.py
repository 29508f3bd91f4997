"""Shard layouts used by Hybrid-STOP.

Two layouts compose (paper Fig 3):

* **column/row shards** over the tensor-parallel group — matrix ``A``
  is split along columns, matrix ``B`` along rows, so partial products
  ``x A_k B_k`` sum to ``x A B`` (Eqn 2);
* **flat shards** over the FSDP group — each tensor-parallel shard is
  flattened, zero-padded to a multiple of the group size, and split
  evenly, so all-gather / reduce-scatter move equal-sized messages
  (how PyTorch FSDP lays flat parameters out).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from repro.cluster.cluster import GroupAllocation, fill_groups
from repro.meta import MetaArray, is_meta, nbytes_of
from repro.nn.ops import kernel


def column_shards(matrix, num_shards: int) -> list:
    """Split the last axis into ``num_shards`` equal column blocks."""
    cols = matrix.shape[-1]
    if cols % num_shards:
        raise ValueError(f"{cols} columns not divisible into {num_shards} shards")
    if is_meta(matrix):
        shape = tuple(matrix.shape[:-1]) + (cols // num_shards,)
        return [MetaArray(shape, matrix.dtype)] * num_shards
    return [np.ascontiguousarray(s) for s in np.split(np.asarray(matrix), num_shards, axis=-1)]


def row_shards(matrix, num_shards: int) -> list:
    """Split the second-to-last axis into ``num_shards`` equal row blocks."""
    rows = matrix.shape[-2]
    if rows % num_shards:
        raise ValueError(f"{rows} rows not divisible into {num_shards} shards")
    if is_meta(matrix):
        shape = tuple(matrix.shape)
        shape = shape[:-2] + (rows // num_shards, shape[-1])
        return [MetaArray(shape, matrix.dtype)] * num_shards
    return [np.ascontiguousarray(s) for s in np.split(np.asarray(matrix), num_shards, axis=-2)]


def padded_size(numel: int, num_shards: int) -> int:
    """Elements of a ``numel``-element array once :func:`flat_pad` has
    padded it to a multiple of ``num_shards`` (an empty one still gets
    one element per shard)."""
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    return -(-numel // num_shards) * num_shards if numel else num_shards


def flat_pad(array, num_shards: int):
    """Flatten and zero-pad to a multiple of ``num_shards`` elements."""
    padded = padded_size(int(array.size), num_shards)
    if is_meta(array):
        return MetaArray((padded,), array.dtype)
    return kernel(_pad_flat, array, padded)


def _pad_flat(array, padded: int):
    flat = np.asarray(array).reshape(-1)
    if padded != flat.size:
        flat = np.concatenate([flat, np.zeros(padded - flat.size, flat.dtype)])
    return flat


def flat_pad_shard(array, num_shards: int) -> list:
    """Flatten, zero-pad to a multiple of ``num_shards``, split evenly.

    The inverse is :func:`flat_unshard` with the original shape.  Meta
    shards are one frozen :class:`MetaArray` per ``(size, dtype, num_shards)``.
    """
    if is_meta(array):
        return [_meta_shard(array.size, array.dtype, num_shards)] * num_shards
    flat = flat_pad(array, num_shards)
    return [np.ascontiguousarray(s) for s in np.split(flat, num_shards)]


@functools.cache
def _meta_shard(size: int, dtype, num_shards: int) -> MetaArray:
    return MetaArray((padded_size(size, num_shards) // num_shards,), dtype)


def flat_unshard(shards: list, shape: tuple[int, ...]):
    """Reassemble :func:`flat_pad_shard` output into ``shape``."""
    if any(is_meta(s) for s in shards):
        return MetaArray(tuple(shape), shards[0].dtype)
    return kernel(_unshard, *shards, shape=tuple(shape))


def _unshard(*shards, shape: tuple[int, ...]):
    flat = np.concatenate([np.asarray(s).reshape(-1) for s in shards])
    size = math.prod(shape)
    if flat.size < size:
        raise ValueError(f"shards hold {flat.size} elements; shape {shape} needs {size}")
    return flat[:size].reshape(shape)


class ShardedParameter:
    """One logical matrix stored as flat shards over an FSDP group.

    Tracks the logical (unsharded) shape so gathers can restore it, and
    holds the per-rank shard bytes that :func:`register_shards` registers
    with the owning devices' memory trackers.

    Parameters
    ----------
    full:
        The logical array (real or meta) to distribute.
    num_shards:
        FSDP group size.
    name:
        Used for memory-tracker tags and error messages.
    group:
        Optional FSDP :class:`~repro.cluster.process_group.ProcessGroup`
        owning the shards (member ``j`` holds shard ``j``).  When given,
        :func:`register_shards` allocates persistent shard memory (tag
        ``params.<name>``) on the members the timeline tracks — see
        :class:`~repro.cluster.cluster.GroupAllocation`.
    """

    def __init__(self, full, num_shards: int, name: str = "param", group=None):
        self.logical_shape = tuple(full.shape)
        self.dtype = full.dtype
        self.name = name
        self.shards = flat_pad_shard(full, num_shards)
        self.grad_shards: list | None = None
        self.group = group
        self._allocation = None
        if group is not None:
            if group.size != num_shards:
                raise ValueError(f"need a group of {num_shards} ranks, got {group.size}")
            self._allocation = GroupAllocation(
                group.cluster, group.ranks, self.shard_nbytes, f"params.{name}",
                fill=False,
            )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def shard_nbytes(self) -> int:
        """Bytes of one shard."""
        return nbytes_of(self.shards[0])

    def full(self):
        """Reassemble the logical array from the local shards (no comm)."""
        return flat_unshard(self.shards, self.logical_shape)

    def set_grad_shards(self, grad_shards: list) -> None:
        """Store (accumulate) the reduced gradient shards."""
        if len(grad_shards) != self.num_shards:
            raise ValueError(
                f"{self.name}: expected {self.num_shards} gradient shards, "
                f"got {len(grad_shards)}"
            )
        if self.grad_shards is None or any(is_meta(g) for g in grad_shards):
            self.grad_shards = list(grad_shards)
        else:
            self.grad_shards = [kernel(operator.add, g0, g1)
                                for g0, g1 in zip(self.grad_shards, grad_shards)]

    def zero_grad(self) -> None:
        self.grad_shards = None

    def full_grad(self):
        """Reassemble the logical gradient (testing/optimizer use)."""
        if self.grad_shards is None:
            return None
        return flat_unshard(self.grad_shards, self.logical_shape)

    def free(self) -> None:
        """Release the persistent shard allocations (simulated)."""
        if self._allocation is not None:
            self._allocation.release()
            self._allocation = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedParameter({self.name}, logical={self.logical_shape}, "
            f"shards={self.num_shards})"
        )


def register_shards(params) -> None:
    """Register (once unfolded: back-fill) ``params``' shards, one
    :func:`~repro.cluster.cluster.fill_groups` pass per FSDP group."""
    fill_groups(param._allocation for param in params)
