"""Process groups: ordered rank sets that collectives operate over.

Semantically equivalent to ``torch.distributed`` process groups (or MPI
communicators): a group owns an ordered tuple of *global* ranks, and
collectives address peers by *group-local* index.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import VirtualCluster


class ProcessGroup:
    """An ordered set of global ranks within one virtual cluster."""

    def __init__(self, cluster: "VirtualCluster", ranks: Sequence[int]):
        ranks = tuple(int(r) for r in ranks)
        if not ranks:
            raise ValueError("a process group needs at least one rank")
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate ranks in group: {ranks}")
        for rank in (min(ranks), max(ranks)):
            if not 0 <= rank < cluster.world_size:
                raise ValueError(f"rank {rank} outside world of size {cluster.world_size}")
        self.cluster = cluster
        self.ranks = ranks

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.ranks)

    def local_index(self, global_rank: int) -> int:
        """Group-local index of a global rank."""
        try:
            return self.ranks.index(global_rank)
        except ValueError:
            raise ValueError(f"rank {global_rank} is not in group {self.ranks}") from None

    def global_rank(self, local_index: int) -> int:
        """Global rank of a group-local index."""
        return self.ranks[local_index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.ranks)

    def __contains__(self, rank: int) -> bool:
        return rank in self.ranks

    def __len__(self) -> int:
        return len(self.ranks)

    def __repr__(self) -> str:
        if len(self.ranks) > 8:
            shown = ", ".join(map(str, self.ranks[:4])) + f", ... ({len(self.ranks)} ranks)"
        else:
            shown = ", ".join(map(str, self.ranks))
        return f"ProcessGroup([{shown}])"
