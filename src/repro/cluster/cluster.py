"""The virtual cluster: devices + topology + timeline + groups."""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Sequence

from repro.cluster.costmodel import CollectiveCostModel
from repro.cluster.device import VirtualGPU
from repro.cluster.process_group import ProcessGroup
from repro.cluster.timeline import Timeline
from repro.cluster.topology import FrontierTopology, LinkSpec
from repro.obs.off import OFF


class GroupAllocation:
    """``nbytes`` tagged ``tag`` held on each device of a rank group.

    Only the ranks the timeline currently tracks are registered: all of
    them on the exact timeline, the class representatives on a folded
    one.  The representatives' devices see the full allocation pattern,
    so per-device *maxima* are unchanged.  :meth:`fill` is idempotent —
    it registers whichever tracked ranks do not hold the allocation yet
    — so calling it again once the run has unfolded back-fills the
    skipped members and leaves every tracker as a never-folded run
    would have it.  ``fill=False`` leaves the first registration to a
    :func:`fill_groups` batch.
    """

    def __init__(self, cluster: "VirtualCluster", ranks: Sequence[int],
                 nbytes: int, tag: str, fill: bool = True):
        self._cluster = cluster
        self.ranks = ranks
        self.nbytes = nbytes
        self.tag = tag
        self._held: dict = {}
        if fill:
            self.fill()

    def fill(self) -> None:
        """Allocate on every tracked rank that holds nothing yet."""
        fill_groups((self,))

    def release(self) -> None:
        """Free every registered allocation."""
        for rank, alloc in self._held.items():
            self._cluster.device(rank).memory.free(alloc)
        self._held = {}


def fill_groups(allocations) -> None:
    """:meth:`GroupAllocation.fill` of each allocation (``None`` skipped),
    in one pass over each rank group's tracked ranks.  A device in one
    of the groups registers them in iteration order, as filling them
    one by one does."""
    batches: dict = {}
    for alloc in allocations:
        if alloc is not None:
            batches.setdefault(id(alloc.ranks), []).append(alloc)
    for batch in batches.values():
        cluster = batch[0]._cluster
        for rank in cluster.timeline.tracked_ranks(batch[0].ranks):
            memory = cluster.device(rank).memory
            for alloc in batch:
                if rank not in alloc._held:
                    alloc._held[rank] = memory.allocate(alloc.nbytes, alloc.tag)


class VirtualCluster:
    """A single-process stand-in for a Frontier partition.

    Parameters
    ----------
    num_gpus:
        World size (number of GCDs).
    gpus_per_node:
        GCDs per node (8 on Frontier).
    gpu_memory_bytes:
        HBM per GCD; ``None`` keeps the 64 GB default.
    track_device_memory:
        When False, devices get unlimited trackers (analytic what-if runs).
    intra_node / inter_node:
        Optional :class:`~repro.cluster.topology.LinkSpec` overrides.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` receiving one span
        per recorded compute/communication event.  Defaults to the
        no-op tracer (zero events, no overhead).
    timeline:
        Optional ready-made timeline (e.g. a
        :class:`~repro.cluster.timeline.FoldedTimeline`) to start with
        instead of the exact per-rank :class:`Timeline` — a builder that
        already knows it will fold never pays for ``num_gpus`` ledgers
        it would throw away.

    Examples
    --------
    >>> cluster = VirtualCluster(num_gpus=16)
    >>> tp_group = cluster.new_group(range(8))          # one node
    >>> {cluster.topology.node_of(r) for r in tp_group.ranks}
    {0}
    """

    def __init__(
        self,
        num_gpus: int,
        gpus_per_node: int = 8,
        gpu_memory_bytes: int | None = None,
        track_device_memory: bool = True,
        intra_node: LinkSpec | None = None,
        inter_node: LinkSpec | None = None,
        tracer=None,
        timeline: Timeline | None = None,
    ):
        topo_kwargs = {}
        if intra_node is not None:
            topo_kwargs["intra_node"] = intra_node
        if inter_node is not None:
            topo_kwargs["inter_node"] = inter_node
        self.topology = FrontierTopology(num_gpus, gpus_per_node, **topo_kwargs)
        self.cost_model = CollectiveCostModel(self.topology)
        if timeline is None:
            timeline = Timeline(num_gpus)
        elif timeline.num_ranks != num_gpus:
            raise ValueError(
                f"timeline covers {timeline.num_ranks} ranks, cluster has {num_gpus}"
            )
        self.timeline = timeline
        self.attach_tracer(tracer)
        self._gpu_memory_bytes = gpu_memory_bytes
        self._track_device_memory = track_device_memory
        self._devices: dict[int, VirtualGPU] = {}

    @property
    def world_size(self) -> int:
        """Total number of GPUs."""
        return self.topology.num_gpus

    @cached_property
    def world(self) -> ProcessGroup:
        """The group of every rank (built on first use)."""
        return ProcessGroup(self, range(self.world_size))

    def device(self, rank: int) -> VirtualGPU:
        """Device hosting ``rank``, created on first use.

        A folded run only ever asks for the class representatives'
        devices, so a 49,152-GCD cluster holds a few dozen
        :class:`VirtualGPU` objects, not 49,152.
        """
        try:
            return self._devices[rank]
        except KeyError:
            device = self._devices[rank] = self._create_device(rank)
            return device

    def _create_device(self, rank: int) -> VirtualGPU:
        if not 0 <= rank < self.world_size:
            raise IndexError(f"rank {rank} outside world of size {self.world_size}")
        if self._gpu_memory_bytes is None:
            device = VirtualGPU(rank)
        else:
            device = VirtualGPU(rank, memory_capacity=self._gpu_memory_bytes)
        if not self._track_device_memory:
            device.memory.capacity_bytes = None
        return device

    def touched_devices(self) -> Iterator[VirtualGPU]:
        """The devices created so far, in rank order.

        A device nobody asked for holds nothing and peaked at zero, so
        maxima and threshold scans over the touched ones equal the same
        scan over the whole world.
        """
        return (self._devices[rank] for rank in sorted(self._devices))

    def new_group(self, ranks: Sequence[int]) -> ProcessGroup:
        """Create a process group over the given global ranks."""
        return ProcessGroup(self, ranks)

    @property
    def tracer(self):
        """The tracer receiving timeline events (``OFF`` when untraced)."""
        return self.timeline.tracer

    @property
    def injector(self):
        """The fault injector the timeline consults before every event."""
        return self.timeline.injector

    def install_timeline(self, timeline: Timeline) -> None:
        """Replace the timeline (e.g. with a
        :class:`~repro.cluster.timeline.FoldedTimeline`), handing it the
        attached tracer and fault injector."""
        timeline.tracer, timeline.injector = self.tracer, self.injector
        self.timeline = timeline

    def attach_tracer(self, tracer) -> None:
        """Install (or replace) the tracer receiving timeline events."""
        self.timeline.tracer = tracer if tracer is not None else OFF

    def attach_injector(self, injector) -> None:
        """Install (or replace) the fault injector consulted by the
        timeline before every compute/communication event."""
        self.timeline.injector = injector if injector is not None else OFF

    def reset(self) -> None:
        """Clear the timeline, trace, and device memory (between runs)."""
        self.timeline.reset()
        self.tracer.clear()
        for device in self.touched_devices():
            device.memory.free_all()
            device.memory.reset_peak()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"VirtualCluster(num_gpus={self.world_size}, "
            f"nodes={self.topology.num_nodes})"
        )
