"""Plane partitioning for the sharded simulation engine.

The paper's dataplanes are fully disjoint in the core and meet only at
host endpoints, so the plane index is a natural parallel-decomposition
boundary: a :class:`ShardPlan` assigns each plane to exactly one shard
(contiguous balanced blocks), and every flow is then either *local* to
one shard (all its paths live on that shard's planes) or *spanning*
(an MPTCP connection whose subflows straddle shards and therefore
needs the epoch-coupling protocol in :mod:`repro.shard.coupling`).

The shard count comes from :func:`repro.shard.run_packet_trial`'s
``shards`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.flowspec import FlowSpec


@dataclass(frozen=True)
class ShardPlan:
    """Assignment of plane indices to shards (contiguous balanced blocks).

    Contiguous blocks keep the mapping trivially deterministic and give
    each shard the same number of planes +/- 1, which is the right
    balance for the paper's homogeneous dataplanes.
    """

    n_planes: int
    planes_of_shard: Tuple[Tuple[int, ...], ...]

    @classmethod
    def build(cls, n_planes: int, n_shards: int) -> "ShardPlan":
        if n_planes < 1:
            raise ValueError(f"need >= 1 plane, got {n_planes}")
        if n_shards < 1:
            raise ValueError(f"need >= 1 shard, got {n_shards}")
        # More shards than planes would leave empty workers; clamp.
        n_shards = min(n_shards, n_planes)
        base, extra = divmod(n_planes, n_shards)
        blocks: List[Tuple[int, ...]] = []
        start = 0
        for shard in range(n_shards):
            width = base + (1 if shard < extra else 0)
            blocks.append(tuple(range(start, start + width)))
            start += width
        return cls(n_planes=n_planes, planes_of_shard=tuple(blocks))

    @property
    def n_shards(self) -> int:
        return len(self.planes_of_shard)

    def shard_of(self, plane: int) -> int:
        """Owning shard of a plane index."""
        if not 0 <= plane < self.n_planes:
            raise ValueError(
                f"plane {plane} out of range for {self.n_planes} planes"
            )
        for shard, planes in enumerate(self.planes_of_shard):
            if plane in planes:
                return shard
        raise AssertionError("unreachable: contiguous blocks cover all planes")

    def shards_of(self, spec: FlowSpec) -> Tuple[int, ...]:
        """Sorted shard indices touched by a flow's paths."""
        return tuple(sorted({self.shard_of(p) for p, __ in spec.paths}))

    def is_spanning(self, spec: FlowSpec) -> bool:
        """True when the flow's subflows straddle more than one shard."""
        return len(self.shards_of(spec)) > 1

    def local_paths(
        self, spec: FlowSpec, shard: int
    ) -> List[Tuple[int, Tuple[int, List[str]]]]:
        """The subset of ``spec.paths`` owned by ``shard``.

        Returns ``(subflow_index, plane_path)`` pairs so a spanning
        connection's digests can be stitched back together in the
        original subflow order.
        """
        owned = self.planes_of_shard[shard]
        return [
            (i, path) for i, path in enumerate(spec.paths) if path[0] in owned
        ]


def classify(
    specs: Sequence[FlowSpec], plan: ShardPlan
) -> Tuple[Dict[int, List[int]], List[int]]:
    """Split flows into per-shard local lists and a spanning list.

    Returns ``(local, spanning)`` where ``local[shard]`` is the list of
    global flow indices fully owned by that shard (in submission order)
    and ``spanning`` is the list of global indices of multi-shard
    connections (in submission order).  Global index == position in
    ``specs`` == the flow id the merged records report.
    """
    local: Dict[int, List[int]] = {s: [] for s in range(plan.n_shards)}
    spanning: List[int] = []
    for gid, spec in enumerate(specs):
        shards = plan.shards_of(spec)
        if len(shards) == 1:
            local[shards[0]].append(gid)
        else:
            spanning.append(gid)
    return local, spanning
