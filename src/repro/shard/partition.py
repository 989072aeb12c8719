"""Plane partitioning for the sharded simulation engine.

The paper's dataplanes are fully disjoint in the core and meet only at
host endpoints, so the plane index is a natural parallel-decomposition
boundary: a :class:`ShardPlan` assigns each plane to exactly one shard
(contiguous balanced blocks), and every flow is then either *local* to
one shard (all its paths live on that shard's planes) or *spanning*
(an MPTCP connection whose subflows straddle shards and therefore
needs the epoch-coupling protocol in :mod:`repro.shard.coupling`).

Shard count and epoch length resolve from ``PNET_SHARDS`` /
``PNET_EPOCH`` unless overridden programmatically, mirroring how
``PNET_JOBS`` works for the trial-level runner.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.flowspec import FlowSpec

#: Default epoch barrier spacing (simulated seconds).  A handful of
#: fabric RTTs: long enough to amortise barrier cost, short enough that
#: LIA coupling staleness stays small (see tests/test_shard_coupling.py
#: for the empirically enforced bound).
DEFAULT_EPOCH = 1e-4


def get_shards(override: Optional[int] = None) -> int:
    """Resolve the shard count: explicit override, else ``PNET_SHARDS``."""
    if override is None:
        raw = os.environ.get("PNET_SHARDS", "1")
        try:
            override = int(raw)
        except ValueError:
            raise ValueError(
                f"PNET_SHARDS must be an integer, got {raw!r}"
            ) from None
    if override < 1:
        raise ValueError(f"shard count must be >= 1, got {override}")
    return override


def serial_fallback(feature: str, obs=None) -> int:
    """Resolve shards to 1 for a workload that cannot shard safely.

    Control-plane behaviours -- route repair, flow resteering -- are
    inherently cross-plane, so experiments built on them run serial
    regardless of ``PNET_SHARDS``.  When the user *asked* for shards,
    the fallback is recorded on the ``shard.serial_fallback`` counter
    (labelled with the feature) so a silently-serial run is visible in
    telemetry rather than a mystery slowdown.  Returns 1, the effective
    shard count.
    """
    if get_shards() > 1:
        _count_fallback(feature, obs)
    return 1


def _count_fallback(feature: str, obs=None) -> None:
    """Record one downgrade of a multi-shard request to the serial path.

    The shard engine calls this directly: it has already resolved a
    count above one (from ``shards=`` or ``PNET_SHARDS``), so it must
    not re-read the environment the way :func:`serial_fallback` does.
    """
    if obs is None:
        from repro.obs import get_registry

        obs = get_registry()
    obs.counter("shard.serial_fallback", feature=feature).inc()


def get_epoch(override: Optional[float] = None) -> float:
    """Resolve the epoch length: explicit override, else ``PNET_EPOCH``.

    ``0`` is legal and means "no staleness allowed": the engine falls
    back to the serial single-loop path, which is byte-identical to the
    pre-shard simulator.
    """
    if override is None:
        raw = os.environ.get("PNET_EPOCH", "")
        if not raw:
            return DEFAULT_EPOCH
        try:
            override = float(raw)
        except ValueError:
            raise ValueError(
                f"PNET_EPOCH must be a number, got {raw!r}"
            ) from None
    if override < 0:
        raise ValueError(f"epoch must be >= 0, got {override}")
    return override


def get_lookahead(override: Optional[float] = None) -> Optional[float]:
    """Resolve the barrier lookahead: override, else ``PNET_LOOKAHEAD``.

    Returns ``None`` for "auto" (unset, empty, or the literal string
    ``auto``): the engine derives the lookahead from the minimum
    cross-plane path RTT of the spanning connections (see
    :func:`repro.shard.lookahead.derive_lookahead`).  ``0`` disables
    barrier batching (one digest exchange per epoch, the pre-lookahead
    behaviour); a positive value is an explicit lookahead in simulated
    seconds.
    """
    if override is None:
        raw = os.environ.get("PNET_LOOKAHEAD", "").strip()
        if not raw or raw == "auto":
            return None
        try:
            override = float(raw)
        except ValueError:
            raise ValueError(
                f"PNET_LOOKAHEAD must be a number or 'auto', got {raw!r}"
            ) from None
    if override < 0:
        raise ValueError(f"lookahead must be >= 0, got {override}")
    return override


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
