"""Routed-throughput helper shared by the LP experiments (Figs 6 and 8).

Builds LP commodities by asking a path-selection policy for each flow's
allowed paths, then solves the max-concurrent-flow LP -- exactly the
paper's "ideal throughput with computed routes" methodology.

Both expensive stages are transparently memoised in the on-disk artifact
cache (:mod:`repro.exp.cache`):

* **route sets** -- keyed by the network content hash, the policy
  fingerprint, and the enumerated pair list (KSP enumeration dominates
  large sweeps);
* **LP solutions** -- keyed by the network hash (capacities), the exact
  route set, the demand matrix, and the objective.

Like every cache entry, both are also keyed by the package source hash,
so an edit to the routing or LP code misses them.  Identical inputs
therefore never re-solve, across processes and runs, and changed code
always does; ``PNET_CACHE=0`` disables all of it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.path_selection import PathSelectionPolicy
from repro.core.pnet import PlanePath, PNet
from repro.exp.cache import get_cache, pnet_hash
from repro.lp.mcf import Commodity, max_concurrent_flow


def select_routes(
    pnet: PNet,
    pairs: Sequence[Tuple[str, str]],
    policy: PathSelectionPolicy,
) -> List[List[PlanePath]]:
    """Per-flow (plane, path) lists for an enumerated pair list, cached.

    Flow ids are the pair indices (matching every LP experiment's
    enumeration).  Policies that do not implement ``fingerprint()`` are
    computed directly, uncached.
    """
    try:
        fingerprint = policy.fingerprint()
    except NotImplementedError:
        return [
            policy.select(src, dst, flow_id)
            for flow_id, (src, dst) in enumerate(pairs)
        ]
    key = (pnet_hash(pnet), fingerprint, [list(p) for p in pairs])
    routes = get_cache().get_or_compute(
        "routes",
        key,
        lambda: [
            policy.select(src, dst, flow_id)
            for flow_id, (src, dst) in enumerate(pairs)
        ],
    )
    # Normalise pickled shapes back to the in-memory convention.
    return [[(int(p), list(path)) for p, path in flow] for flow in routes]


def routed_throughput(
    pnet: PNet,
    pairs: Sequence[Tuple[str, str]],
    policy: PathSelectionPolicy,
) -> float:
    """Max concurrent per-flow throughput (bits/s) under policy routes.

    Every (src, dst) pair becomes one unit-demand commodity constrained
    to the paths the policy selects for it.

    Raises:
        RuntimeError: if the policy returns no path for some pair.
    """
    commodities = _commodities(pnet, pairs, policy)
    alpha, __ = _cached_solve(pnet, commodities, "concurrent")
    return alpha


def routed_total_throughput(
    pnet: PNet,
    pairs: Sequence[Tuple[str, str]],
    policy: PathSelectionPolicy,
) -> float:
    """Max *total* throughput (bits/s) over policy routes.

    Section 5.1.1 compares "the total throughput of flows"; this is that
    metric (it may starve badly-routed flows, which is precisely how ECMP
    collisions show up as lost capacity).
    """
    commodities = _commodities(pnet, pairs, policy)
    __, total = _cached_solve(pnet, commodities, "total")
    return total


def _commodities(
    pnet: PNet,
    pairs: Sequence[Tuple[str, str]],
    policy: PathSelectionPolicy,
) -> List[Commodity]:
    commodities: List[Commodity] = []
    routes = select_routes(pnet, pairs, policy)
    for (src, dst), paths in zip(pairs, routes):
        if not paths:
            raise RuntimeError(f"policy found no path for {src}->{dst}")
        commodities.append(Commodity(src=src, dst=dst, paths=paths))
    return commodities


def _cached_solve(
    pnet: PNet,
    commodities: Sequence[Commodity],
    objective: str,
) -> Tuple[float, float]:
    """(alpha, total_throughput) of the LP, memoised on disk.

    Only the two scalars are cached (per-path rates are large and no
    experiment consumes them through this helper).
    """
    key = (
        pnet_hash(pnet),
        [
            (c.src, c.dst, c.demand, [(p, list(path)) for p, path in c.paths])
            for c in commodities
        ],
        objective,
    )

    def solve() -> Tuple[float, float]:
        result = max_concurrent_flow(
            pnet.planes, commodities, objective=objective
        )
        return (result.alpha, result.total_throughput)

    alpha, total = get_cache().get_or_compute("lp", key, solve)
    return float(alpha), float(total)
