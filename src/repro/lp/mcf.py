"""Path-based maximum-concurrent-flow LP.

Given a traffic matrix (a set of commodities with demands) and, for each
commodity, the set of paths its routing scheme allows it to use, find the
largest common scale factor ``alpha`` such that every commodity can ship
``alpha * demand`` simultaneously without exceeding any link capacity.

This is exactly how the paper measures "ideal throughput with computed
routes" (section 5.1.1): the routes come from ECMP or K-shortest-paths, and
the LP finds the best rate allocation over them.  Normalising the resulting
``alpha`` against the serial low-bandwidth network's gives the y-axis of
Figures 6 and 8.

Formulation (variables ``x_p >= 0`` per path, plus ``alpha``)::

    maximise   alpha
    s.t.       sum_{p in P_i} x_p  =  alpha * d_i      for each commodity i
               sum_{p uses e} x_p  <= c(e)             for each directed link e

Paths may live on different dataplanes of a P-Net; each path is tagged
with its plane so link usage is accounted against the right plane's
capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.obs import get_registry
from repro.topology.graph import Topology

#: A path tagged with the dataplane it lives on: (plane_index, node list).
PlanePath = Tuple[int, List[str]]


@dataclass
class Commodity:
    """One src->dst demand restricted to an explicit set of paths."""

    src: str
    dst: str
    paths: List[PlanePath]
    demand: float = 1.0

    def __post_init__(self):
        if self.demand <= 0:
            raise ValueError(f"demand must be positive, got {self.demand}")
        if not self.paths:
            raise ValueError(f"commodity {self.src}->{self.dst} has no paths")
        for plane_idx, path in self.paths:
            if path[0] != self.src or path[-1] != self.dst:
                raise ValueError(
                    f"path {path} does not connect {self.src}->{self.dst}"
                )


@dataclass
class McfResult:
    """Solution of a max-concurrent-flow instance.

    Attributes:
        alpha: the common throughput scale factor (bits/s per unit demand).
        total_throughput: sum over commodities of ``alpha * demand``.
        path_rates: per-commodity list of per-path rates (bits/s), aligned
            with each commodity's ``paths`` list.
    """

    alpha: float
    total_throughput: float
    path_rates: List[List[float]] = field(repr=False)


def _directed_link_index(
    planes: Sequence[Topology],
) -> Tuple[Dict[Tuple[int, str, str], int], np.ndarray]:
    """Map (plane, u, v) directed links to column indices + capacities."""
    index: Dict[Tuple[int, str, str], int] = {}
    caps: List[float] = []
    for plane_idx, plane in enumerate(planes):
        for link in plane.live_links:
            for u, v in ((link.u, link.v), (link.v, link.u)):
                index[(plane_idx, u, v)] = len(caps)
                caps.append(link.capacity)
    return index, np.asarray(caps)


def max_concurrent_flow(
    planes: Sequence[Topology],
    commodities: Sequence[Commodity],
    objective: str = "concurrent",
) -> McfResult:
    """Solve the path-based throughput LP.

    Args:
        planes: the dataplanes the paths refer to (a single-element list
            for a serial network).
        commodities: demands with their allowed paths.
        objective: ``"concurrent"`` maximises the common scale factor
            (the paper's metric); ``"total"`` maximises total throughput
            with no fairness coupling (useful for ablations -- it lets the
            LP starve badly-placed commodities).

    Returns:
        An :class:`McfResult`.

    Raises:
        ValueError: on unknown objective, empty commodities, or a path
            referencing a missing/failed link.
    """
    if not commodities:
        raise ValueError("need at least one commodity")
    if objective not in ("concurrent", "total"):
        raise ValueError(f"unknown objective {objective!r}")

    link_index, capacities = _directed_link_index(planes)
    n_links = len(capacities)

    # Column layout: one x_p per (commodity, path), then alpha last
    # (alpha only exists for the concurrent objective).
    n_paths_total = sum(len(c.paths) for c in commodities)
    has_alpha = objective == "concurrent"
    n_vars = n_paths_total + (1 if has_alpha else 0)
    alpha_col = n_paths_total

    # Capacity rows: A_ub x <= capacities.
    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_data: List[float] = []

    # Demand rows (concurrent): sum x_p - alpha d_i = 0.
    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_data: List[float] = []

    col = 0
    for i, commodity in enumerate(commodities):
        for plane_idx, path in commodity.paths:
            for u, v in zip(path, path[1:]):
                try:
                    link_col = link_index[(plane_idx, u, v)]
                except KeyError:
                    raise ValueError(
                        f"path edge {u}->{v} not a live link of plane "
                        f"{plane_idx}"
                    ) from None
                ub_rows.append(link_col)
                ub_cols.append(col)
                ub_data.append(1.0)
            if has_alpha:
                eq_rows.append(i)
                eq_cols.append(col)
                eq_data.append(1.0)
            col += 1
        if has_alpha:
            eq_rows.append(i)
            eq_cols.append(alpha_col)
            eq_data.append(-commodity.demand)

    # Keep only links some path actually uses: all-zero rows are vacuous
    # and have been observed to confuse HiGHS' presolve at scale.
    used_links = sorted(set(ub_rows))
    row_map = {old: new for new, old in enumerate(used_links)}
    ub_rows = [row_map[r] for r in ub_rows]
    capacities = capacities[used_links]

    a_ub = sparse.coo_matrix(
        (ub_data, (ub_rows, ub_cols)), shape=(len(used_links), n_vars)
    ).tocsr()

    # Normalise capacities to O(1): HiGHS mis-converges on some instances
    # when right-hand sides are ~1e11 (100 Gb/s in bits/s).  Rates scale
    # back by cap_scale after the solve.
    cap_scale = float(capacities.max()) if len(capacities) else 1.0
    if cap_scale <= 0:
        cap_scale = 1.0

    c = np.zeros(n_vars)
    if has_alpha:
        c[alpha_col] = -1.0
        a_eq = sparse.coo_matrix(
            (eq_data, (eq_rows, eq_cols)), shape=(len(commodities), n_vars)
        ).tocsr()
        b_eq = np.zeros(len(commodities))
    else:
        c[:n_paths_total] = -1.0
        a_eq = None
        b_eq = None

    obs = get_registry()
    with obs.timer("lp.solve_seconds", objective=objective):
        result = linprog(
            c,
            A_ub=a_ub,
            b_ub=capacities / cap_scale,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs",
        )
    if obs.enabled:
        obs.counter("lp.solves", objective=objective).inc()
        obs.gauge("lp.variables").max(n_vars)
        obs.gauge("lp.constraints").max(
            len(used_links) + (len(commodities) if has_alpha else 0)
        )
    if not result.success:
        raise RuntimeError(f"LP solve failed: {result.message}")

    x = result.x * cap_scale
    path_rates: List[List[float]] = []
    col = 0
    for commodity in commodities:
        rates = [float(x[col + j]) for j in range(len(commodity.paths))]
        path_rates.append(rates)
        col += len(commodity.paths)

    if has_alpha:
        alpha = float(x[alpha_col])
        total = alpha * sum(c_.demand for c_ in commodities)
    else:
        total = float(sum(sum(r) for r in path_rates))
        # For the total objective report the worst per-unit-demand rate.
        alpha = min(
            sum(r) / c_.demand for r, c_ in zip(path_rates, commodities)
        )
    return McfResult(alpha=alpha, total_throughput=total, path_rates=path_rates)
