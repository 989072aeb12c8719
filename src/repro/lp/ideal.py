"""Edge-based multicommodity-flow LP: throughput with no path constraint.

This measures "the total capacity of the network core" (section 5.1.1,
Figure 7): the best any routing scheme could possibly do.  Flows may split
arbitrarily over the whole fabric, so we use an edge-flow formulation with
commodities aggregated by source (one flow variable per source group and
directed edge), which keeps the LP polynomial in network size::

    maximise  alpha
    s.t.      conservation:  for each source s, node v != s:
                  inflow_s(v) - outflow_s(v) = alpha * demand(s, v)
              capacity:      sum_s flow_s(e) <= c(e)
                             for each directed e with finite c(e)

For a P-Net, :func:`merge_parallel` unions the planes into one graph whose
switch names are prefixed per plane, so the planes meet only at host-kind
nodes: the shared hosts and, for rack-level traffic, the virtual rack
nodes.  Conservation alone would let flow enter such a node from one plane
and leave it into another, which a P-Net never allows: traffic picks a
plane at the edge and stays in it.  So source ``s`` has no flow variable
on an edge leaving any other host-kind node, nor on an edge entering
``s``.  Every unit of ``s``'s flow then runs from ``s`` through the
switches of one plane to its destination.

Figure 7 runs *rack-level* traffic: :func:`merge_parallel_with_rack_sources`
adds a virtual rack node per ToR index, attached to its ToR in every plane
by a link of infinite capacity.  An infinite link gets no capacity row, so
the measured bottleneck is the network core -- matching the paper's setup.

Capacities are divided by the largest finite one, so every capacity row
reads O(1) and HiGHS's feasibility tolerances are relative to real link
sizes.  The LP is solved by HiGHS's interior-point method (IPX), whose
crossover still returns a vertex.  On this well-scaled LP dual simplex and
interior point agree to rel 1e-9 (``tests/test_lp.py`` pins it), and
interior point is 1.5-3x faster per solve at figure 7's sizes.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.topology.graph import HOST, TOR, Topology


def merge_parallel(planes: Sequence[Topology], name: str = "merged") -> Topology:
    """Union of dataplanes sharing host nodes; switches get plane prefixes."""
    merged = Topology(name)
    for plane_idx, plane in enumerate(planes):
        prefix = f"p{plane_idx}:"
        for node in plane.nodes:
            kind = plane.kind(node)
            merged.add_node(node if kind == HOST else prefix + node, kind)
        for link in plane.live_links:
            ends = []
            for end in (link.u, link.v):
                kind = plane.kind(end)
                ends.append(end if kind == HOST else prefix + end)
            merged.add_link(ends[0], ends[1], link.capacity, link.propagation)
    return merged


def merge_parallel_with_rack_sources(
    planes: Sequence[Topology],
    name: str = "merged-racks",
) -> Tuple[Topology, List[str]]:
    """Merge planes and attach one virtual rack node per ToR index.

    Every plane must have the same ToR name set (true for homogeneous
    *and* heterogeneous constructions from this repo's builders, which
    name switches ``t0..``).  Rack node ``r{i}`` is a host-kind node that
    connects to ``t{i}`` in each plane with a link of infinite capacity,
    which :func:`ideal_throughput` leaves unconstrained.

    Returns:
        (merged topology, list of rack node names).
    """
    tor_sets = [set(p.nodes_of_kind(TOR)) for p in planes]
    for other in tor_sets[1:]:
        if other != tor_sets[0]:
            raise ValueError("planes must share ToR names for rack sources")
    merged = merge_parallel(planes, name=name)
    racks = []
    for tor in sorted(tor_sets[0], key=lambda t: int(t[1:])):
        rack = f"r{tor[1:]}"
        merged.add_node(rack, HOST)
        for plane_idx in range(len(planes)):
            merged.add_link(rack, f"p{plane_idx}:{tor}", math.inf)
        racks.append(rack)
    return merged, racks


def ideal_throughput(
    topo: Topology,
    demands: Dict[Tuple[str, str], float],
) -> float:
    """Maximum concurrent throughput scale ``alpha`` with free routing.

    Args:
        topo: the (possibly merged multi-plane) network.  Host-kind nodes
            send and receive but never forward.
        demands: map (src, dst) -> demand.  ``alpha * demand`` is shipped
            for every pair at the optimum.

    Returns:
        The optimal ``alpha`` (bits/s per unit demand).
    """
    return _solve_edge_flows(topo, demands).alpha


class _EdgeFlows(NamedTuple):
    """An optimal solution of the edge LP.

    LP column ``j`` carries ``flow[j]`` bits/s of source
    ``nodes[source[j]]``'s traffic over the directed edge
    ``nodes[tail[j]] -> nodes[head[j]]``.
    """

    alpha: float
    nodes: List[str]
    source: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    flow: np.ndarray


def _solve_edge_flows(
    topo: Topology,
    demands: Dict[Tuple[str, str], float],
) -> _EdgeFlows:
    """Build and solve the edge LP (see the module docstring)."""
    if not demands:
        raise ValueError("need at least one demand")
    for (src, dst), demand in demands.items():
        if src == dst:
            raise ValueError(f"self-demand {src}->{dst}")
        if demand <= 0:
            raise ValueError(f"demand must be positive: {src}->{dst}")
        for node in (src, dst):
            if node not in topo:
                raise KeyError(f"unknown node {node!r}")

    nodes = sorted(topo.nodes)
    node_idx = {n: i for i, n in enumerate(nodes)}
    n_nodes = len(nodes)
    is_host = np.array([topo.kind(n) == HOST for n in nodes], dtype=bool)

    # Both directions of every live link: edge e runs tail[e] -> head[e].
    links = topo.live_links
    ends = np.array(
        [(node_idx[link.u], node_idx[link.v]) for link in links],
        dtype=np.intp,
    ).reshape(-1, 2)
    link_caps = np.array([link.capacity for link in links], dtype=float)
    tail = np.concatenate([ends[:, 0], ends[:, 1]])
    head = np.concatenate([ends[:, 1], ends[:, 0]])
    capacities = np.concatenate([link_caps, link_caps])

    sources = sorted({src for src, __ in demands})
    src_pos = {s: i for i, s in enumerate(sources)}
    src_nodes = np.array([node_idx[s] for s in sources], dtype=np.intp)
    demand = np.zeros((len(sources), n_nodes))
    for (src, dst), value in demands.items():
        demand[src_pos[src], node_idx[dst]] = value

    # One flow column per (source, usable edge); alpha is the last column.
    # Source s's flow leaves only s itself or a switch, and never enters s.
    forwards = ~is_host[tail]
    col_source = []
    col_edge = []
    for s_i, s_node in enumerate(src_nodes):
        usable = (forwards | (tail == s_node)) & (head != s_node)
        edges = np.flatnonzero(usable)
        col_edge.append(edges)
        col_source.append(np.full(len(edges), s_i, dtype=np.intp))
    col_edge = np.concatenate(col_edge)
    col_source = np.concatenate(col_source)
    n_flows = len(col_edge)
    alpha_col = n_flows
    cols = np.arange(n_flows)
    col_tail = tail[col_edge]
    col_head = head[col_edge]

    # Conservation row of node v in source block s_i: s_i * n_nodes + v,
    # compacted to the rows that have an entry.
    leaves_node = col_tail != src_nodes[col_source]
    dem_s, dem_v = np.nonzero(demand)
    eq_keys = np.concatenate([
        col_source * n_nodes + col_head,
        (col_source * n_nodes + col_tail)[leaves_node],
        dem_s * n_nodes + dem_v,
    ])
    eq_cols = np.concatenate([
        cols, cols[leaves_node], np.full(len(dem_s), alpha_col),
    ])
    eq_data = np.concatenate([
        np.ones(n_flows),
        -np.ones(int(leaves_node.sum())),
        -demand[dem_s, dem_v],
    ])
    eq_rows, eq_row_of = np.unique(eq_keys, return_inverse=True)
    a_eq = sparse.csr_matrix(
        (eq_data, (eq_row_of, eq_cols)), shape=(len(eq_rows), n_flows + 1)
    )

    # Capacity: sum_s f[s, e] <= cap(e) for every used finite edge.
    capped = np.isfinite(capacities[col_edge])
    ub_edges, ub_row_of = np.unique(col_edge[capped], return_inverse=True)
    a_ub = sparse.csr_matrix(
        (np.ones(len(ub_row_of)), (ub_row_of, cols[capped])),
        shape=(len(ub_edges), n_flows + 1),
    )
    finite = capacities[np.isfinite(capacities)]
    cap_scale = float(finite.max()) if finite.size else 1.0

    c = np.zeros(n_flows + 1)
    c[alpha_col] = -1.0
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=capacities[ub_edges] / cap_scale,
        A_eq=a_eq,
        b_eq=np.zeros(len(eq_rows)),
        bounds=(0, None),
        method="highs-ipm",
    )
    if not result.success:
        raise RuntimeError(f"ideal LP solve failed: {result.message}")
    x = result.x * cap_scale
    return _EdgeFlows(
        alpha=float(x[alpha_col]),
        nodes=nodes,
        source=src_nodes[col_source],
        tail=col_tail,
        head=col_head,
        flow=x[:n_flows],
    )
