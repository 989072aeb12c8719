"""Shortest-path primitives over :class:`~repro.topology.graph.Topology`.

All functions measure path length in *links traversed* (so a host --
ToR -- host path has length 2).  The paper quotes *switch hops* (chips a
packet crosses); use :func:`switch_hops` to convert a concrete path.

Paths are returned as node-name lists including both endpoints.  All
enumeration orders are deterministic (sorted neighbour order) so that the
same topology + seed always yields identical routing state.

Path enumeration (:func:`all_shortest_paths`, and Yen in
:mod:`repro.routing.ksp`) runs between the endpoints' attachment nodes:
a leaf -- a host, with one live link -- stands for its neighbour, unless
that neighbour is the other endpoint.  The topology's
:class:`~repro.topology.graph.RoutingView` memoises each search per
switch pair and bound until the topology changes, so hosts on one rack
pair share one search.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence

from repro.topology.graph import HOST, RoutingView, Topology


def bfs_distances(
    topo: Topology, source: str, cutoff: Optional[int] = None
) -> Dict[str, int]:
    """Hop distance from ``source`` to every reachable node (live links)."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        d = dist[node]
        if cutoff is not None and d >= cutoff:
            continue
        for nbr in topo.neighbors(node):
            if nbr not in dist:
                dist[nbr] = d + 1
                frontier.append(nbr)
    return dist


def shortest_path_length(topo: Topology, src: str, dst: str) -> Optional[int]:
    """Length of a shortest live path, or None if disconnected."""
    if src == dst:
        return 0
    dist = {src: 0}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        for nbr in topo.neighbors(node):
            if nbr == dst:
                return dist[node] + 1
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                frontier.append(nbr)
    return None


def shortest_path(topo: Topology, src: str, dst: str) -> Optional[List[str]]:
    """One deterministic shortest path (lexicographically first), or None."""
    paths = all_shortest_paths(topo, src, dst, limit=1)
    return paths[0] if paths else None


def all_shortest_paths(
    topo: Topology, src: str, dst: str, limit: Optional[int] = None
) -> List[List[str]]:
    """Every shortest path from ``src`` to ``dst`` (up to ``limit``).

    Builds the shortest-path DAG via a backward BFS from ``dst`` and
    enumerates forward through it depth-first in sorted neighbour order,
    so output order is deterministic: ascending by node sequence.  Both
    run on the topology's :class:`~repro.topology.graph.RoutingView`,
    between the endpoints' attachment nodes (a host's is its switch):
    the view memoises that search per switch pair and ``limit``, and
    each answer gets the host hops added.
    """
    if src == dst:
        return [[src]]
    view = topo.routing_view()
    target = view.index[dst]
    source = view.index.get(src)
    if source is None:
        return []
    return [
        [src] + view.hop_names(path)
        for path in view.routed(equal_cost_paths, source, target, limit)
    ]


def equal_cost_paths(
    view: RoutingView, src: int, dst: int, limit: Optional[int] = None
) -> List[List[int]]:
    """:func:`all_shortest_paths` on view indices, for ``src != dst``.

    The backward BFS from ``dst`` stops as soon as ``src`` is reached:
    every node closer to ``dst`` has its distance by then, and the walk
    only descends to closer nodes.  Leaves other than ``src`` are never
    queued, because no shortest path passes through a leaf.
    """
    inner = view.inner
    src_nbrs = set(view.nbrs[src])
    dist = {dst: 0}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        d = dist[node] + 1
        if node in src_nbrs:
            dist[src] = d
            break
        for nbr in inner[node]:
            if nbr not in dist:
                dist[nbr] = d
                frontier.append(nbr)
    if src not in dist:
        return []

    paths: List[List[int]] = []
    stack = [src]

    def walk(node: int, d: int) -> bool:
        """DFS through the DAG; returns False once the limit is hit."""
        if d == 1:
            paths.append(stack + [dst])
            return limit is None or len(paths) < limit
        for nbr in inner[node]:
            if dist.get(nbr) == d - 1:
                stack.append(nbr)
                keep_going = walk(nbr, d - 1)
                stack.pop()
                if not keep_going:
                    return False
        return True

    walk(src, dist[src])
    return paths


def switch_hops(topo: Topology, path: Sequence[str]) -> int:
    """Number of switches a packet crosses along ``path``.

    The paper's "hop count" metric (e.g. Figure 14) counts switch chips,
    not links: a host-ToR-host path is 1 hop.
    """
    return sum(1 for node in path if topo.kind(node) != HOST)


def next_hop_options(
    topo: Topology, node: str, dst: str, dist_to_dst: Dict[str, int]
) -> List[str]:
    """ECMP next hops at ``node`` toward ``dst`` given distances to ``dst``."""
    here = dist_to_dst.get(node)
    if here is None or node == dst:
        return []
    return sorted(
        nbr
        for nbr in topo.neighbors(node)
        if dist_to_dst.get(nbr, -1) == here - 1
    )


def average_shortest_switch_hops(
    topo: Topology, hosts: Optional[Iterable[str]] = None
) -> float:
    """Mean switch-hop count of shortest paths over all host pairs.

    Used directly by the fault-tolerance study (Figure 14).  Pairs that
    become disconnected under failures are excluded from the mean (the
    paper's metric is over surviving shortest paths).
    """
    host_list = sorted(hosts) if hosts is not None else sorted(topo.hosts)
    if len(host_list) < 2:
        raise ValueError("need at least two hosts")
    total = 0
    count = 0
    for src in host_list:
        dist = bfs_distances(topo, src)
        for dst in host_list:
            if dst == src:
                continue
            d = dist.get(dst)
            if d is None:
                continue
            # A host-to-host path of L links crosses L-1 switches.
            total += d - 1
            count += 1
    if count == 0:
        raise ValueError("no connected host pairs")
    return total / count
