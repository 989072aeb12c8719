"""K-shortest loopless paths (Yen's algorithm [45]).

The paper pairs MPTCP with K-shortest-paths routing (section 4), following
Jellyfish [38].  Hop count is the path metric (all links are equal cost in
the evaluated fabrics).

Implementation notes:

* Equal-cost shortest paths are enumerated directly from the shortest-path
  DAG first (cheap, and in fat trees usually covers all K); Yen's spur
  machinery only runs when more paths are needed.
* Every search runs on the topology's
  :class:`~repro.topology.graph.RoutingView`: nodes are indices in name
  order, and each node has the sorted tuple of its live neighbours plus
  the same tuple without live leaves (nodes with one live link).  The
  view is built at the first query after a change to the topology, and
  paths come back spelled with the topology's own name objects
  (:meth:`~repro.topology.graph.RoutingView.hop_names`).
* A spur search is a BFS from the spur node that records the first node
  to discover each node, in sorted neighbour order.  Three changes make
  it cheap, and each leaves its result unchanged:

  1. Every link Yen bans joins the spur node to the next node of a path
     already found, and the BFS can only take such a link outward from
     the spur node, its root.  The banned links are therefore banned
     first hops.
  2. A live leaf that is not the target is reached over its only link,
     so it cannot discover anything; it is never queued.
  3. The search stops as soon as a node next to the target is taken
     from the queue: that node discovers the target, and the parent
     chain behind it is already fixed.
* Yen runs between the endpoints' attachment nodes (a host stands for
  its switch, see :meth:`~repro.topology.graph.RoutingView.attachment`),
  at most once per switch pair and ``k`` while the view lives, and every
  answer gets the host hops added.  This fourth change is exact too.  A
  leaf's every loopless path crosses its one neighbour next, and no
  loopless path passes through a leaf, so the host paths are the switch
  paths with the leaf hops added, in the same (length, sequence) order.
  Yen's spurs map one to one: the spur at the source host has its only
  link banned and finds nothing, and a spur at a switch sees the same
  bans either way, because a host is never queued.  The spur at the
  destination ToR is gone: its one way to the target host is banned, so
  its BFS walked the whole plane and found nothing.  Each spur search
  also stops a BFS layer sooner, once a neighbour of the ToR is taken
  from the queue instead of the ToR itself, with the same parent chain.
* Determinism: index order is name order, so sorted neighbour tuples,
  BFS parents and the candidate heap's (length, node sequence) order
  are those of the same search over names.  The same inputs always give
  the same path list.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

from repro.obs import get_registry
from repro.routing.shortest import equal_cost_paths
from repro.topology.graph import RoutingView, Topology


def k_shortest_paths(
    topo: Topology, src: str, dst: str, k: int
) -> List[List[str]]:
    """Up to ``k`` shortest loopless paths from ``src`` to ``dst``.

    Returns paths sorted by (length, node sequence).  Fewer than ``k``
    paths are returned if the graph does not contain that many.

    When a :mod:`repro.obs` registry is attached, each enumeration is
    timed (``ksp.enumerate_seconds``) and counted
    (``ksp.enumerations``), and so is each Yen run it actually makes
    (``ksp.searches``): hosts on one switch pair share a run.
    """
    obs = get_registry()
    if obs.enabled:
        with obs.timer("ksp.enumerate_seconds"):
            paths = _k_shortest_paths(topo, src, dst, k)
        obs.counter("ksp.enumerations").inc()
        obs.counter("ksp.paths_found").inc(len(paths))
        return paths
    return _k_shortest_paths(topo, src, dst, k)


def _k_shortest_paths(
    topo: Topology, src: str, dst: str, k: int
) -> List[List[str]]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if src == dst:
        return [[src]]
    view = topo.routing_view()
    target = view.index[dst]
    source = view.index.get(src)
    if source is None:
        return []
    paths = view.routed(_yen, source, target, k)
    # Spelled like the paths of a search over names (see
    # RoutingView.hop_names): a path starts with the caller's ``src``,
    # and a spur path ends with ``dst``.  The spur paths are the ones
    # longer than the first, because the equal-cost paths Yen starts
    # from either fill ``k`` or are every shortest path.
    spelled = []
    for path in paths:
        names = [src] + view.hop_names(path)
        if len(path) > len(paths[0]):
            names[-1] = dst
        spelled.append(names)
    return spelled


def _yen(
    view: RoutingView, source: int, target: int, k: int
) -> List[List[int]]:
    """Yen's ``k`` shortest loopless index paths, ``source != target``."""
    obs = get_registry()
    if obs.enabled:
        obs.counter("ksp.searches").inc()
    # Equal-cost shortest paths straight off the BFS DAG, already in
    # (length, sequence) order.
    found = equal_cost_paths(view, source, target, limit=k)
    if not found:
        return []

    # Paths found or waiting in the candidate min-heap, which is keyed by
    # (length, sequence).
    known = {tuple(p) for p in found}
    candidates: List[Tuple[int, List[int]]] = []
    target_nbrs = set(view.nbrs[target])

    while len(found) < k:
        last = found[-1]
        for i in range(len(last) - 1):
            root = last[: i + 1]
            banned_first = {p[i + 1] for p in found if p[: i + 1] == root}
            spur = _spur_path(
                view, last[i], target_nbrs, target, root[:-1], banned_first
            )
            if spur is None:
                continue
            candidate = root[:-1] + spur
            key = tuple(candidate)
            if key in known:
                continue
            known.add(key)
            heapq.heappush(candidates, (len(candidate), candidate))
        if not candidates:
            break
        found.append(heapq.heappop(candidates)[1])
    return found


def _spur_path(
    view: RoutingView,
    spur: int,
    target_nbrs: Set[int],
    target: int,
    banned_nodes: Sequence[int],
    banned_first: Set[int],
) -> Optional[List[int]]:
    """BFS path from ``spur`` to ``target`` avoiding the bans, or None.

    ``target_nbrs`` holds the target's live neighbours.  The path is the
    one a full BFS in sorted neighbour order would give (see the module
    notes for why skipping leaves and stopping early keep it).
    """
    if spur in target_nbrs and target not in banned_first:
        return [spur, target]
    inner = view.inner
    parent = dict.fromkeys(banned_nodes, -1)
    parent[spur] = -1
    frontier = deque()
    for nbr in inner[spur]:
        if nbr not in parent and nbr not in banned_first:
            parent[nbr] = spur
            frontier.append(nbr)
    while frontier:
        node = frontier.popleft()
        if node in target_nbrs:
            path = [target]
            while node != spur:
                path.append(node)
                node = parent[node]
            path.append(spur)
            path.reverse()
            return path
        for nbr in inner[node]:
            if nbr not in parent:
                parent[nbr] = node
                frontier.append(nbr)
    return None


def merge_planes(
    per_plane: Sequence[Sequence[List[str]]], k: int, last_plane: int
) -> List[Tuple[int, List[str]]]:
    """Merge per-plane path lists into up to ``k`` ``(plane, path)`` pairs.

    Shortest first; among equal lengths the planes take turns, starting
    with the plane after ``last_plane``, so subflows spread over all
    planes instead of piling onto the lowest-indexed one.
    """
    n = len(per_plane)
    pooled: List[Tuple[int, List[str]]] = []
    cursors = [0] * n
    while len(pooled) < k:
        best_plane = -1
        best_len = None
        for step in range(1, n + 1):
            plane_idx = (last_plane + step) % n
            cur = cursors[plane_idx]
            if cur >= len(per_plane[plane_idx]):
                continue
            length = len(per_plane[plane_idx][cur])
            if best_len is None or length < best_len:
                best_len = length
                best_plane = plane_idx
        if best_plane < 0:
            break
        pooled.append((best_plane, per_plane[best_plane][cursors[best_plane]]))
        cursors[best_plane] += 1
        last_plane = best_plane
    return pooled


def k_shortest_paths_pooled(
    planes: Sequence[Topology], src: str, dst: str, k: int
) -> List[Tuple[int, List[str]]]:
    """K shortest paths pooled across parallel dataplanes.

    This is how an MPTCP + KSP end host routes over a P-Net (section 4):
    the candidate set is the union of each plane's K shortest paths, from
    which the K globally shortest are kept (:func:`merge_planes`, plane 0
    first).

    Returns:
        List of ``(plane_index, path)`` tuples, length <= k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    per_plane = [k_shortest_paths(plane, src, dst, k) for plane in planes]
    return merge_planes(per_plane, k, last_plane=len(planes) - 1)
