"""Jellyfish: random-regular-graph datacenter topologies [38].

A Jellyfish network is a random ``r``-regular graph among ``n_switches``
ToR switches, with ``hosts_per_switch`` hosts under each.  Different seeds
give independent instantiations -- exactly the property heterogeneous P-Nets
exploit (paper section 3.2): with N independent instances, the chance that
*some* plane has a short path between a given pair grows with N.

The random regular graph is built with the standard pairing-model
construction plus edge swaps to clear stuck states, which matches
Jellyfish's incremental construction in distribution closely enough for
every property the paper measures (path lengths, expansion).
"""

from __future__ import annotations

import random
from typing import List

from repro.topology.graph import HOST, TOR, Topology
from repro.units import DEFAULT_HOP_PROPAGATION, DEFAULT_LINK_RATE


def random_regular_edges(
    n: int, degree: int, rng: random.Random, max_tries: int = 200
) -> List[tuple]:
    """Sample the edge set of a random ``degree``-regular graph on ``n`` nodes.

    Uses repeated pairing with local edge swaps to repair collisions.
    Returns a list of (u, v) index pairs with u < v.

    Raises:
        ValueError: if ``n * degree`` is odd or ``degree >= n``.
        RuntimeError: if no simple regular graph is found in ``max_tries``.
    """
    if degree >= n:
        raise ValueError(f"degree {degree} must be < n {n}")
    if (n * degree) % 2:
        raise ValueError(f"n*degree must be even, got n={n} degree={degree}")
    if degree == 0:
        return []
    if degree == n - 1:
        # The complete graph is the only simple (n-1)-regular graph on n
        # nodes; random pairing almost never produces it, so build it
        # directly.
        return [(u, v) for u in range(n) for v in range(u + 1, n)]

    for __ in range(max_tries):
        stubs = [node for node in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        pairs = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        leftovers = []
        for u, v in pairs:
            if u == v or (min(u, v), max(u, v)) in edges:
                leftovers.append((u, v))
            else:
                edges.add((min(u, v), max(u, v)))
        # Repair leftovers by swapping with random existing edges.
        repaired = True
        for u, v in leftovers:
            repaired = False
            edge_list = list(edges)
            rng.shuffle(edge_list)
            for a, b in edge_list:
                # Rewire (a,b)+(u,v) -> (u,a)+(v,b) if both are new & simple.
                e1 = (min(u, a), max(u, a))
                e2 = (min(v, b), max(v, b))
                if u == a or v == b or e1 in edges or e2 in edges:
                    continue
                edges.remove((a, b))
                edges.add(e1)
                edges.add(e2)
                repaired = True
                break
            if not repaired:
                break
        if repaired and len(edges) == n * degree // 2:
            return sorted(edges)
        ok = False  # noqa: F841 -- retry with a fresh pairing
    raise RuntimeError(
        f"failed to build a {degree}-regular graph on {n} nodes "
        f"after {max_tries} attempts"
    )


def build_jellyfish(
    n_switches: int,
    net_degree: int,
    hosts_per_switch: int,
    seed: int,
    link_rate: float = DEFAULT_LINK_RATE,
    propagation: float = DEFAULT_HOP_PROPAGATION,
    name: str = "",
    require_connected: bool = True,
) -> Topology:
    """Build a Jellyfish topology.

    Args:
        n_switches: number of ToR switches.
        net_degree: inter-switch ports per switch (the ``r`` in [38]).
        hosts_per_switch: hosts attached to each switch.
        seed: RNG seed; distinct seeds give independent instantiations.
        require_connected: retry with perturbed seeds until the switch
            graph is connected (random regular graphs with r >= 3 are
            connected with overwhelming probability, so this rarely loops).

    Returns:
        A :class:`Topology` with hosts ``h0 .. h{n_switches*hosts_per_switch-1}``,
        host ``h{i}`` under switch ``t{i // hosts_per_switch}``.
    """
    if n_switches < 2:
        raise ValueError(f"need at least 2 switches, got {n_switches}")
    if hosts_per_switch < 0:
        raise ValueError("hosts_per_switch must be >= 0")

    attempt = 0
    while True:
        rng = random.Random(f"jellyfish-{seed}-{attempt}")
        topo = Topology(name or f"jellyfish-n{n_switches}-r{net_degree}-s{seed}")
        for i in range(n_switches):
            topo.add_node(f"t{i}", TOR)
        for u, v in random_regular_edges(n_switches, net_degree, rng):
            topo.add_link(f"t{u}", f"t{v}", link_rate, propagation)
        if not require_connected or topo.is_connected():
            break
        attempt += 1
        if attempt > 50:
            raise RuntimeError("could not build a connected Jellyfish")

    for i in range(n_switches * hosts_per_switch):
        host = f"h{i}"
        topo.add_node(host, HOST)
        topo.add_link(host, f"t{i // hosts_per_switch}", link_rate, propagation)
    return topo


def jellyfish_dimensions(
    n_hosts: int, switch_radix: int, oversubscription: float = 1.0
) -> tuple:
    """Pick (n_switches, net_degree, hosts_per_switch) for a target size.

    Splits the radix between hosts and network so that the network degree
    is ``oversubscription`` times the host count per switch (1.0 = full
    bisection provisioning, matching the paper's setups).
    """
    hosts_per_switch = max(1, int(switch_radix / (1.0 + oversubscription)))
    net_degree = switch_radix - hosts_per_switch
    n_switches = -(-n_hosts // hosts_per_switch)  # ceil division
    if (n_switches * net_degree) % 2:
        n_switches += 1
    return n_switches, net_degree, hosts_per_switch
