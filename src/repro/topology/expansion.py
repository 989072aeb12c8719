"""Incremental expansion of expander-based dataplanes (paper section 6.1).

"Software-controlled OCSes together with the incremental expansion
support of expander-based networks means operators can more easily scale
up their network."  The expansion procedure is Jellyfish's [38]: to add a
switch with ``r`` network ports, pick ``r/2`` existing links at random,
remove each, and connect both freed endpoints to the new switch -- the
graph stays ``r``-regular and (w.h.p.) a good expander, and only the
rewired links move on the patch panel.

:func:`expand_jellyfish` applies that to one plane; :func:`expand_pnet`
grows every plane of a parallel topology (each plane rewires its own
random links, preserving heterogeneity).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.topology.graph import HOST, TOR, Topology
from repro.topology.parallel import ParallelTopology
from repro.units import DEFAULT_HOP_PROPAGATION


def expand_jellyfish(
    topo: Topology,
    rng: random.Random,
    hosts_per_switch: Optional[int] = None,
    max_retries: int = 100,
) -> str:
    """Add one switch (and its hosts) to a Jellyfish plane, in place.

    The new switch's network degree matches the plane's existing ToR
    degree (host links excluded); ``hosts_per_switch`` defaults to the
    per-switch host count of switch ``t0``.

    Returns:
        The new switch's node name.

    Raises:
        ValueError: if the plane has fewer inter-switch links than needed
            or the network degree is odd (cannot pair endpoints).
    """
    tors = topo.nodes_of_kind(TOR)
    if not tors:
        raise ValueError("plane has no ToR switches")
    sample = tors[0]
    net_degree = sum(
        1
        for nbr in topo.neighbors(sample)
        if topo.kind(nbr) != HOST
    )
    if net_degree % 2:
        raise ValueError(
            f"network degree {net_degree} is odd; cannot expand by pairing"
        )
    if hosts_per_switch is None:
        hosts_per_switch = sum(
            1 for nbr in topo.neighbors(sample) if topo.kind(nbr) == HOST
        )

    switch_links = [
        link
        for link in topo.live_links
        if topo.kind(link.u) != HOST and topo.kind(link.v) != HOST
    ]
    needed = net_degree // 2
    if len(switch_links) < needed:
        raise ValueError(
            f"need {needed} rewirable links, plane has {len(switch_links)}"
        )

    new_index = max(int(t[1:]) for t in tors) + 1
    new_switch = f"t{new_index}"
    topo.add_node(new_switch, TOR)

    # Pick links whose endpoints are not yet adjacent to the new switch
    # and rewire them through it.
    rewired = 0
    attempts = 0
    chosen = set()
    while rewired < needed:
        attempts += 1
        if attempts > max_retries * needed:
            raise RuntimeError("could not find enough rewirable links")
        link = rng.choice(switch_links)
        if link.key in chosen or topo.is_failed(link.u, link.v):
            continue
        if topo.has_link(link.u, new_switch) or topo.has_link(
            link.v, new_switch
        ):
            continue
        chosen.add(link.key)
        topo.remove_link(link.u, link.v)
        capacity = link.capacity
        topo.add_link(link.u, new_switch, capacity, link.propagation)
        topo.add_link(new_switch, link.v, capacity, link.propagation)
        rewired += 1

    # Attach the new switch's hosts with fresh contiguous indices.
    host_capacity = None
    for nbr_link in topo.neighbor_links(sample):
        if topo.kind(nbr_link.other(sample)) == HOST:
            host_capacity = nbr_link.capacity
            break
    if host_capacity is None:
        host_capacity = next(iter(topo.neighbor_links(sample))).capacity
    existing_hosts = topo.hosts
    next_host = (
        max(int(h[1:]) for h in existing_hosts) + 1 if existing_hosts else 0
    )
    for i in range(hosts_per_switch):
        host = f"h{next_host + i}"
        topo.add_node(host, HOST)
        topo.add_link(host, new_switch, host_capacity,
                      DEFAULT_HOP_PROPAGATION)
    return new_switch


def expand_pnet(
    pnet: ParallelTopology,
    seed: int = 0,
    hosts_per_switch: Optional[int] = None,
) -> List[str]:
    """Add one rack (ToR + hosts) to every plane of a P-Net, in place.

    Each plane rewires its own randomly chosen links (different RNG
    streams), so a heterogeneous P-Net stays heterogeneous.  All planes
    gain the same host names, keeping the shared host set consistent.

    Returns:
        The new switch name per plane.
    """
    # Determine the host names once so all planes agree.
    added = []
    baseline_hosts = set(pnet.hosts)
    for plane_idx, plane in enumerate(pnet.planes):
        rng = random.Random(f"expand-{seed}-{plane_idx}")
        added.append(
            expand_jellyfish(plane, rng, hosts_per_switch=hosts_per_switch)
        )
    host_sets = [set(p.hosts) for p in pnet.planes]
    if any(hs != host_sets[0] for hs in host_sets[1:]):
        raise RuntimeError("expansion desynchronised plane host sets")
    assert host_sets[0] > baseline_hosts
    return added
