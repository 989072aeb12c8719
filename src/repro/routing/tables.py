"""Per-destination next-hop forwarding tables.

The paper exposes each dataplane to the host at the IP layer (section 3.4)
and relies on conventional destination-based shortest-path forwarding
*inside* each plane.  :class:`ForwardingTable` compiles, for one plane, the
ECMP next-hop sets every switch holds for every destination host, and can
walk a packet hop-by-hop the way hardware would.  It is the forwarding
oracle that the simulators' source-routed paths are cross-checked
against; no simulation consults it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.routing.ecmp import flow_hash
from repro.routing.shortest import bfs_distances, next_hop_options
from repro.topology.graph import Topology


class ForwardingTable:
    """Destination-based ECMP forwarding state for one dataplane."""

    def __init__(self, topo: Topology, destinations: Optional[Sequence[str]] = None):
        self.topo = topo
        self._next_hops: Dict[str, Dict[str, List[str]]] = {}
        for dst in destinations if destinations is not None else topo.hosts:
            self.install(dst)

    def install(self, dst: str) -> None:
        """(Re)compute next-hop sets toward ``dst`` over live links."""
        dist = bfs_distances(self.topo, dst)
        table: Dict[str, List[str]] = {}
        for node in dist:
            if node == dst:
                continue
            table[node] = next_hop_options(self.topo, node, dst, dist)
        self._next_hops[dst] = table

    def reinstall_all(self) -> None:
        """Recompute every installed destination (after failures change)."""
        for dst in list(self._next_hops):
            self.install(dst)

    def next_hops(self, node: str, dst: str) -> List[str]:
        """ECMP next-hop set at ``node`` toward ``dst`` (may be empty)."""
        table = self._next_hops.get(dst)
        if table is None:
            raise KeyError(f"no route installed for destination {dst!r}")
        return table.get(node, [])

    def walk(
        self, src: str, dst: str, flow_id: int = 0, max_hops: int = 64
    ) -> Optional[List[str]]:
        """Forward a flow hop-by-hop using hashed ECMP choices.

        Returns the realised path or None if forwarding dead-ends
        (disconnection under failures).
        """
        path = [src]
        node = src
        for __ in range(max_hops):
            if node == dst:
                return path
            options = self.next_hops(node, dst)
            if not options:
                return None
            pick = flow_hash(src, dst, flow_id, salt=len(path)) % len(options)
            node = options[pick]
            path.append(node)
        return None
