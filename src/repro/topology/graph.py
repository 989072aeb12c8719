"""Capacitated network graph with node roles and link-failure support.

:class:`Topology` is the substrate every other module builds on.  It models
an undirected multigraph-free network (at most one link per node pair; use
``capacity`` to model bundles) with:

* node *kinds* -- ``"host"``, ``"tor"``, ``"agg"``, ``"core"`` -- so builders
  and routing can distinguish end hosts from switches;
* per-link capacity in bits/second (full duplex: the same capacity is
  available independently in each direction);
* link failure injection (:meth:`Topology.fail_link`), which routing and the
  simulators respect via :meth:`Topology.neighbors`;
* a lazily built integer view of the live adjacency
  (:meth:`Topology.routing_view`) that the path searches run on, and
  that memoises their answers between attachment switches.

Nodes are named strings (e.g. ``"h12"``, ``"t3"``); builders guarantee host
names are ``h0..h{n-1}`` so traffic generators can enumerate them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set,
    Tuple,
)

HOST = "host"
TOR = "tor"
AGG = "agg"
CORE = "core"

SWITCH_KINDS = frozenset({TOR, AGG, CORE})


def link_key(u: str, v: str) -> Tuple[str, str]:
    """Canonical (sorted) key identifying the undirected link u--v."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Link:
    """An undirected, full-duplex link between two nodes.

    Attributes:
        u, v: endpoint names, in canonical (sorted) order.
        capacity: per-direction capacity in bits per second.
        propagation: one-way propagation delay in seconds.
    """

    u: str
    v: str
    capacity: float
    propagation: float

    def other(self, node: str) -> str:
        """Return the endpoint that is not ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"{node!r} is not an endpoint of {self.u}--{self.v}")

    @property
    def key(self) -> Tuple[str, str]:
        return (self.u, self.v)


class RoutingView:
    """The live adjacency of a :class:`Topology` as sorted index tuples.

    Node ``i`` is the ``i``-th node name in sorted order, so walking a
    tuple of indices in ascending order visits neighbours in sorted name
    order, and index paths compare like their name paths.

    Path searches run between the endpoints' attachment nodes (a host's
    is its switch), once per memo key (:meth:`routed`).  Every change to
    the topology drops the view and its memo, so the memo never answers
    for another adjacency.

    Attributes:
        index: node name -> index.
        nbrs: per node, the sorted indices of its live neighbours.
        inner: ``nbrs`` without the live leaves (nodes with exactly one
            live neighbour).  A search that reaches a leaf over its only
            link cannot go on from it, so only the search's target needs
            to be found among the leaves.
        memo: ``(search, a, b, bound)`` -> the index paths ``search``
            found between the attachment nodes ``a`` and ``b``.
    """

    __slots__ = ("index", "nbrs", "inner", "memo", "_spelling")

    def __init__(self, topo: "Topology"):
        names = sorted(topo.nodes)
        index = {name: i for i, name in enumerate(names)}
        # Per node: neighbour index -> the name object Topology.neighbors
        # yields for that neighbour.
        spelling = [
            {index[other]: other for other in topo.neighbors(name)}
            for name in names
        ]
        nbrs = [tuple(sorted(row)) for row in spelling]
        self.index: Dict[str, int] = index
        self.nbrs: List[Tuple[int, ...]] = nbrs
        self.inner: List[Tuple[int, ...]] = [
            tuple(v for v in row if len(nbrs[v]) != 1) for row in nbrs
        ]
        self.memo: Dict[Tuple[Any, int, int, Any], List[List[int]]] = {}
        self._spelling = spelling

    def attachment(self, node: int, other: int) -> int:
        """The node that stands for ``node`` in a search to ``other``.

        A leaf stands for its one live neighbour, unless that neighbour
        is ``other``; any other node stands for itself.  Every loopless
        path from a leaf crosses its neighbour next, and no loopless
        path passes through a leaf, so the paths between two nodes are
        the paths between their attachment nodes with the leaf hops
        added, in the same order.
        """
        row = self.nbrs[node]
        if len(row) == 1 and row[0] != other:
            return row[0]
        return node

    def routed(
        self, search: Callable[..., List[List[int]]], source: int,
        target: int, bound: Any,
    ) -> List[List[int]]:
        """``search(self, a, b, bound)``'s paths for ``source != target``.

        ``a`` and ``b`` are the two endpoints' attachment nodes; the
        search runs at most once per ``(search, a, b, bound)`` and the
        leaf hops are added to every path it found.  Two leaves on one
        node get their one path without a search.
        """
        a = self.attachment(source, target)
        b = self.attachment(target, source)
        if a == b:
            return [[source, a, target]]
        key = (search, a, b, bound)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = search(self, a, b, bound)
        head = [source] if a != source else []
        tail = [target] if b != target else []
        return [head + path + tail for path in found]

    def hop_names(self, path: Sequence[int]) -> List[str]:
        """Names of ``path[1:]``, each as its predecessor's adjacency
        holds it.

        These are the string objects a walk over
        :meth:`Topology.neighbors` holds.  Pickle shares repeated objects,
        so paths spelled this way pickle to the same bytes as the paths a
        search over names returns.
        """
        spelling = self._spelling
        return [spelling[a][b] for a, b in zip(path, path[1:])]


class Topology:
    """A capacitated undirected network with failure injection.

    Args:
        name: human-readable label used in experiment output.
    """

    def __init__(self, name: str = "net"):
        self.name = name
        self._kind: Dict[str, str] = {}
        self._adj: Dict[str, Dict[str, Link]] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._failed: Set[Tuple[str, str]] = set()
        # Built by routing_view(), dropped by every mutator, and never
        # copied or pickled.
        self._view: Optional[RoutingView] = None

    # --- construction ---------------------------------------------------

    def add_node(self, node: str, kind: str) -> None:
        """Add ``node`` with the given kind; re-adding must not change kind."""
        existing = self._kind.get(node)
        if existing is not None:
            if existing != kind:
                raise ValueError(
                    f"node {node!r} already exists with kind {existing!r}"
                )
            return
        self._kind[node] = kind
        self._adj[node] = {}
        self._view = None

    def add_link(
        self,
        u: str,
        v: str,
        capacity: float,
        propagation: float = 1e-6,
    ) -> Link:
        """Add an undirected link; endpoints must already exist."""
        if u == v:
            raise ValueError(f"self-loop on {u!r} not allowed")
        for node in (u, v):
            if node not in self._kind:
                raise KeyError(f"unknown node {node!r}")
        key = link_key(u, v)
        if key in self._links:
            raise ValueError(f"duplicate link {key[0]}--{key[1]}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        link = Link(key[0], key[1], float(capacity), float(propagation))
        self._links[key] = link
        self._adj[u][v] = link
        self._adj[v][u] = link
        self._view = None
        return link

    def remove_link(self, u: str, v: str) -> Link:
        """Delete the link u--v (failed or not) and return it.

        Unlike :meth:`fail_link` the link is gone for good: expansion
        rewires links this way.
        """
        key = link_key(u, v)
        if key not in self._links:
            raise KeyError(f"no link {u}--{v}")
        link = self._links.pop(key)
        del self._adj[u][v]
        del self._adj[v][u]
        self._failed.discard(key)
        self._view = None
        return link

    # --- inspection -----------------------------------------------------

    def __contains__(self, node: str) -> bool:
        return node in self._kind

    def __len__(self) -> int:
        return len(self._kind)

    @property
    def nodes(self) -> List[str]:
        return list(self._kind)

    def kind(self, node: str) -> str:
        return self._kind[node]

    def nodes_of_kind(self, kind: str) -> List[str]:
        return [n for n, k in self._kind.items() if k == kind]

    @property
    def hosts(self) -> List[str]:
        return self.nodes_of_kind(HOST)

    @property
    def switches(self) -> List[str]:
        return [n for n, k in self._kind.items() if k in SWITCH_KINDS]

    @property
    def links(self) -> List[Link]:
        """All links, including failed ones."""
        return list(self._links.values())

    @property
    def live_links(self) -> List[Link]:
        return [l for k, l in self._links.items() if k not in self._failed]

    def link(self, u: str, v: str) -> Link:
        """The link between ``u`` and ``v`` (raises KeyError if absent)."""
        return self._links[link_key(u, v)]

    def has_link(self, u: str, v: str) -> bool:
        return link_key(u, v) in self._links

    def degree(self, node: str, live_only: bool = True) -> int:
        if not live_only:
            return len(self._adj[node])
        return sum(1 for __ in self.neighbors(node))

    def neighbors(self, node: str) -> Iterator[str]:
        """Neighbours of ``node`` reachable over *live* links."""
        for other, link in self._adj[node].items():
            if link.key not in self._failed:
                yield other

    def neighbor_links(self, node: str) -> Iterator[Link]:
        """Live links incident to ``node``."""
        for link in self._adj[node].values():
            if link.key not in self._failed:
                yield link

    def incident_links(self, node: str, live_only: bool = True) -> Iterator[Link]:
        """Links incident to ``node``; ``live_only=False`` includes failed
        ones (fault injection needs the full set when failing a switch)."""
        for link in self._adj[node].values():
            if not live_only or link.key not in self._failed:
                yield link

    def tor_of(self, host: str) -> str:
        """The ToR switch a host is attached to (hosts have exactly one)."""
        if self._kind[host] != HOST:
            raise ValueError(f"{host!r} is not a host")
        switches = [n for n in self._adj[host] if self._kind[n] in SWITCH_KINDS]
        if len(switches) != 1:
            raise ValueError(
                f"host {host!r} has {len(switches)} switch uplinks, expected 1"
            )
        return switches[0]

    # --- failures ---------------------------------------------------------

    @property
    def failed_links(self) -> Set[Tuple[str, str]]:
        return set(self._failed)

    def fail_link(self, u: str, v: str) -> None:
        key = link_key(u, v)
        if key not in self._links:
            raise KeyError(f"no link {u}--{v}")
        self._failed.add(key)
        self._view = None

    def restore_link(self, u: str, v: str) -> None:
        self._failed.discard(link_key(u, v))
        self._view = None

    def restore_all(self) -> None:
        self._failed.clear()
        self._view = None

    def is_failed(self, u: str, v: str) -> bool:
        return link_key(u, v) in self._failed

    def fail_random_links(
        self,
        fraction: float,
        rng,
        switch_only: bool = True,
    ) -> List[Tuple[str, str]]:
        """Fail a random ``fraction`` of links; returns the failed keys.

        Args:
            fraction: share of eligible links to fail, in [0, 1].
            rng: a ``random.Random`` instance (explicit for determinism).
            switch_only: if True (paper's Fig 14 setting), only
                switch-to-switch links fail, keeping hosts attached.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0,1], got {fraction}")
        eligible = [
            key
            for key, link in self._links.items()
            if not switch_only
            or (self._kind[link.u] != HOST and self._kind[link.v] != HOST)
        ]
        count = int(round(fraction * len(eligible)))
        chosen = rng.sample(eligible, count)
        self._failed.update(chosen)
        self._view = None
        return chosen

    # --- routing view -------------------------------------------------------

    def routing_view(self) -> RoutingView:
        """The live adjacency as a :class:`RoutingView`.

        Built at the first call after a change; every mutator drops it,
        and with it the view's memo of path searches.
        """
        if self._view is None:
            self._view = RoutingView(self)
        return self._view

    def __getstate__(self) -> Dict[str, Any]:
        # The view is a cache: leaving it out keeps pickles (checkpoints,
        # worker payloads) the same bytes whether or not routing ran.
        state = self.__dict__.copy()
        state.pop("_view", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._view = None

    # --- utilities ----------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Topology":
        """Deep copy (links are immutable so only containers are copied)."""
        dup = Topology(name or self.name)
        dup._kind = dict(self._kind)
        dup._links = dict(self._links)
        dup._failed = set(self._failed)
        dup._adj = {n: dict(nbrs) for n, nbrs in self._adj.items()}
        return dup

    def to_networkx(self, live_only: bool = True):
        """Export to a networkx.Graph with 'capacity' edge attributes."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        for node, kind in self._kind.items():
            g.add_node(node, kind=kind)
        links = self.live_links if live_only else self.links
        for link in links:
            g.add_edge(
                link.u, link.v,
                capacity=link.capacity,
                propagation=link.propagation,
            )
        return g

    def is_connected(self, among: Optional[Iterable[str]] = None) -> bool:
        """Whether all nodes (or the given subset) are mutually reachable."""
        targets = set(among) if among is not None else set(self._kind)
        if not targets:
            return True
        start = next(iter(targets))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr in self.neighbors(node):
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return targets <= seen

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, nodes={len(self._kind)}, "
            f"links={len(self._links)}, failed={len(self._failed)})"
        )
