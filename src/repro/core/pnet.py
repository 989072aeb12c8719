"""The :class:`PNet` object: N dataplanes plus host-side routing views.

A PNet wraps the dataplanes of a :class:`~repro.topology.parallel.
ParallelTopology` (or a single serial topology) and memoises the queries
every path-selection policy needs: per-plane shortest path lengths,
shortest-path sets, and K-shortest-path sets.  Caches are invalidated
explicitly via :meth:`PNet.invalidate_routing` when failures change the
topology (mirroring routing reconvergence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.routing.ksp import k_shortest_paths
from repro.routing.shortest import all_shortest_paths, shortest_path_length
from repro.topology.graph import Topology, link_key
from repro.topology.parallel import ParallelTopology

#: A path tagged with its dataplane index.
PlanePath = Tuple[int, List[str]]

#: Cap on equal-cost path enumeration; larger pools only matter above the
#: parallelism the paper considers (N <= 8, K <= 32).
DEFAULT_PATH_POOL = 64


@dataclass
class RepairStats:
    """What one incremental routing repair did to the memoised caches.

    Attributes:
        kept: cache entries untouched (no cached path died).
        repaired: entries filtered in place (some paths died, survivors
            remain valid and correctly ranked).
        reenumerated: entries dropped because every cached path died --
            the next query re-enumerates from scratch.
    """

    kept: int = 0
    repaired: int = 0
    reenumerated: int = 0


class PNet:
    """A parallel dataplane network, as seen by its end hosts."""

    def __init__(
        self,
        planes: Union[ParallelTopology, Sequence[Topology]],
        name: str = "",
    ):
        if isinstance(planes, ParallelTopology):
            self.planes: List[Topology] = list(planes.planes)
            self.name = name or planes.name
        else:
            self.planes = list(planes)
            self.name = name or f"pnet-x{len(self.planes)}"
        if not self.planes:
            raise ValueError("need at least one dataplane")
        host_set = set(self.planes[0].hosts)
        for plane in self.planes[1:]:
            if set(plane.hosts) != host_set:
                raise ValueError("planes must share the same host set")
        self._hosts = sorted(host_set, key=_host_key)
        self._len_cache: Dict[Tuple[int, str, str], Optional[int]] = {}
        self._sp_cache: Dict[
            Tuple[int, str, str], Tuple[Optional[int], List[List[str]]]
        ] = {}
        self._ksp_cache: Dict[
            Tuple[int, str, str], Tuple[int, List[List[str]]]
        ] = {}

    @classmethod
    def serial(cls, topo: Topology, name: str = "") -> "PNet":
        """A single-plane (serial) network under the same API."""
        return cls([topo], name=name or f"serial-{topo.name}")

    # --- basic accessors ---------------------------------------------------

    @property
    def n_planes(self) -> int:
        return len(self.planes)

    @property
    def hosts(self) -> List[str]:
        return list(self._hosts)

    def plane(self, index: int) -> Topology:
        return self.planes[index]

    def invalidate_routing(self) -> None:
        """Drop memoised paths (call after failing/restoring links)."""
        self._len_cache.clear()
        self._sp_cache.clear()
        self._ksp_cache.clear()

    def invalidate_plane(self, plane_idx: int) -> None:
        """Drop memoised paths of one plane only.

        Required after a *restore* (shortest paths may get shorter, so
        survivors of a filter would no longer be correctly ranked); other
        planes' caches stay warm.
        """
        for cache in (self._len_cache, self._sp_cache, self._ksp_cache):
            for key in [k for k in cache if k[0] == plane_idx]:
                del cache[key]

    def repair_after_failure(
        self, plane_idx: int, dead_links: Iterable[Tuple[str, str]]
    ) -> RepairStats:
        """Incrementally repair one plane's caches after links *failed*.

        Only entries whose cached paths traverse a dead link are touched:
        survivors are kept (link removal cannot create shorter paths, so
        a surviving shortest path is still shortest and surviving KSP
        entries keep their exact rank among live paths); entries that
        lose every path are dropped and re-enumerate lazily.  This is
        exact, not an approximation -- but only for failures.  After a
        restore call :meth:`invalidate_plane` instead.
        """
        dead: Set[Tuple[str, str]] = {link_key(u, v) for u, v in dead_links}
        stats = RepairStats()
        if not dead:
            return stats

        def traverses(path: List[str]) -> bool:
            return any(link_key(u, v) in dead for u, v in zip(path, path[1:]))

        for key in [k for k in self._sp_cache if k[0] == plane_idx]:
            limit, paths = self._sp_cache[key]
            survivors = [p for p in paths if not traverses(p)]
            if len(survivors) == len(paths):
                stats.kept += 1
            elif survivors:
                # The distance stands, so the new shortest paths are the
                # old ones minus the dead, in the same order: survivors
                # are the first len(survivors) of them, and all of them
                # when the cached list was.
                if _complete(limit, paths):
                    self._sp_cache[key] = (limit, survivors)
                else:
                    self._sp_cache[key] = (len(survivors), survivors)
                stats.repaired += 1
            else:
                # All equal-cost shortest paths died: the distance itself
                # is stale, so the length witness goes too.
                del self._sp_cache[key]
                self._len_cache.pop(key, None)
                stats.reenumerated += 1
        # Lengths without a surviving shortest-path witness may be stale.
        for key in [k for k in self._len_cache if k[0] == plane_idx]:
            witnesses = self._sp_cache.get(key)
            if witnesses is None:
                del self._len_cache[key]
        for key in [k for k in self._ksp_cache if k[0] == plane_idx]:
            k_cached, paths = self._ksp_cache[key]
            survivors = [p for p in paths if not traverses(p)]
            if len(survivors) == len(paths):
                stats.kept += 1
            elif survivors:
                # Survivors keep their relative (sorted) order and are the
                # true top-len(survivors) live paths; queries beyond that
                # re-enumerate (the completeness bound shrank).
                self._ksp_cache[key] = (len(survivors), survivors)
                stats.repaired += 1
            else:
                del self._ksp_cache[key]
                stats.reenumerated += 1
        return stats

    # --- per-plane path queries ---------------------------------------------

    def path_length(self, plane_idx: int, src: str, dst: str) -> Optional[int]:
        """Shortest live path length in one plane (None if disconnected)."""
        key = (plane_idx, src, dst)
        if key not in self._len_cache:
            self._len_cache[key] = shortest_path_length(
                self.planes[plane_idx], src, dst
            )
        return self._len_cache[key]

    def shortest_paths(
        self,
        plane_idx: int,
        src: str,
        dst: str,
        limit: Optional[int] = DEFAULT_PATH_POOL,
    ) -> List[List[str]]:
        """Up to ``limit`` equal-cost shortest paths in one plane (cached).

        The enumeration is prefix-stable, so a list cached for a larger
        limit answers a smaller one by slicing, like :meth:`ksp`.  This
        cache is per host pair; a miss runs the search between the two
        hosts' switches, which the plane's routing view memoises per
        switch pair (see :func:`~repro.routing.shortest.all_shortest_paths`),
        so hosts on one rack pair share it.
        """
        key = (plane_idx, src, dst)
        cached = self._sp_cache.get(key)
        if cached is not None:
            limit_cached, paths = cached
            if _complete(limit_cached, paths) or (
                limit is not None and limit <= limit_cached
            ):
                return paths[:limit]
        paths = all_shortest_paths(
            self.planes[plane_idx], src, dst, limit=limit
        )
        self._sp_cache[key] = (limit, paths)
        return paths

    def ksp(self, plane_idx: int, src: str, dst: str, k: int) -> List[List[str]]:
        """K shortest loopless paths in one plane (cached).

        Yen's output is a sorted prefix-stable list, so a cached result
        computed for a larger K answers any smaller K by slicing -- this
        makes K sweeps cost only their largest K.  Like
        :meth:`shortest_paths`, a miss runs Yen between the hosts'
        switches at most once per switch pair and K in each plane.
        """
        key = (plane_idx, src, dst)
        cached = self._ksp_cache.get(key)
        if cached is not None:
            k_cached, paths = cached
            # A shorter-than-K result that exhausted the graph is also
            # complete for any larger K.
            if k_cached >= k or len(paths) < k_cached:
                return paths[:k]
        paths = k_shortest_paths(self.planes[plane_idx], src, dst, k)
        self._ksp_cache[key] = (k, paths)
        return paths

    # --- cross-plane queries --------------------------------------------------

    def plane_lengths(self, src: str, dst: str) -> List[Optional[int]]:
        """Shortest path length per plane (None where disconnected)."""
        return [
            self.path_length(i, src, dst) for i in range(self.n_planes)
        ]

    def min_hop_planes(self, src: str, dst: str) -> List[int]:
        """Planes achieving the minimum path length (may be several)."""
        lengths = self.plane_lengths(src, dst)
        live = [l for l in lengths if l is not None]
        if not live:
            return []
        best = min(live)
        return [i for i, l in enumerate(lengths) if l == best]

    def min_hop_length(self, src: str, dst: str) -> Optional[int]:
        """Best shortest-path length over all planes."""
        live = [l for l in self.plane_lengths(src, dst) if l is not None]
        return min(live) if live else None

    def live_planes(self, src: str, dst: str) -> List[int]:
        """Planes in which src and dst are currently connected."""
        return [
            i
            for i, l in enumerate(self.plane_lengths(src, dst))
            if l is not None
        ]

    def __repr__(self) -> str:
        return (
            f"PNet({self.name!r}, planes={self.n_planes}, "
            f"hosts={len(self._hosts)})"
        )


def _complete(limit: Optional[int], paths: List[List[str]]) -> bool:
    """Whether ``paths``, enumerated up to ``limit``, are all there are."""
    return limit is None or len(paths) < limit


def _host_key(host: str):
    """Sort hosts numerically when they follow the h{i} convention."""
    suffix = host[1:]
    return (0, int(suffix)) if suffix.isdigit() else (1, host)
