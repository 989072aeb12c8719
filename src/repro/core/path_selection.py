"""Host-side path-selection policies over a :class:`~repro.core.pnet.PNet`.

Each policy answers one question for a flow ``(src, dst, flow_id)``: which
(plane, path) tuples may carry its traffic?  Single-path policies return a
one-element list; the MPTCP policy returns up to K.

Policies (paper section 4 and 3.4):

* :class:`EcmpPolicy` -- the naive adaptation of ECMP: hash the flow onto
  one plane, then onto one equal-cost shortest path inside it.  Shown by
  the paper to waste parallel capacity on sparse traffic (Figure 6a/6b).
* :class:`KspMultipathPolicy` -- MPTCP + K-shortest-paths: K subflow paths
  pooled across planes, with per-pair randomised tie-breaking among
  equal-cost candidates (as in Jellyfish [38]).  The paper's proposal.
* :class:`MinHopPlanePolicy` -- the "low-latency" interface: a single
  shortest path on whichever plane has the fewest hops, exploiting
  heterogeneous planes (Figures 7/10).
* :class:`RoundRobinPlanePolicy` -- the OS default load-balancer
  (section 3.4): planes taken round-robin per flow.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.core.pnet import DEFAULT_PATH_POOL, PlanePath, PNet
from repro.routing.ecmp import flow_hash
from repro.routing.ksp import merge_planes


class PathSelectionPolicy:
    """Base class: maps a flow to the (plane, path) set it may use."""

    def __init__(self, pnet: PNet):
        self.pnet = pnet

    def select(self, src: str, dst: str, flow_id: int = 0) -> List[PlanePath]:
        """Paths for one flow; empty list means unroutable (all planes cut)."""
        raise NotImplementedError

    def invalidate(self) -> None:
        """Drop any policy-private memos (topology changed).

        The PNet's own caches are managed separately (``invalidate_
        routing`` / ``repair_after_failure``); this hook only covers
        state the policy keeps on top, so the base is a no-op.
        """

    def fingerprint(self) -> Tuple:
        """Content key for caching: everything ``select`` depends on
        besides the network itself (the caller keys the network
        separately via its content hash)."""
        raise NotImplementedError

    @property
    def is_multipath(self) -> bool:
        return False


class EcmpPolicy(PathSelectionPolicy):
    """Per-flow hashing: one plane, one equal-cost path."""

    def __init__(self, pnet: PNet, salt: int = 0):
        super().__init__(pnet)
        self.salt = salt

    def fingerprint(self) -> Tuple:
        return ("ecmp", self.salt)

    def select(self, src: str, dst: str, flow_id: int = 0) -> List[PlanePath]:
        plane_idx = flow_hash(src, dst, flow_id, self.salt) % self.pnet.n_planes
        options = self.pnet.shortest_paths(plane_idx, src, dst)
        if not options:
            return []
        pick = flow_hash(src, dst, flow_id, self.salt + 1) % len(options)
        return [(plane_idx, options[pick])]


class RoundRobinPlanePolicy(PathSelectionPolicy):
    """Planes taken round-robin by flow id; hashed path inside the plane."""

    def __init__(self, pnet: PNet, salt: int = 0):
        super().__init__(pnet)
        self.salt = salt

    def fingerprint(self) -> Tuple:
        return ("round-robin", self.salt)

    def select(self, src: str, dst: str, flow_id: int = 0) -> List[PlanePath]:
        plane_idx = flow_id % self.pnet.n_planes
        options = self.pnet.shortest_paths(plane_idx, src, dst)
        if not options:
            return []
        pick = flow_hash(src, dst, flow_id, self.salt) % len(options)
        return [(plane_idx, options[pick])]


class MinHopPlanePolicy(PathSelectionPolicy):
    """The "low-latency" interface: single path on the fewest-hop plane.

    Among planes tied for minimum hop count, and among equal-cost paths in
    the chosen plane, the choice is hashed per flow so concurrent flows
    spread out.
    """

    def __init__(self, pnet: PNet, salt: int = 0):
        super().__init__(pnet)
        self.salt = salt

    def fingerprint(self) -> Tuple:
        return ("min-hop", self.salt)

    def select(self, src: str, dst: str, flow_id: int = 0) -> List[PlanePath]:
        planes = self.pnet.min_hop_planes(src, dst)
        if not planes:
            return []
        plane_idx = planes[
            flow_hash(src, dst, flow_id, self.salt) % len(planes)
        ]
        options = self.pnet.shortest_paths(plane_idx, src, dst)
        pick = flow_hash(src, dst, flow_id, self.salt + 1) % len(options)
        return [(plane_idx, options[pick])]


class KspMultipathPolicy(PathSelectionPolicy):
    """MPTCP + K-shortest-paths pooled across planes (the paper's scheme).

    For each plane, up to K candidate paths are gathered: the equal-cost
    shortest set (shuffled per (src, dst) with a deterministic seed, so
    different host pairs prefer different cores) extended by Yen's
    algorithm when a plane has fewer than K short paths.  Candidates are
    then merged globally shortest-first with round-robin across planes on
    ties, and the first K become the subflow paths.
    """

    def __init__(
        self,
        pnet: PNet,
        k: int,
        seed: int = 0,
        path_pool: int = DEFAULT_PATH_POOL,
    ):
        super().__init__(pnet)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = seed
        self.path_pool = path_pool
        self._cache: Dict[Tuple[str, str], List[PlanePath]] = {}

    def fingerprint(self) -> Tuple:
        return ("ksp-multipath", self.k, self.seed, self.path_pool)

    def invalidate(self) -> None:
        self._cache.clear()

    @property
    def is_multipath(self) -> bool:
        return self.k > 1

    def select(self, src: str, dst: str, flow_id: int = 0) -> List[PlanePath]:
        key = (src, dst)
        if key not in self._cache:
            self._cache[key] = self._compute(src, dst)
        return list(self._cache[key])

    def _plane_candidates(
        self, plane_idx: int, src: str, dst: str, rng: random.Random
    ) -> List[List[str]]:
        """Up to K candidate paths in one plane, ties shuffled."""
        shortest = self.pnet.shortest_paths(
            plane_idx, src, dst, limit=self.path_pool
        )
        if not shortest:
            return []
        shortest = list(shortest)
        rng.shuffle(shortest)
        if len(shortest) >= self.k:
            return shortest[: self.k]
        # Not enough equal-cost paths: extend with Yen (includes shortest
        # ones again, so filter to the longer tail only).
        extended = self.pnet.ksp(plane_idx, src, dst, self.k)
        base_len = len(shortest[0])
        longer = [p for p in extended if len(p) > base_len]
        # Shuffle within each length class for tie diversity.
        by_len: Dict[int, List[List[str]]] = {}
        for p in longer:
            by_len.setdefault(len(p), []).append(p)
        tail: List[List[str]] = []
        for length in sorted(by_len):
            group = by_len[length]
            rng.shuffle(group)
            tail.extend(group)
        return (shortest + tail)[: self.k]

    def _compute(self, src: str, dst: str) -> List[PlanePath]:
        rng = random.Random(f"ksp-{self.seed}-{src}-{dst}")
        per_plane: List[List[List[str]]] = [
            self._plane_candidates(i, src, dst, rng)
            for i in range(self.pnet.n_planes)
        ]
        return merge_planes(
            per_plane, self.k, last_plane=rng.randrange(self.pnet.n_planes)
        )
