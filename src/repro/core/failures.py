"""Failure detection and graceful fail-over (paper sections 3.4 and 5.4).

P-Net hosts "can quickly detect individual dataplane failures via link
status and avoid using the broken dataplane(s), allowing graceful
performance degradation".  Two layers are modelled:

* **Uplink failure detection** -- a host notices its own NIC port losing
  link (its host--ToR link failing) and stops using that plane entirely.
* **In-plane disconnection** -- deeper failures (switch--switch links) are
  discovered by routing; :class:`FailureAwareSelector` re-invokes the
  wrapped policy with a different flow salt until it finds a selection
  whose paths are all live, falling back to any live plane's shortest
  path.
"""

from __future__ import annotations

from typing import List

from repro.core.path_selection import PathSelectionPolicy
from repro.core.pnet import PlanePath, PNet


def detect_failed_uplinks(pnet: PNet, host: str) -> List[int]:
    """Planes whose host uplink has lost link status (NIC-visible)."""
    down = []
    for idx, plane in enumerate(pnet.planes):
        if not any(True for __ in plane.neighbor_links(host)):
            down.append(idx)
    return down


def path_is_live(pnet: PNet, plane_path: PlanePath) -> bool:
    """Whether every hop of a tagged path is currently a live link."""
    plane_idx, path = plane_path
    plane = pnet.plane(plane_idx)
    for u, v in zip(path, path[1:]):
        if not plane.has_link(u, v) or plane.is_failed(u, v):
            return False
    return True


class FailureAwareSelector:
    """Wrap a policy with link-status fail-over.

    The wrapped policy's choice is used verbatim when all its paths are
    live.  Dead paths are dropped; if nothing survives, the selector
    falls back to a shortest path in any plane that still connects the
    pair (graceful degradation), or returns [] when fully partitioned.

    Note: policies memoise routing state, so after changing failures call
    :meth:`PNet.invalidate_routing` (and rebuild or re-wrap policies that
    keep private caches) to model routing reconvergence.
    """

    def __init__(self, policy: PathSelectionPolicy, max_retries: int = 4):
        self.policy = policy
        self.pnet = policy.pnet
        self.max_retries = max_retries

    def invalidate(self) -> None:
        """Flush the wrapped policy's private memos (topology changed)."""
        self.policy.invalidate()

    def select(self, src: str, dst: str, flow_id: int = 0) -> List[PlanePath]:
        choice = self.policy.select(src, dst, flow_id)
        live = [pp for pp in choice if path_is_live(self.pnet, pp)]
        if live:
            return live
        # Retry the policy under different flow ids: hashed policies then
        # land on different planes/paths, modelling a host re-picking
        # after an unreachable destination.
        for attempt in range(1, self.max_retries + 1):
            retry = self.policy.select(
                src, dst, flow_id + attempt * 0x9E3779B9
            )
            live = [pp for pp in retry if path_is_live(self.pnet, pp)]
            if live:
                return live
        # Last resort: shortest path on any plane that still connects.
        for plane_idx in self.pnet.live_planes(src, dst):
            options = self.pnet.shortest_paths(plane_idx, src, dst)
            if options:
                return [(plane_idx, options[0])]
        return []
