"""End-host/OS model (paper section 3.4).

A P-Net host sees one NIC channel -- and therefore one IP address -- per
dataplane.  The OS exposes the planes to applications through *proxy
interfaces* so deployed applications need no topology knowledge:

* ``low_latency``    -- single shortest path on the fewest-hop plane;
* ``high_throughput`` -- MPTCP over K = 8 * N pooled shortest paths;
* ``balanced``       -- the OS default: round-robin over planes.

Applications pick an interface with a traffic-class tag; bulk transfers
can additionally let :class:`~repro.core.flow_policy.SizeThresholdPolicy`
decide single- vs multi-path from the flow size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional

from repro.core.failures import FailureAwareSelector, detect_failed_uplinks
from repro.core.flow_policy import SizeThresholdPolicy
from repro.core.path_selection import (
    KspMultipathPolicy,
    MinHopPlanePolicy,
    RoundRobinPlanePolicy,
)
from repro.core.pnet import PlanePath, PNet


class TrafficClass(enum.Enum):
    """Application tags mapping onto the proxy interfaces."""

    LOW_LATENCY = "low_latency"
    HIGH_THROUGHPUT = "high_throughput"
    BALANCED = "balanced"


@dataclass
class FlowSpec:
    """Everything the transport needs to launch one flow."""

    flow_id: int
    src: str
    dst: str
    size: float
    paths: List[PlanePath]
    traffic_class: TrafficClass

    @property
    def is_multipath(self) -> bool:
        return len(self.paths) > 1


class EndHost:
    """One host's view of the P-Net.

    Args:
        pnet: the network.
        host: this host's node name.
        ksp_subflows: K for the high-throughput interface; defaults to
            the paper's rule K = 8 * N.
        seed: randomisation seed shared by this host's policies.
    """

    def __init__(
        self,
        pnet: PNet,
        host: str,
        ksp_subflows: Optional[int] = None,
        seed: int = 0,
    ):
        if host not in pnet.hosts:
            raise ValueError(f"{host!r} is not a host of {pnet.name}")
        self.pnet = pnet
        self.host = host
        self.seed = seed
        k = ksp_subflows if ksp_subflows is not None else 8 * pnet.n_planes
        self._policies: Dict[TrafficClass, FailureAwareSelector] = {
            TrafficClass.LOW_LATENCY: FailureAwareSelector(
                MinHopPlanePolicy(pnet, salt=seed)
            ),
            TrafficClass.HIGH_THROUGHPUT: FailureAwareSelector(
                KspMultipathPolicy(pnet, k=k, seed=seed)
            ),
            TrafficClass.BALANCED: FailureAwareSelector(
                RoundRobinPlanePolicy(pnet, salt=seed)
            ),
        }
        self.size_policy = SizeThresholdPolicy()
        self._flow_ids = count()

    # --- addressing ------------------------------------------------------

    def ip_address(self, plane_idx: int) -> str:
        """The host's address on one plane (one subnet per dataplane)."""
        if not 0 <= plane_idx < self.pnet.n_planes:
            raise IndexError(f"no plane {plane_idx}")
        idx = self.pnet.hosts.index(self.host)
        return f"10.{plane_idx}.{idx // 256}.{idx % 256}"

    @property
    def addresses(self) -> List[str]:
        return [self.ip_address(i) for i in range(self.pnet.n_planes)]

    # --- failure visibility -------------------------------------------------

    def usable_planes(self) -> List[int]:
        """Planes whose uplink currently has link status."""
        down = set(detect_failed_uplinks(self.pnet, self.host))
        return [i for i in range(self.pnet.n_planes) if i not in down]

    # --- flow setup ---------------------------------------------------------

    def open_flow(
        self,
        dst: str,
        size: float,
        traffic_class: Optional[TrafficClass] = None,
    ) -> FlowSpec:
        """Select paths for a new flow to ``dst``.

        When no traffic class is given, the size-threshold policy picks
        between the balanced (single-path) and high-throughput (MPTCP)
        interfaces -- the end-to-end behaviour the paper recommends.

        Raises:
            RuntimeError: if every plane is partitioned for this pair.
        """
        if size < 0:
            raise ValueError(f"flow size must be >= 0, got {size}")
        if traffic_class is None:
            traffic_class = (
                TrafficClass.HIGH_THROUGHPUT
                if self.size_policy.use_multipath(size)
                else TrafficClass.BALANCED
            )
        flow_id = next(self._flow_ids)
        paths = self._policies[traffic_class].select(
            self.host, dst, flow_id
        )
        if not paths:
            raise RuntimeError(
                f"no live path from {self.host} to {dst} on any plane"
            )
        return FlowSpec(
            flow_id=flow_id,
            src=self.host,
            dst=dst,
            size=size,
            paths=paths,
            traffic_class=traffic_class,
        )

    def policy(self, traffic_class: TrafficClass) -> FailureAwareSelector:
        """The failure-wrapped policy behind one proxy interface."""
        return self._policies[traffic_class]
