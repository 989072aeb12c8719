"""Multi-channel NIC model (paper section 6.3).

A P-Net host needs one uplink *channel* per dataplane, but not
necessarily one physical *port*: "single-port-multi-channel NICs like the
HPE 4x25Gb 1-port 620QSFP28 adapter" carry several channels over one
cable.  The trade-off the paper names: fewer physical ports cost less and
wire more simply, but one port (or its cable) failing takes down every
plane riding it -- "operators can balance between ToR redundancy and cost
by varying the number of physical uplinks."

:class:`NicConfig` describes the port->channels mapping;
:class:`HostNic` tracks port state for one host and translates port
failures into per-plane availability (feeding the same fail-over path as
link failures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.pnet import PNet


@dataclass(frozen=True)
class NicConfig:
    """How a host's plane channels map onto physical ports.

    Attributes:
        n_planes: channels needed (one per dataplane).
        ports: number of physical ports; must divide ``n_planes``.
    """

    n_planes: int
    ports: int

    def __post_init__(self):
        if self.n_planes < 1 or self.ports < 1:
            raise ValueError("n_planes and ports must be >= 1")
        if self.ports > self.n_planes:
            raise ValueError(
                f"{self.ports} ports for {self.n_planes} planes: a port "
                "must carry at least one channel"
            )
        if self.n_planes % self.ports:
            raise ValueError(
                f"{self.n_planes} planes do not split evenly over "
                f"{self.ports} ports"
            )

    @property
    def channels_per_port(self) -> int:
        return self.n_planes // self.ports

    def port_of_plane(self, plane_idx: int) -> int:
        """Which physical port carries the channel for ``plane_idx``."""
        if not 0 <= plane_idx < self.n_planes:
            raise IndexError(f"no plane {plane_idx}")
        return plane_idx // self.channels_per_port

    def planes_of_port(self, port: int) -> List[int]:
        if not 0 <= port < self.ports:
            raise IndexError(f"no port {port}")
        width = self.channels_per_port
        return list(range(port * width, (port + 1) * width))


class HostNic:
    """Port state for one host, applied to the underlying topology.

    Failing a port fails the host's uplink in every plane the port
    carries (callers should then call :meth:`PNet.invalidate_routing`,
    as after any failure).

    Pass the running simulator as ``network`` (a
    :class:`~repro.sim.network.PacketNetwork` or
    :class:`~repro.fluid.flowsim.FluidSimulator`) and port transitions
    go through its ``fail_link``/``restore_link``, keeping simulator
    state (packet queues, fluid capacities) consistent with the
    topology -- without it, a mid-run ``restore_port`` would mark the
    uplink live while the simulator still black-holes it.
    """

    def __init__(
        self, pnet: PNet, host: str, config: NicConfig, network=None
    ):
        if config.n_planes != pnet.n_planes:
            raise ValueError(
                f"NIC has {config.n_planes} channels but the network has "
                f"{pnet.n_planes} planes"
            )
        if host not in pnet.hosts:
            raise ValueError(f"{host!r} is not a host")
        self.pnet = pnet
        self.host = host
        self.config = config
        self.network = network
        self._down_ports: Set[int] = set()
        #: Uplinks each down port actually failed (a link already dead
        #: for another reason is not ours to restore).
        self._failed_by_port: Dict[int, List[Tuple[int, str, str]]] = {}

    @property
    def down_ports(self) -> Set[int]:
        return set(self._down_ports)

    def usable_planes(self) -> List[int]:
        return [
            idx
            for idx in range(self.config.n_planes)
            if self.config.port_of_plane(idx) not in self._down_ports
        ]

    def _fail_link(self, plane_idx: int, u: str, v: str) -> None:
        if self.network is not None:
            self.network.fail_link(plane_idx, u, v)
        else:
            self.pnet.plane(plane_idx).fail_link(u, v)

    def _restore_link(self, plane_idx: int, u: str, v: str) -> None:
        if self.network is not None:
            self.network.restore_link(plane_idx, u, v)
        else:
            self.pnet.plane(plane_idx).restore_link(u, v)

    def fail_port(self, port: int) -> List[int]:
        """Cut one physical port; returns the planes it took down."""
        affected = self.config.planes_of_port(port)
        if port in self._down_ports:
            return affected
        self._down_ports.add(port)
        failed: List[Tuple[int, str, str]] = []
        for plane_idx in affected:
            plane = self.pnet.plane(plane_idx)
            tor = plane.tor_of(self.host)
            if not plane.is_failed(self.host, tor):
                self._fail_link(plane_idx, self.host, tor)
                failed.append((plane_idx, self.host, tor))
        self._failed_by_port[port] = failed
        return affected

    def restore_port(self, port: int) -> None:
        """Bring one port back: restore exactly the uplinks it failed.

        Links that were already failed when the port went down (or that
        an independent fault took down since) stay failed -- the NIC
        only owns its own transitions.
        """
        if port not in self._down_ports:
            return
        self._down_ports.discard(port)
        for plane_idx, u, v in self._failed_by_port.pop(port, []):
            self._restore_link(plane_idx, u, v)

    def surviving_fraction(self, failed_ports: int) -> float:
        """Uplink capacity fraction left after ``failed_ports`` port cuts.

        The redundancy-vs-cost trade-off in one number: with P ports,
        each failure costs 1/P of the host's capacity.
        """
        if not 0 <= failed_ports <= self.config.ports:
            raise ValueError("failed_ports out of range")
        return 1.0 - failed_ports / self.config.ports
