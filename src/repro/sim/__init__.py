"""Packet-level discrete-event simulator (the repo's htsim [23] analog).

Components mirror htsim's architecture:

* :mod:`repro.sim.events` -- the event loop.
* :mod:`repro.sim.packet` -- data/ACK packets with source routes.
* :mod:`repro.sim.link` -- directed links: drop-tail output queues with
  their propagation delay, one event per packet.
* :mod:`repro.sim.tcp` -- TCP NewReno sources/sinks (slow start, fast
  retransmit/recovery, RTO with the 10 ms datacenter minimum).
* :mod:`repro.sim.mptcp` -- MPTCP with LIA-coupled congestion control
  over subflows pinned to P-Net paths.
* :mod:`repro.sim.network` -- assembles link queues from topologies and
  launches flows.
* :mod:`repro.sim.rpc` -- closed-loop request/response application.

Used for the latency-sensitive experiments (Figures 9-11, Table 2) where
queueing, slow start, and retransmissions matter packet by packet.

Constructing the engine through this package
(``repro.sim.PacketNetwork``) is **deprecated** for workload code: use
``repro.api.build_network(planes, kind="packet")`` so trials stay
engine-agnostic (hybrid fidelity, registry dispatch, uniform
checkpointing).  Internal wiring that genuinely needs the class imports
it from :mod:`repro.sim.network`, which never warns.
"""

import warnings

from repro.sim.events import EventLoop
from repro.sim.rpc import RpcClient

__all__ = ["EventLoop", "PacketNetwork", "RpcClient"]


def __getattr__(name):
    if name == "PacketNetwork":
        warnings.warn(
            "constructing engines via repro.sim.PacketNetwork is "
            "deprecated; use repro.api.build_network(planes, "
            "kind='packet') (internal wiring may import "
            "repro.sim.network.PacketNetwork directly)",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.sim.network import PacketNetwork

        return PacketNetwork
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
