"""Cross-dataplane monitoring and diagnostics (paper section 7).

"Existing systems will need to merge flow statistics from multiple
dataplanes to accurately describe the network state."  This module is
that merge layer: it ingests per-flow records from any engine and
per-queue counters from the packet simulator, attributes them to planes,
and answers the operator questions the paper raises -- per-plane load
balance, loss concentration, and misbehaving-plane detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.stats import Summary, summarize


@dataclass
class PlaneStats:
    """Aggregated view of one dataplane."""

    plane: int
    flows: int = 0
    bytes_carried: float = 0.0
    packets_forwarded: int = 0
    drops: int = 0
    fcts: List[float] = field(default_factory=list)

    @property
    def loss_fraction(self) -> float:
        total = self.packets_forwarded + self.drops
        return self.drops / total if total else 0.0

    def fct_summary(self) -> Optional[Summary]:
        return summarize(self.fcts) if self.fcts else None


class NetworkMonitor:
    """Merge per-plane statistics into a whole-fabric view.

    Flow records don't carry plane ids directly (an MPTCP flow spans
    several), so callers register each flow's plane usage when launching
    it -- exactly what a P-Net host agent, which chose the planes, can do.
    """

    def __init__(self, n_planes: int):
        if n_planes < 1:
            raise ValueError("need at least one plane")
        self.stats = {i: PlaneStats(plane=i) for i in range(n_planes)}

    # --- constructors -------------------------------------------------------

    @classmethod
    def from_network(
        cls, network, n_planes: Optional[int] = None
    ) -> "NetworkMonitor":
        """Monitor built from a finished run of any engine.

        Flow records carry their plane usage (``record.planes``), so no
        manual per-flow registration is needed: this ingests every
        completed flow plus the engine's ``queue_stats()`` (none on the
        fluid engine, the packet side's on the hybrid one) in one call.
        """
        monitor = cls(n_planes if n_planes is not None else len(network.planes))
        monitor.ingest_network(network)
        return monitor

    @classmethod
    def from_registry(cls, registry, n_planes: int) -> "NetworkMonitor":
        """Monitor built from a :class:`repro.obs.Registry`'s per-plane
        series (``net.flows``, ``net.flow.bytes``, ``net.fct_seconds``,
        ``sim.plane.*``) -- the merge the paper's section 7 asks for,
        from telemetry alone."""
        monitor = cls(n_planes)
        monitor.ingest_registry(registry)
        return monitor

    # --- ingestion ----------------------------------------------------------

    def ingest_network(self, network) -> None:
        """Ingest all flow records and queue counters of a simulation."""
        for record in network.records:
            self.record_flow(record.planes, record.size, record.fct)
        self.ingest_queue_counters(network)

    def ingest_registry(self, registry) -> None:
        """Merge a registry's per-plane series into this monitor."""
        for plane, stats in self.stats.items():
            stats.flows += int(registry.value("net.flows", plane=plane))
            stats.bytes_carried += registry.value("net.flow.bytes", plane=plane)
            stats.packets_forwarded += int(
                registry.value("sim.plane.packets_forwarded", plane=plane)
            )
            stats.drops += int(registry.value("sim.plane.drops", plane=plane))
            stats.fcts.extend(registry.samples("net.fct_seconds", plane=plane))

    def record_flow(
        self,
        planes: Sequence[int],
        size: float,
        fct: float,
    ) -> None:
        """Attribute one completed flow to the planes it used.

        Bytes are split evenly across planes (the host agent may pass
        one entry per subflow for exact accounting).
        """
        if not planes:
            raise ValueError("flow must have used at least one plane")
        share = size / len(planes)
        for plane in planes:
            stats = self.stats[plane]
            stats.flows += 1
            stats.bytes_carried += share
            stats.fcts.append(fct)

    def ingest_queue_counters(self, network) -> None:
        """Pull per-queue forward/drop counters from an engine.

        Queue names are ``p{plane}:{u}->{v}``, so attribution is direct.
        """
        for name, (forwarded, drops) in network.queue_stats().items():
            plane = int(name.split(":", 1)[0][1:])
            self.stats[plane].packets_forwarded += forwarded
            self.stats[plane].drops += drops

    # --- diagnostics ----------------------------------------------------------

    def load_imbalance(self) -> float:
        """Max/mean bytes across planes (1.0 = perfectly balanced)."""
        loads = [s.bytes_carried for s in self.stats.values()]
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 1.0
        return max(loads) / mean

    def suspect_planes(
        self,
        loss_threshold: float = 0.01,
        fct_factor: float = 2.0,
        baseline: Optional["NetworkMonitor"] = None,
    ) -> List[int]:
        """Planes that look unhealthy.

        A plane is suspect if its loss fraction exceeds ``loss_threshold``
        or its median FCT exceeds ``fct_factor`` times a reference:

        * with a ``baseline`` monitor (a previous healthy measurement of
          the *same* probe workload), each plane is compared against its
          own baseline median -- robust when heterogeneous planes have
          different natural path lengths;
        * without one, planes are compared against the best plane's
          median, which assumes comparable plane topologies.
        """
        suspects = set()
        medians = {}
        for plane, stats in self.stats.items():
            if stats.loss_fraction > loss_threshold:
                suspects.add(plane)
            summary = stats.fct_summary()
            if summary is not None:
                medians[plane] = summary.median
        if baseline is not None:
            for plane, median in medians.items():
                reference = baseline.stats[plane].fct_summary()
                if reference is not None and reference.median > 0:
                    if median > fct_factor * reference.median:
                        suspects.add(plane)
        elif medians:
            best = min(medians.values())
            if best > 0:
                for plane, median in medians.items():
                    if median > fct_factor * best:
                        suspects.add(plane)
        return sorted(suspects)

    def report(self) -> str:
        """Human-readable per-plane summary."""
        lines = ["plane  flows  bytes         loss      median FCT"]
        for plane, stats in sorted(self.stats.items()):
            summary = stats.fct_summary()
            fct = f"{summary.median * 1e6:9.1f}us" if summary else "      n/a"
            lines.append(
                f"{plane:>5}  {stats.flows:>5}  {stats.bytes_carried:>12.3e}"
                f"  {stats.loss_fraction:>7.4f}  {fct}"
            )
        return "\n".join(lines)
