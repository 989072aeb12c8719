"""Fluid rates as virtual cross-traffic on packet queues.

The one-way coupling of the hybrid engine: after every fluid
event-boundary step, :class:`BackgroundLoadBridge` maps the fluid
engine's per-directed-link committed rates onto the packet engine's
queues by *reducing their service rate* -- a queue whose link also
carries 60 Gb/s of fluid traffic serialises promoted packets at
``capacity - 60 Gb/s``.  That is the standard virtual-cross-traffic
reduction (htsim's flow-path-only background mode does the same): the
promoted flows see the bulk's bandwidth pressure without the bulk
paying per-packet event costs.

Only queues the packet engine has instantiated are touched
(``PacketNetwork`` builds elements lazily, so untouched links cost
nothing), and a floor keeps service rates strictly positive even when
the fluid bulk saturates a link.  The reverse direction is deliberately
absent: promoted flows are a small sample by construction, so their
bandwidth is not subtracted from the fluid max-min computation.  The
residual error of that approximation vanishes in both limits
(promote-none has no queues, promote-all has no fluid rates), which is
what the byte-identity pinning in ``tests/test_hybrid_engine.py``
checks.
"""

from __future__ import annotations

from typing import Dict, Tuple

Key = Tuple[int, str, str]


class BackgroundLoadBridge:
    """Applies fluid link usage to packet queue service rates.

    Args:
        fluid: the :class:`~repro.fluid.flowsim.FluidSimulator`.
        packet: the :class:`~repro.sim.network.PacketNetwork`.
        floor: minimum effective service rate as a fraction of the
            link's base rate (a saturated fluid link still serves
            promoted packets at ``floor * capacity``).
        obs: telemetry registry (defaults to the packet engine's).
    """

    def __init__(self, fluid, packet, floor: float = 0.01, obs=None):
        if not 0.0 < floor <= 1.0:
            raise ValueError(f"floor must be in (0, 1], got {floor}")
        self.fluid = fluid
        self.packet = packet
        self.floor = float(floor)
        self.obs = obs if obs is not None else packet.obs
        #: How many times :meth:`refresh` recomputed rates.
        self.refreshes = 0
        #: Base (uncontended) service rate per queue, captured the
        #: first time the bridge sees it.
        self._base: Dict[Key, float] = {}

    def refresh(self) -> int:
        """Recompute effective service rates from current fluid usage.

        Called by the hybrid engine after each fluid event-boundary step.
        The step leaves the fluid rates of the interval that just ended
        in place (the next peek solves the new ones), so the packet
        interval that follows runs at those: one fluid interval behind.
        Returns the number of queues whose rate changed.  A no-op while
        the packet engine has no instantiated queues -- in the
        promote-none limit the bridge touches neither the queues nor the
        telemetry registry, keeping that limit byte-identical to pure
        fluid.
        """
        elements = self.packet._elements
        if not elements:
            return 0
        usage = self.fluid.link_usage()
        index = self.fluid._link_index
        changed = 0
        cross_total = 0.0
        for key, queue in elements.items():
            idx = index.get(key)
            if idx is None:
                continue
            base = self._base.get(key)
            if base is None:
                base = self._base[key] = queue.rate
            cross = float(usage[idx])
            cross_total += cross
            effective = max(base - cross, base * self.floor)
            # Only touch changed queues: in the promote-all limit usage
            # is identically zero and every queue keeps its pristine
            # rate, byte-identical to a pure packet run.
            if effective != queue.rate:
                queue.set_rate(effective)
                changed += 1
        self.refreshes += 1
        if self.obs.enabled:
            self.obs.counter("hybrid.bridge.refreshes").inc()
            self.obs.gauge("hybrid.bridge.cross_traffic_bps").set(
                cross_total
            )
            self.obs.gauge("hybrid.bridge.queues_reduced").set(
                sum(
                    1
                    for key, queue in elements.items()
                    if key in self._base and queue.rate < self._base[key]
                )
            )
        return changed

    def base_rate(self, key: Key) -> float:
        """The uncontended service rate of a queue the bridge has seen."""
        return self._base[key]
