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
the fluid bulk saturates a link.  The bridge keeps those queues, their
fluid link indices and their base rates in arrays, extended when the
packet engine builds a queue; a refresh computes every effective rate
in one vector operation from ``FluidSimulator.link_usage`` and calls
``set_rate`` only on the queues whose rate changed.

The reverse direction is deliberately absent: promoted flows are a
small sample by construction, so their bandwidth is not subtracted from
the fluid max-min computation.  The residual error of that
approximation vanishes in both limits (promote-none has no queues,
promote-all has no fluid rates), which is what the byte-identity
pinning in ``tests/test_hybrid_engine.py`` checks.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Tuple

import numpy as np

from repro.analysis.stats import left_sum

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
        #: How many of the packet engine's queues the bridge has looked
        #: at (``PacketNetwork`` only ever appends to its queue table).
        self._seen = 0
        #: The queues on links the fluid engine also carries, in the
        #: packet engine's order, with their fluid link indices, base
        #: (uncontended) rates captured when the bridge first saw them,
        #: and the rates they serve at now (only the bridge sets them).
        self._queues: List = []
        self._links = np.zeros(0, np.intp)
        self._base = np.zeros(0)
        self._rates = np.zeros(0)

    def _track_new_queues(self) -> None:
        elements = self.packet._elements
        index = self.fluid._link_index
        new = [
            (queue, index[key])
            for key, queue in islice(elements.items(), self._seen, None)
            if key in index
        ]
        self._seen = len(elements)
        if not new:
            return
        queues, links = zip(*new)
        rates = np.array([queue.rate for queue in queues], dtype=float)
        self._queues.extend(queues)
        self._links = np.append(self._links, np.array(links, np.intp))
        self._base = np.append(self._base, rates)
        self._rates = np.append(self._rates, rates)

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
        if not self.packet._elements:
            return 0
        if len(self.packet._elements) > self._seen:
            self._track_new_queues()
        cross = self.fluid.link_usage()[self._links]
        effective = np.maximum(
            self._base - cross, self._base * self.floor
        )
        # Only touch changed queues: in the promote-all limit usage is
        # identically zero and every queue keeps its pristine rate,
        # byte-identical to a pure packet run.
        changed = (effective != self._rates).nonzero()[0]
        for i, rate in zip(changed.tolist(), effective[changed].tolist()):
            self._queues[i].set_rate(rate)
        self._rates[changed] = effective[changed]
        self.refreshes += 1
        if self.obs.enabled:
            self.obs.counter("hybrid.bridge.refreshes").inc()
            self.obs.gauge("hybrid.bridge.cross_traffic_bps").set(
                left_sum(cross.tolist())
            )
            self.obs.gauge("hybrid.bridge.queues_reduced").set(
                int(np.count_nonzero(self._rates < self._base))
            )
        return int(changed.size)

    def base_rate(self, key: Key) -> float:
        """The uncontended service rate of a queue the bridge has seen."""
        queue = self.packet._elements.get(key)
        if queue is None or queue not in self._queues:
            raise KeyError(key)
        return float(self._base[self._queues.index(queue)])
