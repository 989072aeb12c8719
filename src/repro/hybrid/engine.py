"""Hybrid-fidelity co-simulation: fluid bulk, packet-accurate sample.

:class:`HybridSimulator` advances a
:class:`~repro.fluid.flowsim.FluidSimulator` and a
:class:`~repro.sim.network.PacketNetwork` on a shared clock.  Each
submitted :class:`~repro.core.flowspec.FlowSpec` is routed to exactly
one engine -- by its explicit ``fidelity`` hint, else by the
:class:`~repro.hybrid.promotion.PromotionPolicy` -- and the
:class:`~repro.hybrid.bridge.BackgroundLoadBridge` feeds fluid link
rates into the packet queues as virtual cross-traffic.  This is the
paper's own escape hatch (htsim's flow-path-only mode) made
first-class: bulk traffic pays fluid costs (events per rate change, not
per packet) while a promoted sample keeps real TCP/MPTCP dynamics.

The clock-coupling discipline is conservative (the packet loop never
runs past the fluid engine's next boundary):

1. Peek the fluid engine's next event boundary ``tf``
   (:meth:`FluidSimulator.peek_next_event_time` -- pure, uncounted; the
   step in 3 reuses its rate solve).
2. Run the packet event loop up to ``tf`` under the service rates the
   bridge last set.
3. Step the fluid engine across the single boundary at ``tf`` with
   ``stop_after`` (event-boundary stepping, no horizon crediting), then
   refresh the bridge.  The step leaves each subflow's rate at the value
   it held on the interval that just ended -- the rates after ``tf`` are
   solved by the next peek -- so the packet queues run each interval at
   the fluid rates of the one before it.

Both limits collapse to the pure engines **byte-identically**: with no
flow promoted the packet side is never touched (no events, no queues,
no telemetry rows) and the fluid side executes the exact pure-fluid
call pattern; with every flow promoted the fluid side is never touched
and the packet loop runs once, uninterrupted.  ``tests/
test_hybrid_engine.py`` pins both.  Checkpointing rides the existing
fluid-style path of :func:`repro.ckpt.run_checkpointed`: ``stop_after``
pauses the co-simulation at co-sim step boundaries, the single-pickle
snapshot captures both engines, the bridge, and the promotion policy in
one object graph, and resume is byte-identical.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, ClassVar, Dict, List, Optional, Sequence

from repro.core.flowspec import FlowSpec, check_flow_spec
from repro.fluid.flowsim import FluidSimulator
from repro.hybrid.bridge import BackgroundLoadBridge
from repro.hybrid.promotion import (
    FLUID,
    PACKET,
    PromotionPolicy,
    resolve_policy,
)
from repro.obs import get_registry
from repro.sim.network import PacketNetwork
from repro.topology.graph import Topology

#: Constructor kwargs routed to the packet engine.
_PACKET_KEYS = frozenset(
    ("queue_packets", "mss", "min_rto", "ecn_threshold")
)
#: Constructor kwargs routed to the fluid engine.
_FLUID_KEYS = frozenset(("slow_start", "initial_window", "mss"))


class HybridSimulator:
    """Co-simulates a fluid bulk and a packet-fidelity sample.

    Args:
        planes: dataplanes, shared by both engines.
        promotion: a :class:`PromotionPolicy`, probability, or policy
            string (see :func:`repro.hybrid.promotion.resolve_policy`);
            default promotes nothing.
        obs: telemetry registry shared by both engines; defaults to the
            process-wide one.
        bridge_floor: minimum packet service rate as a fraction of link
            capacity under fluid load (see
            :class:`BackgroundLoadBridge`).
        **engine_kwargs: routed by name to the underlying constructors
            -- ``queue_packets``/``min_rto``/``ecn_threshold`` to the
            packet engine, ``slow_start``/``initial_window`` to the
            fluid engine, ``mss`` to both.
    """

    #: The engine's name in :func:`repro.api.build_network`.
    kind: ClassVar[str] = "hybrid"

    def __init__(
        self,
        planes: Sequence[Topology],
        promotion: Optional[Any] = None,
        obs=None,
        bridge_floor: float = 0.01,
        **engine_kwargs: Any,
    ):
        if not planes:
            raise ValueError("need at least one plane")
        self.planes = list(planes)
        self.obs = obs if obs is not None else get_registry()
        self.promotion: PromotionPolicy = resolve_policy(promotion)
        packet_kwargs: Dict[str, Any] = {}
        fluid_kwargs: Dict[str, Any] = {}
        for name, value in engine_kwargs.items():
            known = False
            if name in _PACKET_KEYS:
                packet_kwargs[name] = value
                known = True
            if name in _FLUID_KEYS:
                fluid_kwargs[name] = value
                known = True
            if not known:
                raise TypeError(
                    f"unknown HybridSimulator kwarg {name!r} "
                    f"(packet: {sorted(_PACKET_KEYS)}, "
                    f"fluid: {sorted(_FLUID_KEYS)})"
                )
        self.packet = PacketNetwork(
            self.planes, obs=self.obs, **packet_kwargs
        )
        self.fluid = FluidSimulator(
            self.planes, obs=self.obs, **fluid_kwargs
        )
        self.bridge = BackgroundLoadBridge(
            self.fluid, self.packet, floor=bridge_floor, obs=self.obs
        )
        #: The co-simulation frontier: both engines have fully simulated
        #: everything up to this time.
        self.now = 0.0
        #: flow id -> "packet" | "fluid", for every submitted flow.
        self.fidelity: Dict[int, str] = {}
        self._records: List[Any] = []
        self._next_flow_id = 0
        # Which engines ever received work: an untouched engine is
        # never run (and never publishes telemetry), so each pure limit
        # stays byte-identical to its pure engine.
        self._packet_used = False
        self._fluid_used = False

    # --- submission ----------------------------------------------------

    def add_flow(self, spec: FlowSpec) -> int:
        """Submit a flow; its engine is chosen here, once.

        Explicit ``spec.fidelity`` wins; otherwise the promotion policy
        decides from the spec and the submission index.  Returns the
        hybrid-global flow id (submission order, shared across both
        engines -- completion records are rewritten to carry it).
        """
        check_flow_spec(spec)
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        fidelity = spec.fidelity
        if fidelity is None:
            fidelity = (
                PACKET if self.promotion.decide(spec, flow_id) else FLUID
            )
        self.fidelity[flow_id] = fidelity
        wrapped = spec.replace(
            fidelity=None,
            on_complete=functools.partial(
                self._sub_complete, flow_id, spec.on_complete
            ),
        )
        if fidelity == PACKET:
            self._packet_used = True
            self.packet.add_flow(spec=wrapped)
        else:
            self._fluid_used = True
            self.fluid.add_flow(spec=wrapped)
            # Submitted from inside a packet-side callback (closed-loop
            # chaining), this flow invalidates the fluid frontier the
            # packet loop is currently running toward: stop that run at
            # the submission instant so the co-sim loop re-couples the
            # clocks before the packet side overruns the new fluid
            # events.  No-op outside a packet run.
            self.packet.loop.interrupt()
        return flow_id

    def _sub_complete(self, flow_id, user_cb, record) -> None:
        # Records carry the hybrid-global id (in each pure limit the
        # rewrite is the identity: sub-engine ids equal global ids).
        record.flow_id = flow_id
        self._records.append(record)
        if user_cb is not None:
            user_cb(record)

    def schedule(self, at: float, fn) -> None:
        """Run a control callback at simulated time ``at``.

        Timers live on the fluid clock (its boundaries drive the co-sim
        loop), so a callback observes both engines advanced to ``at``.
        """
        self._fluid_used = True
        self.fluid.schedule(at, fn)
        self.packet.loop.interrupt()  # same staleness hazard as add_flow

    def has_pending(self) -> bool:
        """Whether either engine has work left."""
        return self.packet.has_pending() or self.fluid.has_pending()

    # --- state views ---------------------------------------------------

    @property
    def records(self) -> List[Any]:
        """Merged completion records, in global completion order."""
        return self._records

    @property
    def delivered_bytes(self) -> float:
        """Bytes delivered across both engines (completed + in-flight)."""
        return self.packet.delivered_bytes + self.fluid.delivered_bytes

    def queue_stats(self):
        """Per-queue (packets forwarded, drops) of the packet side."""
        return self.packet.queue_stats()

    def control_rows(self, gid_of: Optional[Callable[[Any], Any]] = None):
        """Both engines' control snapshots, ids namespaced per engine.

        Flow ids become ``("packet", fid)`` or ``("fluid", fid)`` in the
        sub-engine's id space (then mapped by ``gid_of``); the plane
        counters are the packet side's.
        """
        plane_cum, rows = self.packet.control_rows(lambda f: (PACKET, f))
        rows += self.fluid.control_rows(lambda f: (FLUID, f))[1]
        if gid_of is not None:
            for row in rows:
                row["gid"] = gid_of(row["gid"])
        return plane_cum, rows

    def resteer(self, gid, paths) -> Optional[tuple]:
        """Move a live flow, named ``(engine, fid)``, onto ``paths``.

        The flow's own engine resteers it; returns its new
        ``(engine, fid)``, or None when the flow is gone.
        """
        engine, fid = gid
        sub = self.packet if engine == PACKET else self.fluid
        new_fid = sub.resteer(fid, paths)
        return None if new_fid is None else (engine, new_fid)

    def fidelity_counts(self) -> Dict[str, int]:
        """How many flows run at each fidelity."""
        counts = {PACKET: 0, FLUID: 0}
        for fid in self.fidelity.values():
            counts[fid] += 1
        return counts

    # --- execution -----------------------------------------------------

    def run(
        self,
        until: Optional[float] = math.inf,
        max_events: int = 10_000_000,
        stop_after: Optional[float] = None,
    ) -> List[Any]:
        """Co-simulate to completion (or ``until``); returns records.

        ``until=None`` is the same as ``math.inf``.

        Mirrors the fluid engine's signature so the checkpoint driver
        treats both uniformly: ``stop_after`` pauses at the first co-sim
        step boundary at or past that time without horizon crediting
        (resume replays the exact trajectory); ``until`` is the final
        horizon, with fluid in-flight progress credited exactly to it.
        """
        horizon = math.inf if until is None else float(until)
        steps = 0
        while True:
            if stop_after is not None and self.now >= stop_after:
                break
            steps += 1
            if steps > max_events:
                raise RuntimeError(
                    f"exceeded {max_events} co-simulation steps"
                )
            tf = (
                self.fluid.peek_next_event_time()
                if self._fluid_used
                else None
            )
            target = horizon if tf is None else min(tf, horizon)
            if stop_after is not None:
                target = min(target, stop_after)
            if self._packet_used:
                # Fluid rates are constant up to ``target``; the queues
                # run at the rates the bridge set after the previous
                # fluid step (one interval behind, see the module doc).
                self.packet.loop.run(until=target)
                if math.isfinite(target) and self.packet.loop.now < target:
                    # A chained fluid submission interrupted the packet
                    # run: ``tf`` is stale, so re-peek before stepping
                    # the fluid engine across the wrong boundary.
                    self.now = max(self.now, self.packet.loop.now)
                    continue
                if not math.isfinite(target):
                    self.now = max(self.now, self.packet.loop.now)
            if math.isfinite(target):
                self.now = max(self.now, target)
            if tf is not None and tf <= target:
                # Step the fluid engine across the one boundary at
                # ``tf`` (conservative event-boundary step), then map
                # the new rates onto the packet queues.
                self.fluid.run(
                    until=until,
                    stop_after=max(
                        tf, math.nextafter(self.fluid.now, math.inf)
                    ),
                )
                self.bridge.refresh()
                continue
            if (
                stop_after is not None
                and target == stop_after
                and stop_after < horizon
            ):
                continue  # loop top breaks with the state paused
            # No fluid boundary inside the window: the packet side is
            # drained (or ran to the horizon).  Credit fluid in-flight
            # progress exactly to a finite horizon, like a pure run.
            if self._fluid_used and math.isfinite(horizon):
                self.fluid.run(until=horizon)
                self.now = max(self.now, horizon)
            elif (
                self._fluid_used
                and self.fluid.peek_next_event_time() is not None
            ):
                # Packet-side completion callbacks submitted new fluid
                # work after the fluid frontier was peeked (closed-loop
                # chaining): go around rather than dropping it.  The
                # re-peek is pure, so runs that never chain are
                # untouched.
                continue
            break
        if self._packet_used and self.packet.obs.enabled:
            self.packet.publish_queue_stats()
        return self._records

    # --- fault hooks ---------------------------------------------------

    def fail_link(self, plane_idx: int, u: str, v: str) -> None:
        """Cut a link in both engines (the shared Topology marking is
        idempotent, so the double call is harmless)."""
        self.packet.fail_link(plane_idx, u, v)
        self.fluid.fail_link(plane_idx, u, v)

    def restore_link(self, plane_idx: int, u: str, v: str) -> None:
        self.packet.restore_link(plane_idx, u, v)
        self.fluid.restore_link(plane_idx, u, v)
