"""Deterministic fault injection for both simulators.

:class:`FaultInjector` executes a :class:`~repro.faults.schedule.
FaultSchedule` against a :class:`~repro.sim.network.PacketNetwork` or a
:class:`~repro.fluid.flowsim.FluidSimulator`, as timers on the engine's
simulated clock (``schedule``), keeping three layers consistent on every
event.  It needs nothing else of the engine but ``fail_link`` /
``restore_link``, ``active_flow_paths()``, ``abort_flow`` and
``resteer``, which both engines answer the same way.  The hybrid engine
has neither ``active_flow_paths()`` nor ``abort_flow``, so the injector
refuses it.

1. **Topology** -- element events expand to link sets (a switch fails
   all its incident links; a plane fails every link it has) applied
   through per-link reference counts, so overlapping events compose:
   a link downed by both a switch event and a plane event only comes
   back when both restore.
2. **Routing** -- failures repair the :class:`~repro.core.pnet.PNet`
   caches incrementally (only paths over dead elements are touched;
   survivors keep their exact rank); restores invalidate the plane
   (paths may shorten).  Policies with private memos are invalidated
   through their ``invalidate()`` hook.
3. **Flows** -- after a detection delay, flows with subflows on dead
   paths are resteered (the engine's ``resteer``: the packet engine
   relaunches the un-ACKed remainder, the fluid one migrates the flow
   in place; either way the flow keeps its id and its one record) using
   the configured selector --
   typically a :class:`~repro.core.failures.FailureAwareSelector` --
   or stranded (aborted and counted) when fully partitioned.  With a
   selector, flows are rebalanced back onto recovered paths after a
   restore.

This is the one way a schedule acts: on a running engine, with the
hosts reacting.  An engine with no flows runs the topology and routing
layers alone.  Everything is driven by simulated time and
deterministic iteration order, so a (seed, schedule) pair replays
byte-for-byte.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.failures import path_is_live
from repro.core.flowspec import same_paths
from repro.core.pnet import PlanePath, PNet
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.obs import get_registry

#: Default failure-detection delay (link-status propagation to hosts).
DEFAULT_DETECTION_DELAY = 1e-3


def surviving_capacity(planes) -> float:
    """Fraction of total link capacity currently live, across planes.

    Exactly 1.0 when nothing is failed (the restore-all invariant the
    property tests pin).
    """
    total = sum(l.capacity for p in planes for l in p.links)
    live = sum(l.capacity for p in planes for l in p.live_links)
    return live / total if total else 1.0


@dataclass
class InjectionStats:
    """Plain-counter mirror of the injector's obs metrics."""

    events_applied: int = 0
    links_failed: int = 0
    links_restored: int = 0
    flows_resteered: int = 0
    flows_stranded: int = 0
    routes_kept: int = 0
    routes_repaired: int = 0
    routes_reenumerated: int = 0


class FaultInjector:
    """Execute a fault schedule against a network + simulator pair.

    Args:
        pnet: the routing view; must wrap the *same* Topology objects
            the simulator runs over (``PacketNetwork(pnet.planes)`` /
            ``FluidSimulator(pnet.planes)``).
        schedule: validated against ``pnet`` at construction.
        selector: path re-selection for resteered flows -- anything with
            ``select(src, dst, flow_id) -> List[PlanePath]`` (use a
            :class:`~repro.core.failures.FailureAwareSelector`).  With
            no selector, resteering keeps a flow's surviving paths and
            falls back to any live plane's shortest path.
        obs: telemetry registry (defaults to the process-wide one).
        detection_delay: simulated seconds between an event and the
            hosts reacting to it; also the floor of every reroute-
            latency observation.

    With a selector, every event that restores a link also re-runs the
    selector for every active flow and moves the flows whose selection
    changed (MPTCP re-probing the recovered planes).
    """

    def __init__(
        self,
        pnet: PNet,
        schedule: FaultSchedule,
        selector=None,
        obs=None,
        detection_delay: float = DEFAULT_DETECTION_DELAY,
    ):
        if detection_delay < 0:
            raise ValueError(
                f"detection_delay must be >= 0, got {detection_delay}"
            )
        schedule.validate(pnet)
        self.pnet = pnet
        self.schedule = schedule
        self.selector = selector
        self.obs = obs if obs is not None else get_registry()
        self.detection_delay = detection_delay
        self.stats = InjectionStats()
        self._network = None
        #: Per (plane, link-key) count of down-events currently holding
        #: the link failed.
        self._down_count = {}

    # --- wiring -------------------------------------------------------------

    def attach(self, network) -> None:
        """Schedule every event on the simulator's clock.

        Call once, before ``run()``; accepts a :class:`PacketNetwork`
        or a :class:`FluidSimulator` built over ``pnet.planes``.
        """
        if self._network is not None:
            raise RuntimeError("injector is already attached")
        if not hasattr(network, "active_flow_paths"):
            raise TypeError(
                f"cannot attach to {type(network).__name__}; expected "
                "a packet or fluid engine"
            )
        for plane, sim_plane in zip(self.pnet.planes, network.planes):
            if plane is not sim_plane:
                raise ValueError(
                    "simulator planes are not the PNet's Topology objects; "
                    "build the simulator over pnet.planes"
                )
        self._network = network
        self._publish_gauges()
        # Partials, not lambdas: pending fault events must pickle so a
        # checkpoint taken mid-schedule resumes the remaining events.
        for event in self.schedule:
            network.schedule(event.at, functools.partial(self._apply, event))

    # --- event application --------------------------------------------------

    def _invalidate_policies(self) -> None:
        invalidate = getattr(self.selector, "invalidate", None)
        if invalidate is not None:
            invalidate()

    def _apply(self, event: FaultEvent) -> None:
        obs = self.obs
        net = self._network
        plane_idx = event.plane
        changed = event.hold(
            self.pnet.planes[plane_idx], self._down_count,
            net.fail_link, net.restore_link,
        )
        if event.is_down:
            self.stats.links_failed += len(changed)
            repair = self.pnet.repair_after_failure(plane_idx, changed)
            self.stats.routes_kept += repair.kept
            self.stats.routes_repaired += repair.repaired
            self.stats.routes_reenumerated += repair.reenumerated
            if obs.enabled:
                obs.counter("faults.routes.repaired").inc(repair.repaired)
                obs.counter("faults.routes.reenumerated").inc(
                    repair.reenumerated
                )
        else:
            self.stats.links_restored += len(changed)
            if changed:
                # Restores can shorten paths: survivors of a filter would
                # be mis-ranked, so the plane's caches start over.
                self.pnet.invalidate_plane(plane_idx)
        self._invalidate_policies()
        self.stats.events_applied += 1

        if obs.enabled:
            obs.counter("faults.events", kind=event.kind).inc()
            self._publish_gauges()
            obs.trace(
                "fault.event", net.now, event=event.kind,
                plane=plane_idx, changed_links=len(changed),
            )
        if changed:
            self._schedule_reaction(event)

    def _publish_gauges(self) -> None:
        obs = self.obs
        if not obs.enabled:
            return
        obs.gauge("faults.surviving_capacity").set(
            surviving_capacity(self.pnet.planes)
        )
        for idx, plane in enumerate(self.pnet.planes):
            obs.gauge("faults.plane.live_links", plane=idx).set(
                len(plane.live_links)
            )

    # --- host reaction: resteer / rebalance ----------------------------------

    def _schedule_reaction(self, event: FaultEvent) -> None:
        rebalance = not event.is_down
        if rebalance and self.selector is None:
            return
        t_event = self._network.now
        self._network.schedule(
            t_event + self.detection_delay,
            functools.partial(self._react, t_event, rebalance),
        )

    def _pick_paths(
        self, src: str, dst: str, flow_id: int, live: Sequence[PlanePath]
    ) -> List[PlanePath]:
        if self.selector is not None:
            return [
                pp
                for pp in self.selector.select(src, dst, flow_id)
                if path_is_live(self.pnet, pp)
            ]
        if live:
            return list(live)
        for plane_idx in self.pnet.live_planes(src, dst):
            options = self.pnet.shortest_paths(plane_idx, src, dst)
            if options:
                return [(plane_idx, options[0])]
        return []

    def _observe_reroute(self, latency: float) -> None:
        self.stats.flows_resteered += 1
        if self.obs.enabled:
            self.obs.counter("faults.flows_resteered").inc()
            self.obs.histogram("faults.reroute_seconds").observe(latency)

    def _strand(self) -> None:
        self.stats.flows_stranded += 1
        if self.obs.enabled:
            self.obs.counter("faults.flows_stranded").inc()

    def _react(self, t_event: float, rebalance: bool) -> None:
        net = self._network
        now = net.now
        for flow_id, src, dst, paths in net.active_flow_paths():
            live = [pp for pp in paths if path_is_live(self.pnet, pp)]
            if len(live) == len(paths):
                if not rebalance:
                    continue
                new_paths = self._pick_paths(src, dst, flow_id, live)
                if not new_paths or same_paths(new_paths, paths):
                    continue
            else:
                new_paths = self._pick_paths(src, dst, flow_id, live)
            if not new_paths:
                net.abort_flow(flow_id)
                self._strand()
                continue
            if net.resteer(flow_id, new_paths):
                self._observe_reroute(now - t_event)
