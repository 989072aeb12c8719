"""Event-driven fluid flow simulator.

Flows (possibly with multiple subflows across P-Net planes) arrive, share
the network max-min fairly, and depart when their bytes are delivered.
Between events (arrival, departure, slow-start cap doubling) rates are
constant, so delivered bytes advance linearly and the next departure is
predictable exactly.

Model choices, mirroring the paper's transport discussion:

* **slow start**: a subflow's rate is capped at ``IW * MSS / RTT``
  doubling every RTT until it exceeds its path's line rate -- this is
  what lets small flows on parallel planes (more subflows in slow start)
  beat even a serial high-bandwidth network (Figure 9's left side);
* **multipath**: subflows are allocated independently (max-min treats
  each as a flow), their rates summing for the carrying flow -- the
  steady state MPTCP with enough time to probe converges to;
* **FCT**: completion time of the last byte at the receiver, i.e. the
  fluid delivery time plus half an RTT of the fastest subflow.

Closed-loop workloads hook ``on_complete`` to inject the next flow.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.flowspec import FlowSpec, check_flow_spec
from repro.core.pnet import PlanePath
from repro.fluid.maxmin import max_min_rates
from repro.obs import get_registry
from repro.topology.graph import Topology
from repro.units import MSS, MTU

#: Relative tolerance for byte/rate comparisons.
_EPS = 1e-9


@dataclass
class FlowRecord:
    """Result of one completed flow."""

    flow_id: int
    src: str
    dst: str
    size: float
    arrival: float
    completion: float
    n_subflows: int
    tag: Optional[str] = None
    #: Planes the flow's subflows used, in subflow order.
    planes: Tuple[int, ...] = field(default=())

    @property
    def fct(self) -> float:
        return self.completion - self.arrival


class _Subflow:
    __slots__ = ("links", "rtt", "cap", "next_double", "line_rate", "rate")

    def __init__(self, links: List[int], rtt: float, line_rate: float):
        self.links = links
        self.rtt = rtt
        self.line_rate = line_rate
        self.cap = math.inf
        self.next_double = math.inf
        self.rate = 0.0


class _Flow:
    __slots__ = (
        "flow_id", "src", "dst", "size", "size_bits", "arrival",
        "delivered", "subflows", "on_complete", "tag", "min_rtt", "planes",
        "paths",
    )

    def __init__(self, flow_id, src, dst, size, arrival, subflows,
                 on_complete, tag, planes=(), paths=()):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.size_bits = size * 8.0
        self.arrival = arrival
        self.delivered = 0.0  # bits
        self.subflows = subflows
        self.on_complete = on_complete
        self.tag = tag
        self.planes = planes
        self.paths = list(paths)
        self.min_rtt = min(sf.rtt for sf in subflows)

    @property
    def rate(self) -> float:
        return sum(sf.rate for sf in self.subflows)


class FluidSimulator:
    """Fluid simulation over one or more dataplanes.

    Args:
        planes: the dataplanes (one for a serial network).
        slow_start: enable the per-subflow ramp cap.
        initial_window: slow-start initial window in segments (RFC 6928's
            10 is today's datacenter default).
        mss: segment size in bytes for the ramp model.
        obs: telemetry registry; defaults to the process-wide registry
            (a no-op unless one was attached).  Iteration counts and
            high-water marks are published after each :meth:`run`.
    """

    #: True while every active subflow's ``rate`` is the max-min solution
    #: of the current inputs (active flows, their paths and caps, link
    #: capacities); a rate update then reuses it instead of solving.
    #: Whatever changes an input clears it.  Class-level, so a checkpoint
    #: pickled before the flag existed restores stale and solves afresh.
    _rates_current = False

    def __init__(
        self,
        planes: Sequence[Topology],
        slow_start: bool = True,
        initial_window: int = 10,
        mss: int = MSS,
        obs=None,
    ):
        if not planes:
            raise ValueError("need at least one plane")
        self.planes = list(planes)
        self.slow_start = slow_start
        self.initial_window = initial_window
        self.mss = mss
        self.obs = obs if obs is not None else get_registry()
        #: Cumulative engine iteration counters (cheap plain ints, kept
        #: whether or not telemetry is attached).
        self.events_processed = 0
        self.rate_recomputations = 0
        self.max_active_flows = 0

        self._link_index: Dict[Tuple[int, str, str], int] = {}
        caps: List[float] = []
        props: List[float] = []
        for plane_idx, plane in enumerate(self.planes):
            for link in plane.live_links:
                for u, v in ((link.u, link.v), (link.v, link.u)):
                    self._link_index[(plane_idx, u, v)] = len(caps)
                    caps.append(link.capacity)
                    props.append(link.propagation)
        self._capacities = np.asarray(caps)
        self._propagations = props
        #: Directed links failed mid-run (capacity zeroed, refused for
        #: new subflows); see :meth:`fail_link` / :meth:`restore_link`.
        self._dead: set = set()

        self.now = 0.0
        self._active: List[_Flow] = []
        self._arrivals: List[Tuple[float, int, _Flow]] = []
        self._timers: List[Tuple[float, int, Callable[[], None]]] = []
        # Plain ints (not itertools.count) so the simulator pickles for
        # checkpointing with its id/tie-break sequences intact.
        self._next_id = 0
        self._seq = 0
        self.records: List[FlowRecord] = []

    # --- flow submission ---------------------------------------------------

    def _path_to_links(self, plane_path: PlanePath) -> Tuple[List[int], float, float]:
        """(link ids, rtt estimate, line rate) for one tagged path."""
        plane_idx, path = plane_path
        links = []
        rtt = 0.0
        line_rate = math.inf
        for u, v in zip(path, path[1:]):
            try:
                idx = self._link_index[(plane_idx, u, v)]
            except KeyError:
                raise ValueError(
                    f"{u}->{v} is not a live link of plane {plane_idx}"
                ) from None
            if (plane_idx, u, v) in self._dead:
                raise ValueError(
                    f"{u}->{v} is not a live link of plane {plane_idx}"
                )
            links.append(idx)
            cap = self._capacities[idx]
            line_rate = min(line_rate, cap)
            # Round trip: data MTU one way, 40B ACK back, plus both
            # propagation legs.
            rtt += 2 * self._propagations[idx]
            rtt += MTU * 8 / cap + 40 * 8 / cap
        return links, rtt, line_rate

    def add_flow(self, spec: FlowSpec) -> int:
        """Schedule a flow described by a :class:`FlowSpec`::

            sim.add_flow(FlowSpec(src="h0", dst="h1", size=1e6,
                                  paths=paths))

        Returns the flow id.  ``spec.on_complete`` fires (during
        :meth:`run`) when the last byte is delivered, and may call
        :meth:`add_flow` again for closed-loop workloads.
        ``spec.transport`` is ignored (the fluid model has no transport
        knob).
        """
        check_flow_spec(spec)
        return self._submit(spec)

    def _submit(self, spec: FlowSpec) -> int:
        start = self.now if spec.at is None else float(spec.at)
        if start < self.now - _EPS:
            raise ValueError(
                f"cannot schedule in the past ({start} < {self.now})"
            )
        subflows = []
        for plane_path in spec.paths:
            links, rtt, line_rate = self._path_to_links(plane_path)
            if not links:
                raise ValueError("subflow path must traverse at least one link")
            subflows.append(_Subflow(links, rtt, line_rate))
        flow_id = self._next_id
        self._next_id += 1
        flow = _Flow(flow_id, spec.src, spec.dst, float(spec.size), start,
                     subflows, spec.on_complete, spec.tag, spec.planes,
                     paths=spec.paths)
        heapq.heappush(self._arrivals, (start, self._seq, flow))
        self._seq += 1
        return flow_id

    # --- control-plane hooks ------------------------------------------------

    def schedule(self, at: float, fn: Callable[[], None]) -> None:
        """Run a callback at simulated time ``at`` (for controllers).

        Callbacks run between rate recomputations and may add flows,
        migrate flows, or re-schedule themselves (periodic controllers).
        """
        if at < self.now - _EPS:
            raise ValueError(f"cannot schedule in the past ({at} < {self.now})")
        heapq.heappush(self._timers, (at, self._seq, fn))
        self._seq += 1

    def active_flows(self) -> List[Tuple[int, str, str, float]]:
        """(flow_id, src, dst, current total rate) of in-flight flows."""
        return [
            (f.flow_id, f.src, f.dst, f.rate) for f in self._active
        ]

    def active_flow_paths(self) -> List[Tuple[int, str, str, List[PlanePath]]]:
        """(flow_id, src, dst, subflow paths) of in-flight flows.

        The path view fault injection needs: which flows traverse a
        just-failed element (and must be migrated or aborted).
        """
        return [
            (f.flow_id, f.src, f.dst, list(f.paths)) for f in self._active
        ]

    def active_subflow_views(self):
        """(flow_id, src, dst, size, paths, per-subflow rates) of
        in-flight flows -- the control plane's sampling hook."""
        return [
            (
                f.flow_id, f.src, f.dst, f.size, list(f.paths),
                [sf.rate for sf in f.subflows],
            )
            for f in self._active
        ]

    def aggregate_rate(self) -> float:
        """Total delivery rate of all active flows, bits/s."""
        return sum(f.rate for f in self._active)

    @property
    def delivered_bytes(self) -> float:
        """Bytes delivered so far: completed flows plus in-flight progress."""
        total = sum(r.size for r in self.records)
        total += sum(f.delivered for f in self._active) / 8.0
        return float(total)

    def flow_rate(self, flow_id: int) -> Optional[float]:
        for flow in self._active:
            if flow.flow_id == flow_id:
                return flow.rate
        return None

    def link_usage(self, exclude_flow: Optional[int] = None) -> "np.ndarray":
        """Current per-directed-link bits/s committed by active subflows.

        Args:
            exclude_flow: leave this flow's own usage out -- the view an
                end host takes when deciding whether *its* flow would be
                better off elsewhere (its own traffic moves with it).
        """
        usage = np.zeros(len(self._capacities))
        for flow in self._active:
            if flow.flow_id == exclude_flow:
                continue
            for sf in flow.subflows:
                for idx in sf.links:
                    usage[idx] += sf.rate
        return usage

    def path_available_bandwidth(
        self, plane_path: PlanePath, exclude_flow: Optional[int] = None
    ) -> float:
        """Bottleneck headroom along a path at current rates."""
        links, __, __ = self._path_to_links(plane_path)
        usage = self.link_usage(exclude_flow=exclude_flow)
        return float(
            min(self._capacities[idx] - usage[idx] for idx in links)
        )

    def migrate_flow(
        self, flow_id: int, paths: Sequence[PlanePath]
    ) -> bool:
        """Re-route an active flow onto new subflow paths.

        Delivered bytes are preserved; the new subflows restart their
        slow-start ramp (a real path migration re-probes).  Returns False
        if the flow is no longer active.
        """
        if not paths:
            raise ValueError("need at least one path")
        for flow in self._active:
            if flow.flow_id == flow_id:
                old_rate = flow.rate
                subflows = []
                for plane_path in paths:
                    links, rtt, line_rate = self._path_to_links(plane_path)
                    if not links:
                        raise ValueError("path must traverse a link")
                    subflows.append(_Subflow(links, rtt, line_rate))
                # Carry the previous rate over as a provisional estimate
                # so that same-instant observers (e.g. other hosts'
                # adaptive routers) see the moved traffic before the next
                # recomputation -- otherwise two hosts migrating in the
                # same control epoch pile onto the same "empty" path.
                for sf in subflows:
                    sf.rate = old_rate / len(subflows)
                flow.subflows = subflows
                flow.paths = list(paths)
                flow.planes = tuple(plane for plane, __ in paths)
                flow.min_rtt = min(sf.rtt for sf in subflows)
                self._start_ramp(flow)
                self._rates_current = False
                return True
        return False

    def abort_flow(self, flow_id: int) -> bool:
        """Drop an active flow without completing it (no record).

        Fault injection's last resort when a flow's endpoints are fully
        partitioned: a stalled zero-rate flow would otherwise deadlock
        the engine.  Returns False if the flow is not active.
        """
        for flow in self._active:
            if flow.flow_id == flow_id:
                self._active.remove(flow)
                self._rates_current = False
                return True
        return False

    # --- mid-run failures ---------------------------------------------------

    def fail_link(self, plane_idx: int, u: str, v: str) -> None:
        """Cut a link during the simulation (both directions).

        The topology is marked failed, the directed capacities drop to
        zero (max-min pins subflows crossing them at rate 0), and new
        subflows over the link are rejected.  Callers must migrate or
        abort the affected flows -- :class:`repro.faults.FaultInjector`
        does both -- or the engine will report a stall once no other
        event is pending.
        """
        self._plane_of(plane_idx).fail_link(u, v)
        self._rates_current = False
        for a, b in ((u, v), (v, u)):
            idx = self._link_index.get((plane_idx, a, b))
            if idx is not None:
                self._capacities[idx] = 0.0
                self._dead.add((plane_idx, a, b))

    def _plane_of(self, plane_idx: int) -> Topology:
        """The plane topology for a plane index."""
        if not 0 <= plane_idx < len(self.planes):
            raise ValueError(
                f"plane {plane_idx} is not simulated here "
                f"(have 0..{len(self.planes) - 1})"
            )
        return self.planes[plane_idx]

    def restore_link(self, plane_idx: int, u: str, v: str) -> None:
        """Undo :meth:`fail_link`: capacity returns, new subflows accepted."""
        plane = self._plane_of(plane_idx)
        plane.restore_link(u, v)
        capacity = plane.link(u, v).capacity
        self._rates_current = False
        for a, b in ((u, v), (v, u)):
            idx = self._link_index.get((plane_idx, a, b))
            if idx is not None:
                self._capacities[idx] = capacity
                self._dead.discard((plane_idx, a, b))

    # --- engine --------------------------------------------------------------

    def _start_ramp(self, flow: _Flow) -> None:
        if not self.slow_start:
            return
        for sf in flow.subflows:
            initial = self.initial_window * self.mss * 8 / sf.rtt
            if initial >= sf.line_rate:
                sf.cap = math.inf
                sf.next_double = math.inf
            else:
                sf.cap = initial
                sf.next_double = self.now + sf.rtt

    def _activate(self, flow: _Flow) -> None:
        self._start_ramp(flow)
        self._active.append(flow)
        self._rates_current = False
        if len(self._active) > self.max_active_flows:
            self.max_active_flows = len(self._active)

    def _recompute_rates(self, count: bool = True) -> None:
        """Bring every active subflow's rate up to date.

        ``count`` adds one to ``rate_recomputations`` whether the rates
        are solved or reused.
        """
        if not self._active:
            return
        if count:
            self.rate_recomputations += 1
        if self._rates_current:
            return
        subflows: List[_Subflow] = [
            sf for flow in self._active for sf in flow.subflows
        ]
        rates = max_min_rates(
            self._capacities,
            [sf.links for sf in subflows],
            [sf.cap for sf in subflows],
        )
        for sf, rate in zip(subflows, rates):
            sf.rate = float(rate)
        self._rates_current = True

    def _next_event_time(self) -> Optional[float]:
        candidates: List[float] = []
        if self._arrivals:
            candidates.append(self._arrivals[0][0])
        if self._timers:
            candidates.append(self._timers[0][0])
        for flow in self._active:
            rate = flow.rate
            if rate > 0:
                remaining = flow.size_bits - flow.delivered
                candidates.append(self.now + max(remaining, 0.0) / rate)
            for sf in flow.subflows:
                if math.isfinite(sf.next_double):
                    candidates.append(sf.next_double)
        return min(candidates) if candidates else None

    def peek_next_event_time(self) -> Optional[float]:
        """When the next event boundary falls, without advancing anything.

        Returns ``None`` when the engine is fully drained, the current
        clock when admissions/callbacks are already due, ``math.inf``
        when active flows are stalled (a subsequent :meth:`run` raises),
        and the boundary time otherwise.  The co-simulation layer
        (:mod:`repro.hybrid`) uses this to advance the packet engine up
        to each fluid boundary before stepping across it.

        The peek is pure with respect to the simulated trajectory: the
        rate recomputation it performs writes the exact values the next
        :meth:`run` step would (max-min rates are a deterministic
        function of the active set), and that step reuses its solve
        instead of solving again.  It is left out of the
        ``rate_recomputations`` counter so stepped runs stay
        telemetry-identical to uninterrupted ones.
        """
        if not (self._active or self._arrivals or self._timers):
            return None
        due = self.now + _EPS
        heads: List[float] = []
        if self._arrivals:
            heads.append(self._arrivals[0][0])
        if self._timers:
            heads.append(self._timers[0][0])
        if heads and min(heads) <= due:
            return self.now
        if not self._active:
            return min(heads)
        self._recompute_rates(count=False)
        t_next = self._next_event_time()
        if t_next is None or not math.isfinite(t_next):
            return math.inf
        return t_next

    def _complete(self, flow: _Flow) -> None:
        record = FlowRecord(
            flow_id=flow.flow_id,
            src=flow.src,
            dst=flow.dst,
            size=flow.size,
            arrival=flow.arrival,
            # Fluid delivery time plus last-byte propagation.
            completion=self.now + flow.min_rtt / 2,
            n_subflows=len(flow.subflows),
            tag=flow.tag,
            planes=tuple(flow.planes),
        )
        self.records.append(record)
        if self.obs.enabled:
            self.obs.trace(
                "fluid.flow.complete", record.completion,
                flow_id=record.flow_id, src=record.src, dst=record.dst,
                size=record.size, fct=record.fct,
                planes=list(record.planes),
            )
        if flow.on_complete is not None:
            flow.on_complete(record)

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
        stop_after: Optional[float] = None,
    ) -> List[FlowRecord]:
        """Run to completion (or ``until``); returns all flow records.

        ``stop_after`` pauses the engine at the first *event boundary* at
        or past that time, without the horizon crediting ``until``
        performs.  That keeps the paused state a pure event-boundary
        state: resuming with a later ``run()`` call replays the exact
        floating-point trajectory of an uninterrupted run, which is what
        :mod:`repro.ckpt` snapshots rely on (crediting partial intervals
        at an arbitrary cut point would perturb downstream completion
        times by ulps).  Use ``until`` for the final segment, where the
        horizon-exact ``delivered_bytes`` semantics matter.

        Like the packet event loop, the clock never runs backwards: an
        ``until`` earlier than :attr:`now` returns at once with the state
        untouched.
        """
        if until is not None and until < self.now:
            return self.records
        events = 0
        recomputes_before = self.rate_recomputations
        timing = self.obs.enabled
        t0 = time.perf_counter() if timing else 0.0
        while self._active or self._arrivals or self._timers:
            if stop_after is not None and self.now >= stop_after:
                break
            events += 1
            if events > max_events:
                raise RuntimeError(f"exceeded {max_events} events")

            # Admit arrivals and fire control callbacks due now before
            # computing rates.
            while self._arrivals and self._arrivals[0][0] <= self.now + _EPS:
                __, __, flow = heapq.heappop(self._arrivals)
                self._activate(flow)
            while self._timers and self._timers[0][0] <= self.now + _EPS:
                __, __, fn = heapq.heappop(self._timers)
                fn()
            if not self._active:
                if not self._arrivals and not self._timers:
                    break
                # Jump to the next scheduled thing.
                pending = []
                if self._arrivals:
                    pending.append(self._arrivals[0][0])
                if self._timers:
                    pending.append(self._timers[0][0])
                target = min(pending)
                if until is not None and target > until:
                    self.now = until
                    break
                self.now = target
                continue

            self._recompute_rates()
            t_next = self._next_event_time()
            if t_next is None or not math.isfinite(t_next):
                raise RuntimeError(
                    "simulation stalled: active flows with zero rate "
                    "and no pending events"
                )
            if until is not None and t_next > until:
                # Credit in-flight progress up to the horizon before
                # stopping, so delivered_bytes is exact at ``until``.
                dt = max(until - self.now, 0.0)
                for flow in self._active:
                    flow.delivered += flow.rate * dt
                self.now = until
                break
            dt = max(t_next - self.now, 0.0)

            for flow in self._active:
                flow.delivered += flow.rate * dt
            self.now = t_next

            # Completions (iterate over a copy: callbacks may add flows).
            finished = [
                f
                for f in self._active
                if f.delivered >= f.size_bits * (1 - _EPS) - _EPS
            ]
            if finished:
                self._active = [f for f in self._active if f not in finished]
                self._rates_current = False
                for flow in finished:
                    self._complete(flow)

            # Slow-start cap doublings due now.  Only a subflow frozen at
            # its cap moves the solve: one frozen below it had
            # ``cap > s + eps`` in every filling round it took part in,
            # so a larger cap changes no round.
            for flow in self._active:
                for sf in flow.subflows:
                    while sf.next_double <= self.now + _EPS:
                        if sf.rate >= sf.cap:
                            self._rates_current = False
                        sf.cap *= 2
                        if sf.cap >= sf.line_rate:
                            sf.cap = math.inf
                            sf.next_double = math.inf
                        else:
                            sf.next_double += sf.rtt
        self.events_processed += events
        if timing:
            obs = self.obs
            obs.counter("fluid.events").inc(events)
            obs.counter("fluid.rate_recomputations").inc(
                self.rate_recomputations - recomputes_before
            )
            obs.gauge("fluid.max_active_flows").max(self.max_active_flows)
            obs.histogram("fluid.run_seconds", wallclock=True).observe(
                time.perf_counter() - t0
            )
        return self.records
