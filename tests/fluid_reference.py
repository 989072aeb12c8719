"""The list-based fluid engine and bridge, kept as a test reference.

:class:`ListFluidSimulator` is the fluid engine as it was before its
state moved into numpy arrays: every active flow is a Python object
holding its subflows, and each event walks them in Python.
:class:`ListBridge` is the bridge refresh that walked every queue.
``tests/test_fluid_arrays_differential.py`` runs both against the array
engine.

Flow rates, ``aggregate_rate`` and ``delivered_bytes`` add left to right
from 0.0, which is what ``sum`` computed here on Python 3.9 to 3.11;
from 3.12 ``sum`` compensates rounding error.  Everything else is the
old code.  Methods the array engine left unchanged (path lookup,
submission checks, timers, link failure, the peek) are inherited, so
the reference is also a :class:`FluidSimulator` for the control plane,
fault injection and the hybrid engine.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.stats import left_sum
from repro.core.flowspec import FlowSpec
from repro.core.pnet import PlanePath
from repro.fluid.flowsim import _EPS, FlowRecord, FluidSimulator
from repro.fluid.maxmin import max_min_rates
from repro.hybrid.bridge import BackgroundLoadBridge


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
        return left_sum(sf.rate for sf in self.subflows)


class ListFluidSimulator(FluidSimulator):
    """The fluid engine with its active state in Python objects."""

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

    def control_rows(self, gid_of=None):
        return None, [
            {
                "gid": f.flow_id if gid_of is None else gid_of(f.flow_id),
                "src": f.src,
                "dst": f.dst,
                "size": f.size,
                "paths": list(f.paths),
                "transport": "tcp",
                "tag": None,
                "rate": [float(sf.rate) for sf in f.subflows],
            }
            for f in self._active
        ]

    def aggregate_rate(self) -> float:
        return left_sum(f.rate for f in self._active)

    @property
    def delivered_bytes(self) -> float:
        total = left_sum(r.size for r in self.records)
        total += left_sum(f.delivered for f in self._active) / 8.0
        return float(total)

    def flow_rate(self, flow_id: int) -> Optional[float]:
        for flow in self._active:
            if flow.flow_id == flow_id:
                return flow.rate
        return None

    def link_usage(self, exclude_flow: Optional[int] = None) -> "np.ndarray":
        usage = np.zeros(len(self._capacities))
        for flow in self._active:
            if flow.flow_id == exclude_flow:
                continue
            for sf in flow.subflows:
                for idx in sf.links:
                    usage[idx] += sf.rate
        return usage

    def migrate_flow(
        self, flow_id: int, paths: Sequence[PlanePath]
    ) -> bool:
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
        for flow in self._active:
            if flow.flow_id == flow_id:
                self._active.remove(flow)
                self._rates_current = False
                return True
        return False

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

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
        stop_after: Optional[float] = None,
    ) -> List[FlowRecord]:
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

            while self._arrivals and self._arrivals[0][0] <= self.now + _EPS:
                __, __, flow = heapq.heappop(self._arrivals)
                self._activate(flow)
            while self._timers and self._timers[0][0] <= self.now + _EPS:
                __, __, fn = heapq.heappop(self._timers)
                fn()
            if not self._active:
                if not self._arrivals and not self._timers:
                    break
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
                dt = max(until - self.now, 0.0)
                for flow in self._active:
                    flow.delivered += flow.rate * dt
                self.now = until
                break
            dt = max(t_next - self.now, 0.0)

            for flow in self._active:
                flow.delivered += flow.rate * dt
            self.now = t_next

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


class ListBridge(BackgroundLoadBridge):
    """The bridge refresh that walked every instantiated queue."""

    def __init__(self, fluid, packet, floor: float = 0.01, obs=None):
        super().__init__(fluid, packet, floor=floor, obs=obs)
        self._base = {}

    def refresh(self) -> int:
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
