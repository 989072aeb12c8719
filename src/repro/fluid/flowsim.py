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

State layout.  The active flows' state lives in numpy arrays, in
activation order, and nowhere else: per subflow its rate, cap, next
cap doubling, RTT and line rate; per flow its delivered bits, size and
rate; and the flat (subflow, link) incidence the max-min solve reads as
it is (:class:`~repro.fluid.maxmin.Incidence`).  ``_Flow`` keeps only
what never changes.  An arrival appends rows, a completion or abort
compacts them in order, and a migration replaces the flow's rows in
place, so subflows always reach the solve in the order they arrived.

An event step is then a few vector operations: the next event time is
one min over completion and doubling times, and crediting delivered
bits, finding completions and doubling caps are one operation each.
Every float is the one a loop over per-flow objects computes (the
list-based engine in ``tests/fluid_reference.py``): a flow's rate adds
its subflow rates left to right from 0.0, ``link_usage`` adds each
link's subflow rates in activation order, and event times keep the
Python type that engine gave them (see :meth:`FluidSimulator._next_event_time`).
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.analysis.stats import left_sum
from repro.core.flowspec import FlowSpec, check_flow_spec
from repro.core.pnet import PlanePath
from repro.fluid.maxmin import Incidence, max_min_rates
from repro.obs import get_registry
from repro.topology.graph import Topology
from repro.units import MSS, MTU

#: Relative tolerance for byte/rate comparisons.
_EPS = 1e-9


@dataclass
class FlowRecord:
    """Result of one completed flow."""

    fidelity: ClassVar[str] = "fluid"

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
    """A subflow's fixed route: its directed link ids, RTT and line rate."""

    __slots__ = ("links", "rtt", "line_rate")

    def __init__(self, links: List[int], rtt: float, line_rate: float):
        self.links = links
        self.rtt = rtt
        self.line_rate = line_rate


class _Flow:
    """What never changes about a submitted flow.

    Once the flow is active, its evolving state -- delivered bits, rates,
    caps, doubling times -- lives in the simulator's arrays.  A migration
    replaces the object (:meth:`moved`).
    """

    __slots__ = (
        "flow_id", "src", "dst", "size", "arrival", "subflows",
        "on_complete", "tag", "min_rtt", "planes", "paths",
    )

    def __init__(self, flow_id, src, dst, size, arrival, subflows,
                 on_complete, tag, planes=(), paths=()):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.arrival = arrival
        self.subflows = subflows
        self.on_complete = on_complete
        self.tag = tag
        self.planes = planes
        self.paths = list(paths)
        self.min_rtt = min(sf.rtt for sf in subflows)

    def moved(self, subflows: List[_Subflow], paths) -> "_Flow":
        """This flow on new subflows over ``paths``."""
        return _Flow(
            self.flow_id, self.src, self.dst, self.size, self.arrival,
            subflows, self.on_complete, self.tag,
            planes=tuple(plane for plane, __ in paths), paths=paths,
        )


def _splice(array: np.ndarray, start: int, stop: int, rows) -> np.ndarray:
    """``array`` with ``array[start:stop]`` replaced by ``rows``."""
    return np.concatenate((array[:start], rows, array[stop:]))


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

    #: The engine's name in :func:`repro.api.build_network`.
    kind: ClassVar[str] = "fluid"

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
        #: The active flows in activation order, and their state in
        #: arrays in the same order (see the module docstring).
        self._active: List[_Flow] = []
        self._delivered = np.zeros(0)  # bits
        #: Whether the per-object engine held a flow's delivered bits as
        #: a ``np.float64`` (see :meth:`_next_event_time`).
        self._delivered_np64 = np.zeros(0, bool)
        self._size_bits = np.zeros(0)
        self._flow_rate = np.zeros(0)
        self._n_sub = np.zeros(0, np.intp)
        self._rate = np.zeros(0)
        self._cap = np.zeros(0)
        self._next_double = np.zeros(0)
        self._rtt = np.zeros(0)
        self._line_rate = np.zeros(0)
        self._incidence = Incidence(np.zeros(0, np.intp), np.zeros(0, np.intp))
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
    # ``now``, ``schedule`` and ``has_pending`` are the clock all three
    # engines share with control, fault injection and checkpoints.

    def schedule(self, at: float, fn: Callable[[], None]) -> None:
        """Run a callback at simulated time ``at`` (for controllers).

        Callbacks run between rate recomputations and may add flows,
        migrate flows, or re-schedule themselves (periodic controllers).
        """
        if at < self.now - _EPS:
            raise ValueError(f"cannot schedule in the past ({at} < {self.now})")
        heapq.heappush(self._timers, (at, self._seq, fn))
        self._seq += 1

    def has_pending(self) -> bool:
        """Whether any flow, arrival or timer is left."""
        return bool(self._active or self._arrivals or self._timers)

    def active_flow_paths(self) -> List[Tuple[int, str, str, List[PlanePath]]]:
        """(flow_id, src, dst, subflow paths) of in-flight flows.

        The path view fault injection needs: which flows traverse a
        just-failed element (and must be migrated or aborted).
        """
        return [
            (f.flow_id, f.src, f.dst, list(f.paths)) for f in self._active
        ]

    def control_rows(self, gid_of: Optional[Callable[[int], Any]] = None):
        """The control loop's snapshot: ``(None, rows)``.

        One ``"rate"`` row per in-flight flow with its subflows' current
        rates (see :mod:`repro.control.monitor`); the fluid model has no
        plane counters.  ``gid_of`` maps flow ids to the caller's ids.
        """
        rates = self._rate.tolist()
        rows = []
        start = 0
        for f in self._active:
            stop = start + len(f.subflows)
            rows.append({
                "gid": f.flow_id if gid_of is None else gid_of(f.flow_id),
                "src": f.src,
                "dst": f.dst,
                "size": f.size,
                "paths": list(f.paths),
                "transport": "tcp",
                "tag": None,
                "rate": rates[start:stop],
            })
            start = stop
        return None, rows

    def queue_stats(self) -> Dict[str, Tuple[int, int]]:
        """Per-queue counters: none, the fluid model has no queues."""
        return {}

    def aggregate_rate(self) -> float:
        """Total delivery rate of all active flows, bits/s."""
        return left_sum(self._flow_rate.tolist())

    @property
    def delivered_bytes(self) -> float:
        """Bytes delivered so far: completed flows plus in-flight progress."""
        total = left_sum(r.size for r in self.records)
        total += left_sum(self._delivered.tolist()) / 8.0
        return float(total)

    def _position(self, flow_id: int) -> Optional[int]:
        """Where an active flow sits in activation order (None if gone)."""
        for pos, flow in enumerate(self._active):
            if flow.flow_id == flow_id:
                return pos
        return None

    def _rows(self, pos: int) -> Tuple[int, int]:
        """The subflow rows ``start, stop`` of the active flow at ``pos``."""
        start = int(self._n_sub[:pos].sum())
        return start, start + int(self._n_sub[pos])

    def link_usage(self) -> "np.ndarray":
        """Current per-directed-link bits/s committed by active subflows.

        Each link adds its subflows' rates one at a time, in activation
        order, starting from 0.0.
        """
        incidence = self._incidence
        if not incidence.links.size:
            # A bincount of nothing comes back as integers.
            return np.zeros(len(self._capacities))
        return np.bincount(
            incidence.links, weights=self._rate[incidence.flows],
            minlength=len(self._capacities),
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
        pos = self._position(flow_id)
        if pos is None:
            return False
        subflows = []
        for plane_path in paths:
            links, rtt, line_rate = self._path_to_links(plane_path)
            if not links:
                raise ValueError("path must traverse a link")
            subflows.append(_Subflow(links, rtt, line_rate))
        # Carry the previous rate over as a provisional estimate so that
        # same-instant observers (fault reactions, a later decision of
        # the same control tick) see the moved traffic before the next
        # recomputation -- otherwise two flows moved in the same tick
        # pile onto the same "empty" path.
        share = float(self._flow_rate[pos]) / len(subflows)
        start, stop = self._rows(pos)
        self._set_subflows(start, stop, subflows, share)
        self._active[pos] = self._active[pos].moved(subflows, paths)
        self._n_sub[pos] = len(subflows)
        self._flow_rate[pos] = left_sum([share] * len(subflows))
        self._rates_current = False
        return True

    def resteer(
        self, flow_id: int, paths: Sequence[PlanePath]
    ) -> Optional[int]:
        """Move a live flow onto ``paths`` in place (:meth:`migrate_flow`).

        Returns the same flow id, or None when the flow is gone.
        """
        return flow_id if self.migrate_flow(flow_id, paths) else None

    def abort_flow(self, flow_id: int) -> bool:
        """Drop an active flow without completing it (no record).

        Fault injection's last resort when a flow's endpoints are fully
        partitioned: a stalled zero-rate flow would otherwise deadlock
        the engine.  Returns False if the flow is not active.
        """
        pos = self._position(flow_id)
        if pos is None:
            return False
        keep = np.ones(len(self._active), bool)
        keep[pos] = False
        self._keep(keep)
        self._rates_current = False
        return True

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

    def _set_subflows(
        self, start: int, stop: int, subflows: List[_Subflow], rate: float
    ) -> None:
        """Replace subflow rows ``start:stop`` by fresh ``subflows``.

        Each new subflow runs at ``rate`` and starts its slow-start ramp
        now; its links replace the old rows' links in the incidence.
        """
        rtt = np.array([sf.rtt for sf in subflows])
        line_rate = np.array([sf.line_rate for sf in subflows])
        cap = np.full(len(subflows), math.inf)
        next_double = cap.copy()
        if self.slow_start:
            initial = self.initial_window * self.mss * 8 / rtt
            ramp = initial < line_rate
            cap[ramp] = initial[ramp]
            next_double[ramp] = self.now + rtt[ramp]
        for name, rows in (
            ("_rate", np.full(len(subflows), rate)),
            ("_cap", cap),
            ("_next_double", next_double),
            ("_rtt", rtt),
            ("_line_rate", line_rate),
        ):
            setattr(self, name, _splice(getattr(self, name), start, stop, rows))
        old = self._incidence
        first = int(old.lengths[:start].sum())
        last = first + int(old.lengths[start:stop].sum())
        links = [i for sf in subflows for i in sf.links]
        lengths = [len(sf.links) for sf in subflows]
        self._incidence = Incidence(
            _splice(old.links, first, last, np.array(links, np.intp)),
            _splice(old.lengths, start, stop, np.array(lengths, np.intp)),
        )

    def _activate(self, flow: _Flow) -> None:
        end = len(self._rate)
        self._set_subflows(end, end, flow.subflows, 0.0)
        self._active.append(flow)
        for name, value in (
            ("_delivered", 0.0),
            ("_delivered_np64", False),
            ("_size_bits", flow.size * 8.0),
            ("_flow_rate", 0.0),
            ("_n_sub", len(flow.subflows)),
        ):
            setattr(self, name, np.append(getattr(self, name), value))
        self._rates_current = False
        if len(self._active) > self.max_active_flows:
            self.max_active_flows = len(self._active)

    def _keep(self, keep: np.ndarray) -> None:
        """Drop the active flows where ``keep`` is False, keeping order."""
        rows = np.repeat(keep, self._n_sub)
        self._active = [f for f, kept in zip(self._active, keep) if kept]
        for name in (
            "_delivered", "_delivered_np64", "_size_bits", "_flow_rate",
            "_n_sub",
        ):
            setattr(self, name, getattr(self, name)[keep])
        for name in ("_rate", "_cap", "_next_double", "_rtt", "_line_rate"):
            setattr(self, name, getattr(self, name)[rows])
        old = self._incidence
        self._incidence = Incidence(
            old.links[rows[old.flows]], old.lengths[rows]
        )

    def _per_flow_sums(self, values: np.ndarray) -> np.ndarray:
        """Each flow's subflow ``values`` added left to right from 0.0."""
        n_sub = self._n_sub
        sums = np.zeros(len(n_sub))
        first = np.cumsum(n_sub) - n_sub
        for j in range(int(n_sub.max(initial=0))):
            has = n_sub > j
            sums[has] += values[first[has] + j]
        return sums

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
        self._rate = max_min_rates(
            self._capacities, self._incidence, self._cap
        )
        self._flow_rate = self._per_flow_sums(self._rate)
        self._rates_current = True

    def _next_event_time(self) -> Optional[float]:
        """The next event boundary: the earliest pending arrival or timer,
        flow completion or cap doubling (None when there is none).

        The time is one vector min.  Its type is the type of the first
        candidate at that time in the order arrival, timer, then per
        flow its completion and its subflows' doublings, because
        records and callbacks see :attr:`now` as that object.  Arrival
        and timer times keep their own type.  A doubling time is a
        ``np.float64`` (RTTs derive from the capacity array), and so is
        a completion time unless :attr:`now` is a Python float and the
        flow's delivered bits are one too (or exceed its size).
        """
        heads = []
        if self._arrivals:
            heads.append(self._arrivals[0][0])
        if self._timers:
            heads.append(self._timers[0][0])
        rate = self._flow_rate
        sending = rate > 0
        remaining = self._size_bits - self._delivered
        done = np.full(len(rate), math.inf)
        done[sending] = (
            self.now + np.maximum(remaining[sending], 0.0) / rate[sending]
        )
        t = min(done.min(initial=math.inf),
                self._next_double.min(initial=math.inf))
        if heads:
            head = min(heads)
            if head <= t:
                return head
        if not math.isfinite(t):
            return None
        if isinstance(self.now, np.floating):
            return np.float64(t)
        hit = done == t
        doubling = np.zeros(len(rate), bool)
        doubling[np.repeat(np.arange(len(rate)), self._n_sub)[
            self._next_double == t
        ]] = True
        first = int((hit | doubling).argmax())
        if hit[first] and not (
            self._delivered_np64[first] and remaining[first] >= 0
        ):
            return float(t)
        return np.float64(t)

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
        if not self.has_pending():
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

    def _credit(self, dt) -> None:
        """Deliver ``dt`` seconds at the current rates to every flow."""
        self._delivered += self._flow_rate * dt
        if isinstance(dt, np.floating):
            # In the per-object engine a np.float64 step made every
            # flow's delivered bits a np.float64 for good.
            self._delivered_np64[:] = True

    def _double_caps(self) -> None:
        """Slow-start cap doublings due now.

        Only a subflow frozen at its cap moves the solve: one frozen
        below it had ``cap > s + eps`` in every filling round it took
        part in, so a larger cap changes no round.
        """
        cap = self._cap
        next_double = self._next_double
        due = (next_double <= self.now + _EPS).nonzero()[0]
        while due.size:
            if np.any(self._rate[due] >= cap[due]):
                self._rates_current = False
            cap[due] *= 2
            full = cap[due] >= self._line_rate[due]
            cap[due[full]] = math.inf
            next_double[due[full]] = math.inf
            due = due[~full]
            next_double[due] += self._rtt[due]
            due = due[next_double[due] <= self.now + _EPS]

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
        until: Optional[float] = math.inf,
        max_events: int = 10_000_000,
        stop_after: Optional[float] = None,
    ) -> List[FlowRecord]:
        """Run to completion (or ``until``); returns all flow records.

        ``until=None`` is the same as ``math.inf``.

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
        while self.has_pending():
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
                self._credit(max(until - self.now, 0.0))
                self.now = until
                break
            self._credit(max(t_next - self.now, 0.0))
            self.now = t_next

            finished = self._delivered >= self._size_bits * (1 - _EPS) - _EPS
            if finished.any():
                # Callbacks may add, migrate or abort flows: they see
                # the active set without every flow finished now.
                done = [self._active[i] for i in finished.nonzero()[0]]
                self._keep(~finished)
                self._rates_current = False
                for flow in done:
                    self._complete(flow)
            self._double_caps()
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
