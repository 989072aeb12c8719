"""Assemble a packet-level simulation from topologies and launch flows.

:class:`PacketNetwork` lazily instantiates one drop-tail
:class:`~repro.sim.link.Queue` (serialisation plus propagation delay)
for every directed link a flow actually crosses, wires TCP/MPTCP sources
and sinks onto source routes of those queues, and records per-flow
results.

Telemetry: pass a :class:`repro.obs.Registry` as ``obs`` (or install a
process default via :func:`repro.obs.set_registry`) and the network
publishes per-plane flow counters at completion time and per-plane
queue counters after every :meth:`run`; with a tracer attached, queue
drops/ECN marks, TCP congestion events, and flow completions are traced
with simulated timestamps.  With the default disabled registry the
simulation's hot paths are untouched.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import (
    Any, Callable, ClassVar, Dict, List, Optional, Sequence, Tuple,
)

from repro.core.flowspec import FlowSpec, check_flow_spec
from repro.core.pnet import PlanePath
from repro.obs import get_registry
from repro.sim.events import EventLoop
from repro.sim.link import Queue
from repro.sim.mptcp import MptcpSource
from repro.sim.tcp import TcpSink, TcpSource
from repro.topology.graph import Topology
from repro.units import DEFAULT_MIN_RTO, DEFAULT_QUEUE_PACKETS, MSS


@dataclass
class SimFlowRecord:
    """Result of one packet-simulated flow."""

    fidelity: ClassVar[str] = "packet"

    flow_id: int
    src: str
    dst: str
    size: int
    start: float
    finish: float
    n_subflows: int
    retransmits: int
    packets_sent: int
    tag: Optional[str] = None
    #: Planes the flow's subflows used, in subflow order (one entry per
    #: subflow, so per-plane accounting can split bytes exactly).
    planes: Tuple[int, ...] = field(default=())

    @property
    def fct(self) -> float:
        return self.finish - self.start


@dataclass
class _Moved:
    """What a moved flow's earlier legs leave to its one record."""

    size: float
    start: float
    acked: int = 0
    retransmits: int = 0
    packets_sent: int = 0


class PacketNetwork:
    """Packet simulation over one or more dataplanes.

    Args:
        planes: dataplanes (single element for a serial network).
        queue_packets: per-port output buffer in packets.
        mss: TCP segment payload size.
        min_rto: minimum retransmission timeout (paper: 10 ms).
        obs: telemetry registry; defaults to the process-wide registry
            from :func:`repro.obs.get_registry` (a no-op unless the
            caller attached one).
    """

    #: The engine's name in :func:`repro.api.build_network`.
    kind: ClassVar[str] = "packet"

    def __init__(
        self,
        planes: Sequence[Topology],
        queue_packets: int = DEFAULT_QUEUE_PACKETS,
        mss: int = MSS,
        min_rto: float = DEFAULT_MIN_RTO,
        ecn_threshold: Optional[int] = None,
        loop: Optional[EventLoop] = None,
        obs=None,
    ):
        if not planes:
            raise ValueError("need at least one plane")
        self.planes = list(planes)
        self.queue_packets = queue_packets
        self.mss = mss
        self.min_rto = min_rto
        self.ecn_threshold = ecn_threshold
        self.obs = obs if obs is not None else get_registry()
        self._tracer = self.obs.tracer if self.obs.enabled else None
        self.loop = loop if loop is not None else EventLoop(
            obs=self.obs if self.obs.enabled else None
        )
        self._elements: Dict[Tuple[int, str, str], Queue] = {}
        # Plain int (not itertools.count) so the network pickles for
        # checkpointing with its id sequence intact.
        self._next_flow_id = 0
        self.records: List[SimFlowRecord] = []
        #: In-flight flows by id -- (source, spec of the current leg) --
        #: so fault injection can find flows pinned to a failed element
        #: and resteer them.
        self._active: Dict[int, Tuple[object, FlowSpec]] = {}
        #: Live flows that :meth:`resteer` moved, by id: their submitted
        #: size, first start and earlier legs' counters.
        self._moved: Dict[int, _Moved] = {}
        #: Bytes that were ACKed on flows later aborted.
        self._aborted_acked = 0.0

    # --- element plumbing ------------------------------------------------

    def _queue(self, plane_idx: int, u: str, v: str) -> Queue:
        key = (plane_idx, u, v)
        queue = self._elements.get(key)
        if queue is None:
            plane = self.planes[plane_idx]
            if not plane.has_link(u, v) or plane.is_failed(u, v):
                raise ValueError(
                    f"{u}->{v} is not a live link of plane {plane_idx}"
                )
            link = plane.link(u, v)
            queue = Queue(
                self.loop,
                rate=link.capacity,
                max_packets=self.queue_packets,
                name=f"p{plane_idx}:{u}->{v}",
                ecn_threshold=self.ecn_threshold,
                tracer=self._tracer,
                plane=plane_idx,
                delay=link.propagation,
            )
            self._elements[key] = queue
        return queue

    def _route_elements(self, plane_idx: int, path: Sequence[str]) -> List:
        if len(path) < 2:
            raise ValueError("path must traverse at least one link")
        return [self._queue(plane_idx, u, v) for u, v in zip(path, path[1:])]

    # --- flow launch ----------------------------------------------------------

    def add_flow(self, spec: FlowSpec):
        """Launch a flow described by a :class:`FlowSpec`::

            net.add_flow(FlowSpec(src="h0", dst="h1", size=1_000_000,
                                  paths=policy.select("h0", "h1", 0)))

        One path -> plain TCP (or DCTCP with ``transport="dctcp"``, which
        requires the network's queues to have an ``ecn_threshold``);
        several paths -> MPTCP with one subflow each.
        Returns the source object (a TcpSource or MptcpSource).
        """
        check_flow_spec(spec)
        return self._launch(spec)

    def _launch(self, spec: FlowSpec):
        if spec.transport not in ("tcp", "dctcp"):
            raise ValueError(f"unknown transport {spec.transport!r}")
        if spec.transport == "dctcp" and len(spec.paths) > 1:
            raise ValueError("DCTCP is single-path; use one path")
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        return self._start_leg(flow_id, spec)

    def _start_leg(self, flow_id: int, spec: FlowSpec):
        """Build flow ``flow_id``'s source for ``spec`` and schedule it."""
        at = 0.0 if spec.at is None else spec.at
        # A bound-method partial (not a closure) so in-flight flows --
        # whose sources hold this completion hook -- pickle for
        # checkpointing.
        finish = functools.partial(self._finish_flow, flow_id, spec)
        source = self._make_source(spec, flow_id, finish)
        self._active[flow_id] = (source, spec)
        self.loop.schedule_at(at, source.start)
        return source

    def _finish_flow(self, flow_id: int, spec: FlowSpec, source) -> None:
        # ``spec`` is the last leg's; a moved flow's record still covers
        # the whole flow, from its first start.
        moved = self._moved.pop(flow_id, None)
        if moved is None:
            moved = _Moved(spec.size, source.start_time)
        record = SimFlowRecord(
            flow_id=flow_id,
            src=spec.src,
            dst=spec.dst,
            size=moved.size,
            start=moved.start,
            finish=source.finish_time,
            n_subflows=len(spec.paths),
            retransmits=moved.retransmits + source.retransmits,
            packets_sent=moved.packets_sent + source.packets_sent,
            tag=spec.tag,
            planes=spec.planes,
        )
        self.records.append(record)
        self._active.pop(flow_id, None)
        if self.obs.enabled:
            publish_flow(self.obs, record)
            self.obs.trace(
                "flow.complete", self.loop.now, flow_id=flow_id,
                src=spec.src, dst=spec.dst, size=record.size,
                fct=record.fct, planes=list(spec.planes),
                retransmits=record.retransmits,
            )
        if spec.on_complete is not None:
            spec.on_complete(record)

    def _make_source(self, spec: FlowSpec, flow_id: int, finish):
        """Build and wire the transport source for one spec.

        Overridable: the plane-sharded engine (:mod:`repro.shard`)
        substitutes partial MPTCP sources for flows whose subflows live
        on other shards.
        """
        paths = spec.paths
        if len(paths) == 1:
            from repro.sim.dctcp import DctcpSource

            source_cls = DctcpSource if spec.transport == "dctcp" else TcpSource
            source = source_cls(
                self.loop,
                size=spec.size,
                mss=self.mss,
                min_rto=self.min_rto,
                on_complete=finish,
                name=f"{spec.transport}-{flow_id}",
                tracer=self._tracer,
            )
            self.wire(source, paths[0])
        else:
            source = MptcpSource(
                self.loop,
                size=spec.size,
                n_subflows=len(paths),
                mss=self.mss,
                min_rto=self.min_rto,
                on_complete=finish,
                name=f"mptcp-{flow_id}",
                tracer=self._tracer,
            )
            for subflow, plane_path in zip(source.subflows, paths):
                self.wire(subflow, plane_path)
        return source

    # --- in-flight flow inspection ---------------------------------------

    def active_flows(self) -> List[Tuple[int, object, FlowSpec]]:
        """(flow_id, source, spec) of flows launched but not completed."""
        return [
            (flow_id, source, spec)
            for flow_id, (source, spec) in sorted(self._active.items())
        ]

    def active_flow_paths(self) -> List[Tuple[int, str, str, list]]:
        """(flow_id, src, dst, subflow paths) of in-flight flows."""
        return [
            (flow_id, spec.src, spec.dst, list(spec.paths))
            for flow_id, source, spec in self.active_flows()
            if not getattr(source, "completed", False)
        ]

    def abort_flow(self, flow_id: int) -> bool:
        """Abort an in-flight flow (no record, no completion callback).

        Returns False when the flow already completed or is unknown.
        Fault injection's last resort when a flow's endpoints are fully
        partitioned; its ACKed bytes stay delivered.
        """
        entry = self._active.pop(flow_id, None)
        if entry is None:
            return False
        source = entry[0]
        moved = self._moved.pop(flow_id, None)
        if moved is not None:
            self._aborted_acked += moved.acked
        self._aborted_acked += _acked(source)
        source.abort()
        return True

    def resteer(self, flow_id: int, paths: Sequence[PlanePath]) -> bool:
        """Move a live flow onto ``paths``; it keeps its id.

        TCP state cannot survive a path change, so a started flow's
        source is aborted and its un-ACKed remainder relaunched now,
        from slow start, as a real connection migration would.  A flow
        that has not started keeps its arrival time; only its paths
        change.  Either way the flow's one record covers it whole (see
        :meth:`_finish_flow`).  Returns False when the flow is gone.
        """
        entry = self._active.pop(flow_id, None)
        if entry is None:
            return False
        source, spec = entry
        source.abort()
        if source.start_time is None:
            leg = spec.relaunch(spec.size, paths, spec.at)
        else:
            moved = self._moved.get(flow_id)
            if moved is None:
                moved = self._moved[flow_id] = _Moved(
                    spec.size, source.start_time
                )
            acked = _acked(source)
            moved.acked += acked
            moved.retransmits += source.retransmits
            moved.packets_sent += source.packets_sent
            leg = spec.relaunch(
                max(int(spec.size) - int(acked), 0), paths, self.now
            )
        self._start_leg(flow_id, leg)
        return True

    def control_rows(self, gid_of: Optional[Callable[[int], Any]] = None):
        """The control loop's snapshot: ``(plane_cum, rows)``.

        ``plane_cum`` is each plane's cumulative forwarded bytes; each
        started live flow gives one ``"acked"`` row of cumulative
        per-subflow ACKed bytes (see :mod:`repro.control.monitor`).
        A moved flow's ``size`` and ``acked`` are its current leg's.
        ``gid_of`` maps flow ids to the caller's ids.
        """
        plane_cum = {
            plane: float(totals["bytes_forwarded"])
            for plane, totals in self.plane_queue_totals().items()
        }
        rows = []
        for fid, source, spec in self.active_flows():
            if getattr(source, "completed", False):
                continue
            if getattr(source, "start_time", None) is None:
                continue  # submitted, not started: nothing to measure
            # MPTCP sources count per subflow; TCP and DCTCP sources
            # are their own single subflow.
            subflows = getattr(source, "subflows", None) or [source]
            rows.append({
                "gid": fid if gid_of is None else gid_of(fid),
                "src": spec.src,
                "dst": spec.dst,
                "size": spec.size,
                "paths": list(spec.paths),
                "transport": spec.transport,
                "tag": spec.tag,
                "acked": [int(sf.snd_una) for sf in subflows],
            })
        return plane_cum, rows

    @property
    def delivered_bytes(self) -> float:
        """Bytes ACKed so far, each once: completed and aborted flows
        plus in-flight progress (a moved flow's earlier legs too)."""
        total = float(sum(r.size for r in self.records)) + self._aborted_acked
        for source, __ in self._active.values():
            total += _acked(source)
        for moved in self._moved.values():
            total += moved.acked
        return total

    def wire(self, tcp_source: TcpSource, plane_path: PlanePath) -> None:
        """Wire a source/subflow onto one plane path.

        Instantiates queues along the path (and the reverse ACK
        path), creates the sink, and connects both routes.  The sharded
        engine uses this to attach partial MPTCP sources it constructs
        itself; ordinary callers should go through :meth:`add_flow`.
        """
        plane_idx, path = plane_path
        sink = TcpSink(self.loop, name=f"{tcp_source.name}-sink")
        forward = self._route_elements(plane_idx, path)
        backward = self._route_elements(plane_idx, list(reversed(path)))
        tcp_source.route_out = forward + [sink]
        sink.route_back = backward + [tcp_source]

    # --- mid-run failures -----------------------------------------------------------

    def fail_link(self, plane_idx: int, u: str, v: str) -> None:
        """Cut a link during the simulation.

        Both directions black-hole immediately (in-queue packets are
        lost); the topology is marked failed so path selection performed
        after :meth:`~repro.core.pnet.PNet.invalidate_routing` avoids it.
        Flows already pinned to the link stall into RTO -- exactly what a
        real cut does to a source-routed flow.
        """
        self.planes[plane_idx].fail_link(u, v)
        for a, b in ((u, v), (v, u)):
            queue = self._elements.get((plane_idx, a, b))
            if queue is not None:
                queue.fail()

    def restore_link(self, plane_idx: int, u: str, v: str) -> None:
        self.planes[plane_idx].restore_link(u, v)
        for a, b in ((u, v), (v, u)):
            queue = self._elements.get((plane_idx, a, b))
            if queue is not None:
                queue.restore()

    # --- execution -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """The simulated clock (the event loop's)."""
        return self.loop.now

    def schedule(self, at: float, fn: Callable[[], None]) -> None:
        """Run a callback at simulated time ``at`` (controllers, faults)."""
        self.loop.schedule_at(at, fn)

    def has_pending(self) -> bool:
        """Whether any live event is left to run."""
        return self.loop.next_time() is not None

    def run(self, until: float = math.inf, max_events: int = 500_000_000) -> None:
        self.loop.run(until=until, max_events=max_events)
        if self.obs.enabled:
            self.publish_queue_stats()

    # --- statistics -------------------------------------------------------------------

    @property
    def total_drops(self) -> int:
        return sum(q.drops for q in self._elements.values())

    @property
    def total_ecn_marks(self) -> int:
        return sum(q.ecn_marks for q in self._elements.values())

    @property
    def total_retransmits(self) -> int:
        return sum(r.retransmits for r in self.records)

    def queue_stats(self) -> Dict[str, Tuple[int, int]]:
        """Per-queue (packets forwarded, drops), keyed by queue name."""
        return {
            q.name: (q.packets_forwarded, q.drops)
            for q in self._elements.values()
        }

    def plane_queue_totals(self) -> Dict[int, Dict[str, int]]:
        """Per-plane queue counter sums (forwarded/drops/bytes/ECN)."""
        totals: Dict[int, Dict[str, int]] = {
            idx: {
                "packets_forwarded": 0, "drops": 0,
                "bytes_forwarded": 0, "ecn_marks": 0,
            }
            for idx in range(len(self.planes))
        }
        for (plane_idx, __, ___), queue in self._elements.items():
            plane = totals[plane_idx]
            plane["packets_forwarded"] += queue.packets_forwarded
            plane["drops"] += queue.drops
            plane["bytes_forwarded"] += queue.bytes_forwarded
            plane["ecn_marks"] += queue.ecn_marks
        return totals

    def publish_queue_stats(self) -> None:
        """Publish per-plane queue counters to the obs registry as gauges.

        Gauges are set to the current totals, so calling this after
        every :meth:`run` is idempotent.
        """
        obs = self.obs
        for plane_idx, totals in self.plane_queue_totals().items():
            for stat, value in totals.items():
                obs.gauge(f"sim.plane.{stat}", plane=plane_idx).set(value)


def publish_flow(obs, record: SimFlowRecord) -> None:
    """Per-plane flow telemetry for one completed flow.

    Even byte split across planes -- the same attribution
    NetworkMonitor.record_flow applies, so the two views agree exactly.
    The shard engine publishes its composed spanning records here too,
    so merged telemetry covers every flow exactly once.
    """
    share = record.size / len(record.planes)
    for plane in record.planes:
        obs.counter("net.flow.bytes", plane=plane).inc(share)
        obs.counter("net.flows", plane=plane).inc()
        obs.histogram("net.fct_seconds", plane=plane).observe(record.fct)


def _acked(source) -> int:
    """Bytes a live source has had cumulatively ACKed."""
    acked = getattr(source, "acked_bytes", None)
    return source.snd_una if acked is None else acked
