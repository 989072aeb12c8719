"""Shard workers: one packet simulator instance over one shard's planes.

A worker owns every flow whose paths live entirely on its planes and
the local *slice* (a :class:`~repro.shard.coupling.PartialMptcpSource`)
of every spanning connection.  It exposes four calls --
``apply(updates)``, ``advance(t)``, ``digest()``, ``result()`` --
driven through :func:`handle_message`, which both channel backends
(:mod:`repro.shard.channel`) route to, so the local and shm backends
execute byte-identical logic.

A worker builds a :class:`~repro.sim.network.PacketNetwork` over *all*
planes (elements instantiate lazily, so remote planes cost nothing),
which keeps global plane indices valid everywhere.

Fault events arrive pre-routed (the engine restricts the schedule to
each shard's planes via :meth:`FaultSchedule.restricted`) and are
applied at the dataplane level -- link/queue state with the same
refcounted overlap semantics as :class:`repro.faults.FaultInjector`.
Control-plane reactions (route repair, flow resteering) are inherently
cross-plane and stay serial; see
:func:`repro.shard.partition.serial_fallback`.
"""

from __future__ import annotations

import functools
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ckpt.snapshot import dumps, loads
from repro.core.flowspec import FlowSpec
from repro.faults.schedule import FaultEvent
from repro.obs import NULL_REGISTRY, Registry
from repro.shard.coupling import PartialMptcpSource
from repro.shard.partition import ShardPlan
from repro.sim.network import PacketNetwork
from repro.topology.graph import Topology


@dataclass
class WorkerConfig:
    """Everything a shard worker needs, picklable for the shm backend.

    ``entries`` lists (global flow id, spec) pairs in submission order;
    a gid present in ``spanning_share`` is the local slice of a
    spanning connection seeded with that many bytes, anything else is a
    fully local flow.  ``fault_events`` must already be restricted to
    this shard's planes.
    """

    shard: int
    plan: ShardPlan
    planes: List[Topology]
    sim_kwargs: Dict[str, Any] = field(default_factory=dict)
    entries: List[Tuple[int, FlowSpec]] = field(default_factory=list)
    spanning_share: Dict[int, int] = field(default_factory=dict)
    fault_events: Tuple[FaultEvent, ...] = ()
    collect_obs: bool = False
    #: In-process only (never shipped to a worker process): use
    #: this registry directly instead of a private one -- the serial
    #: one-shard path injects the caller's registry here so telemetry
    #: is byte-identical to a plain un-sharded run.
    obs_registry: Optional[Registry] = None
    #: An encoded worker from a prior ``("snapshot",)`` reply.  When
    #: set, :func:`build_worker` decodes it instead of constructing
    #: fresh state, resuming the worker mid-run (see :mod:`repro.ckpt`).
    restore_blob: Optional[bytes] = None


class PacketShardWorker:
    """Packet-level worker: local flows + partial spanning sources."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        if config.obs_registry is not None:
            self.obs = config.obs_registry
        else:
            self.obs = Registry() if config.collect_obs else NULL_REGISTRY
        self.net = PacketNetwork(
            config.planes, obs=self.obs, **config.sim_kwargs
        )
        self._local_gids: List[int] = []
        self._spanning: Dict[int, PartialMptcpSource] = {}
        for gid, spec in config.entries:
            if gid in config.spanning_share:
                self._add_spanning(gid, spec, config.spanning_share[gid])
            else:
                self.net.add_flow(spec=spec)
                self._local_gids.append(gid)
        #: Refcounted held-down links, mirroring FaultInjector semantics
        #: for overlapping down events: (plane, link-key) -> count.
        self._down_count: Dict[Tuple[int, Tuple[str, str]], int] = {}
        # Partials, not lambdas: the pending events must pickle for the
        # engine's epoch-barrier checkpoints.
        for event in config.fault_events:
            self.net.loop.schedule_at(
                event.at, functools.partial(self._apply_fault, event)
            )

    # --- construction helpers ----------------------------------------------

    def _add_spanning(self, gid: int, spec: FlowSpec, share: int) -> None:
        paths = [
            path
            for __, path in self.config.plan.local_paths(
                spec, self.config.shard
            )
        ]
        source = PartialMptcpSource(
            gid=gid,
            loop=self.net.loop,
            size=share,
            n_subflows=len(paths),
            mss=self.net.mss,
            min_rto=self.net.min_rto,
            name=f"mptcp-g{gid}",
            tracer=self.net._tracer,
        )
        for subflow, plane_path in zip(source.subflows, paths):
            self.net.wire(subflow, plane_path)
        at = 0.0 if spec.at is None else spec.at
        self.net.loop.schedule_at(at, source.start)
        self._spanning[gid] = source

    # --- fault application ---------------------------------------------------

    def _apply_fault(self, event: FaultEvent) -> None:
        event.hold(
            self.net.planes[event.plane], self._down_count,
            self.net.fail_link, self.net.restore_link,
        )

    # --- barrier protocol ----------------------------------------------------

    def apply(self, updates: Dict[str, Any]) -> None:
        """Apply one barrier's coupling updates, in deterministic order."""
        for gid in sorted(updates.get("finalize", ())):
            self._spanning[gid].finalize()
        for gid, terms in sorted(updates.get("views", {}).items()):
            self._spanning[gid].remote.set(*terms)
        for gid, delta in sorted(updates.get("grants", {}).items()):
            self._spanning[gid].grant(delta)

    def advance(self, t: Optional[float]) -> None:
        self.net.run(until=float("inf") if t is None else t)

    def digest(self) -> Dict[str, Any]:
        # Coupling state only: telemetry travels once, in ``result`` --
        # exporting the registry at every barrier was pure overhead the
        # engine never read, and it would break the fixed numpy digest
        # layout of the shm backend.
        return {
            "t": self.net.loop.now,
            "next": self.net.loop.next_time(),
            "flows": {
                gid: source.digest()
                for gid, source in sorted(self._spanning.items())
            },
        }

    # --- control protocol ----------------------------------------------------

    def control_sample(self) -> Dict[str, Any]:
        """This shard's slice of one control tick's snapshot.

        Plane counters are filtered to owned planes so the engine's
        merge across shards is a disjoint union; flow rows carry global
        ids.  Spanning slices live on ``net.wire``, not ``net._active``,
        so they are naturally absent -- the driver never steers them.
        """
        local_planes = set(
            self.config.plan.planes_of_shard[self.config.shard]
        )
        plane_cum, rows = self.net.control_rows(
            gid_of=lambda fid: self._local_gids[fid]
        )
        return {
            "plane_cum": {
                plane: cum for plane, cum in plane_cum.items()
                if plane in local_planes
            },
            "rows": rows,
        }

    def control_apply(self, aborts, launches) -> Dict[str, Any]:
        """Execute one control batch: aborts first, then relaunches.

        The relaunched flow keeps its *global* id (the fresh local id
        maps back to the same gid), so records, policy state and the
        engine's ownership table stay stable across a resteer --
        unlike the serial path, where ids change and callers re-key.
        """
        by_gid = {
            self._local_gids[fid]: fid
            for fid, __, __s in self.net.active_flows()
        }
        aborted = set()
        for gid in aborts:
            fid = by_gid.get(gid)
            if fid is not None:
                self.net.abort_flow(fid)
                aborted.add(gid)
        for gid, spec in launches:
            if gid not in aborted:
                continue  # vanished since the sample: nothing to move
            self.net.add_flow(spec=spec)
            self._local_gids.append(gid)
        return {"next": self.net.loop.next_time()}

    def result(self) -> Dict[str, Any]:
        local_planes = set(
            self.config.plan.planes_of_shard[self.config.shard]
        )
        for record in self.net.records:
            record.flow_id = self._local_gids[record.flow_id]
        return {
            "records": list(self.net.records),
            "plane_totals": {
                plane: totals
                for plane, totals in self.net.plane_queue_totals().items()
                if plane in local_planes
            },
            "events_processed": self.net.loop.events_processed,
            "obs": self.obs.export_state()
            if self.config.collect_obs else None,
        }


def build_worker(config: WorkerConfig):
    if config.restore_blob is not None:
        # The restored worker keeps its *checkpointed* registry (it holds
        # the first segment's counters); callers that injected a live
        # registry absorb the worker's state after the run instead of
        # swapping it out, which would orphan net.obs publications.
        return loads(config.restore_blob)
    return PacketShardWorker(config)


def handle_message(worker, message: Tuple) -> Tuple:
    """Execute one engine request against a worker; never raises.

    The single dispatch point both channel backends share: replies are
    ``("digest", payload)`` / ``("result", payload)`` or ``("error",
    traceback_text)``.
    """
    try:
        tag = message[0]
        if tag == "run":
            __, t_target, updates = message
            worker.apply(updates)
            worker.advance(t_target)
            return ("digest", worker.digest())
        if tag == "digest":
            return ("digest", worker.digest())
        if tag == "control-sample":
            # New tags, not extra keys on "run": the shm codec's fixed
            # numpy layouts only know run/digest, while pickled frames
            # carry these transparently on every backend.
            return ("control", worker.control_sample())
        if tag == "control-apply":
            __, aborts, launches = message
            return ("control", worker.control_apply(aborts, launches))
        if tag == "snapshot":
            # The worker encodes *itself* -- event heap, transport
            # state, fault refcounts and telemetry in one graph -- so a
            # restored worker resumes byte-identically.
            return ("snapshot", dumps(worker))
        if tag == "stop":
            return ("result", worker.result())
        raise ValueError(f"unknown shard message {tag!r}")
    except Exception:
        return ("error", traceback.format_exc())
