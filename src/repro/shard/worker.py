"""Shard workers: one packet simulator instance over one shard's planes.

A worker owns every flow whose paths live entirely on its planes and
the local *slice* (a :class:`~repro.shard.coupling.PartialMptcpSource`)
of every spanning connection.  It answers the engine's barrier
messages -- ``run`` (apply coupling updates, advance, reply with a
digest), ``digest``, ``control-sample``, ``control-apply``,
``snapshot`` and ``stop`` -- through :func:`handle_message`, which
both channel backends (:mod:`repro.shard.channel`) route to, so the
in-process ``local`` backend and the worker processes of the ``shm``
backend execute byte-identical logic.

A worker builds a :class:`~repro.sim.network.PacketNetwork` over *all*
planes (elements instantiate lazily, so remote planes cost nothing),
which keeps global plane indices valid everywhere.

A worker takes no fault schedule: faults are a host reaction across
planes, which :class:`repro.faults.FaultInjector` runs on an unsharded
engine.  Control moves resteer shard-local flows through
:meth:`PacketNetwork.resteer`, which keeps a flow's id.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ckpt.snapshot import dumps, loads
from repro.core.flowspec import FlowSpec
from repro.obs import NULL_REGISTRY, Registry
from repro.shard.coupling import PartialMptcpSource
from repro.shard.partition import ShardPlan
from repro.sim.network import PacketNetwork
from repro.topology.graph import Topology


@dataclass
class WorkerConfig:
    """Everything a shard worker needs, picklable for a worker process.

    ``entries`` lists (global flow id, spec) pairs in submission order;
    a gid present in ``spanning_share`` is the local slice of a
    spanning connection seeded with that many bytes, anything else is a
    fully local flow.  ``collect_obs`` gives the worker a registry
    of its own, which :meth:`PacketShardWorker.result` exports for the
    engine to absorb.
    """

    shard: int
    plan: ShardPlan
    planes: List[Topology]
    sim_kwargs: Dict[str, Any] = field(default_factory=dict)
    entries: List[Tuple[int, FlowSpec]] = field(default_factory=list)
    spanning_share: Dict[int, int] = field(default_factory=dict)
    collect_obs: bool = False
    #: In-process only (never shipped to a worker process): use this
    #: registry directly instead of a private one, and export nothing.
    #: A one-shard run injects the caller's registry here, so its
    #: telemetry and trace events are a plain un-sharded run's.
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
        #: Global id of each local flow, by its id in ``net`` (which a
        #: resteer keeps).
        self._local_gids: List[int] = []
        self._spanning: Dict[int, PartialMptcpSource] = {}
        for gid, spec in config.entries:
            if gid in config.spanning_share:
                self._add_spanning(gid, spec, config.spanning_share[gid])
            else:
                self.net.add_flow(spec=spec)
                self._local_gids.append(gid)

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

    # --- barrier protocol ----------------------------------------------------

    def apply(self, updates: Dict[str, Any]) -> None:
        """Apply one barrier's coupling updates, in deterministic order."""
        for gid in sorted(updates.get("finalize", ())):
            self._spanning[gid].finalize()
        for gid, terms in sorted(updates.get("views", {}).items()):
            self._spanning[gid].remote.set(*terms)
        for gid, delta in sorted(updates.get("grants", {}).items()):
            self._spanning[gid].grant(delta)

    def advance(self, t: float) -> None:
        self.net.run(until=t)

    def digest(self) -> Dict[str, Any]:
        # Coupling state only: telemetry travels once, in ``result``.
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

    def control_apply(self, moves) -> Dict[str, Any]:
        """Resteer each ``(gid, paths)`` move of one control batch."""
        fid_of = {gid: fid for fid, gid in enumerate(self._local_gids)}
        for gid, paths in moves:
            self.net.resteer(fid_of[gid], paths)
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
            if self.config.collect_obs and self.config.obs_registry is None
            else None,
        }


def build_worker(config: WorkerConfig):
    if config.restore_blob is not None:
        # The restored worker keeps its *checkpointed* registry (it holds
        # the first segment's counters): swapping in a live one would
        # orphan net.obs publications.  It is nobody's live registry
        # now, so it is exported for the engine to absorb -- also where
        # the checkpointed run wrote straight into the caller's.
        worker = loads(config.restore_blob)
        worker.config.obs_registry = None
        return worker
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
            return ("control", worker.control_sample())
        if tag == "control-apply":
            return ("control", worker.control_apply(message[1]))
        if tag == "snapshot":
            # The worker encodes *itself* -- event heap, transport
            # state and telemetry in one graph -- so a restored worker
            # resumes byte-identically.
            return ("snapshot", dumps(worker))
        if tag == "stop":
            return ("result", worker.result())
        raise ValueError(f"unknown shard message {tag!r}")
    except Exception:
        return ("error", traceback.format_exc())
