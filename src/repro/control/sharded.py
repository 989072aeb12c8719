"""Barrier-driven control for the sharded packet engine.

A sharded run cannot let the serial :class:`Controller` tick inside one
worker -- decisions depend on the *global* plane-load vector, and
resteers may move a flow onto planes owned by another shard.  Instead
the shard engine owns the cadence: at each lookahead barrier whose time
has crossed the next control instant it

1. posts a ``control-sample`` request to every worker and merges the
   plane counters (disjoint plane sets, so the union is exact) and flow
   rows into one global snapshot,
2. runs the *same* monitor + policy objects a serial run would use, and
3. partitions the decisions into per-shard ``control-apply`` batches
   that each worker executes locally (abort + relaunch with a stable
   global flow id).

Workers are quiescent between sample and apply -- both happen at the
same barrier, so the cumulative ACK counters sampled in step 1 are
still exact in step 3 and the remainder can be computed engine-side.
Everything that travels is plain picklable dicts, identical across the
local and shm channel backends, and every merge is sorted -- the
global decision sequence is deterministic regardless of reply order.

Flows that span shards are coupled through wire stubs, not live local
sources; resteering them would race the coupling digests, so the driver
skips them (counted in ``stats.skipped_spanning``).  Decisions whose
new path set crosses shard boundaries are narrowed to the shard with
the most paths (counted in ``stats.narrowed``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.control.controller import Controller, ControlStats
from repro.control.monitor import ControlMonitor
from repro.core.flowspec import FlowSpec, clamp_transport
from repro.core.pnet import PNet


class ShardControlDriver:
    """Runs one controller's policy at the shard engine's barriers."""

    def __init__(
        self,
        controller: Controller,
        planes: Sequence,
        plane_shard: Dict[int, int],
        flow_shard: Dict[int, int],
        spanning_gids: Set[int],
    ):
        self.policy = controller.policy
        self.interval = controller.interval
        self.monitor: ControlMonitor = controller.monitor
        self.stats: ControlStats = controller.stats
        self.n_planes = len(planes)
        #: plane index -> owning shard (from the partition plan).
        self.plane_shard = dict(plane_shard)
        #: global flow id -> shard that owns its live source.
        self.owner = dict(flow_shard)
        self.spanning = set(spanning_gids)
        self.stats.skipped_spanning += len(self.spanning)
        self.next_tick = self.interval
        if controller.pnet is None:
            controller.pnet = PNet(list(planes))
        self.policy.bind(controller.pnet)

    def fingerprint(self) -> Dict[str, Any]:
        fp = dict(self.policy.fingerprint())
        fp["interval"] = self.interval
        return fp

    # --- cadence ------------------------------------------------------------

    def due(self, t: float) -> bool:
        return t >= self.next_tick

    def clamp(self, t_next: float) -> float:
        """Keep barrier strides from jumping past a control instant."""
        return min(t_next, self.next_tick)

    # --- one control cycle --------------------------------------------------

    def tick(
        self, t: float, samples: Dict[int, Dict[str, Any]]
    ) -> Dict[int, Dict[str, Any]]:
        """Fold per-shard samples, decide, and partition the applies.

        ``samples`` maps shard -> ``{"plane_cum": ..., "rows": ...}``
        (a worker's ``control_sample`` reply).  Returns shard ->
        ``{"aborts": [gid, ...], "launches": [(gid, FlowSpec), ...]}``
        for every shard that has work.
        """
        plane_cum: Dict[int, float] = {}
        rows: List[Dict[str, Any]] = []
        for shard in sorted(samples):
            reply = samples[shard]
            plane_cum.update(reply["plane_cum"])
            rows.extend(reply["rows"])
        rows.sort(key=lambda row: row["gid"])
        by_gid = {row["gid"]: row for row in rows}

        sample = self.monitor.ingest(
            t, self.interval, self.n_planes, rows, plane_cum=plane_cum
        )
        self.stats.ticks += 1
        decisions = self.policy.decide(sample)
        self.stats.decisions += len(decisions)

        batches: Dict[int, Dict[str, Any]] = {}
        for decision in decisions:
            gid = decision.gid
            row = by_gid.get(gid)
            shard = self.owner.get(gid)
            if row is None or shard is None or gid in self.spanning:
                self.stats.missed += 1
                continue
            paths = self._narrow(shard, decision.paths)
            if not paths:
                self.stats.missed += 1
                continue
            paths = clamp_transport(row["transport"], paths)
            remaining = max(
                int(row["size"]) - int(sum(row["acked"])), 0
            )
            spec = FlowSpec(
                src=row["src"],
                dst=row["dst"],
                size=remaining,
                paths=paths,
                at=t,
                tag=row["tag"],
                transport=row["transport"],
            )
            batch = batches.setdefault(
                shard, {"aborts": [], "launches": []}
            )
            batch["aborts"].append(gid)
            batch["launches"].append((gid, spec))
            self.stats.applied += 1

        self.next_tick += self.interval
        return batches

    def _narrow(self, shard: int, paths) -> List[Tuple[int, Any]]:
        """Restrict a decision's paths to one shard's planes.

        Global flow ids stay pinned to their owning shard (moving the
        live source would need a full cross-shard handoff protocol), so
        a path set that crosses shards keeps only the owning shard's
        slice.  When *no* path lands on the owner, the decision is
        dropped rather than stranding the flow.
        """
        local = [
            (plane, path) for plane, path in paths
            if self.plane_shard.get(plane) == shard
        ]
        if len(local) != len(list(paths)):
            if local:
                self.stats.narrowed += 1
            return local
        return list(paths)

    # --- checkpoint state ---------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """Picklable blob for the shard engine checkpoint."""
        return {
            "policy": self.policy,
            "monitor": self.monitor,
            "owner": dict(self.owner),
            "spanning": sorted(self.spanning),
            "next_tick": self.next_tick,
            "stats": self.stats,
        }

    def restore(self, blob: Dict[str, Any]) -> None:
        self.policy = blob["policy"]
        self.monitor = blob["monitor"]
        self.owner = dict(blob["owner"])
        self.spanning = set(blob["spanning"])
        self.next_tick = blob["next_tick"]
        self.stats = blob["stats"]
