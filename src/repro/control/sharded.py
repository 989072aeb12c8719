"""Barrier-driven control for the plane-sharded packet engine.

:func:`repro.shard.run_packet_trial` does not let a controller tick
inside a worker -- decisions depend on the *global* plane-load vector,
and resteers may move a flow onto planes owned by another shard.  At
every shard count, one shard included, the shard engine owns the
cadence instead: at each epoch barrier whose time has crossed the next
control instant it

1. posts a ``control-sample`` request to every worker and merges the
   plane counters (disjoint plane sets, so the union is exact) and flow
   rows into one global snapshot,
2. takes the controller's one step, :meth:`Controller.decide
   <repro.control.controller.Controller.decide>`, on it, and
3. partitions the decisions into per-shard ``control-apply`` batches
   of ``(gid, paths)`` moves that each worker executes locally through
   :meth:`~repro.sim.network.PacketNetwork.resteer` (abort + relaunch
   of the un-ACKed remainder under the same flow id), as an attached
   controller does.

Workers are quiescent between sample and apply -- both happen at the
same barrier, so the ACK counters the policy saw in step 1 are still
the ones the resteer relaunches from in step 3.  Everything that
travels is plain picklable data, identical across the local and shm
channel backends, and every merge is sorted -- the global decision
sequence is deterministic regardless of reply order.

Flows that span shards are coupled through wire stubs, not live local
sources; resteering them would race the coupling digests, so the driver
skips them (counted in ``stats.skipped_spanning``).  Decisions whose
new path set crosses shard boundaries are narrowed to the shard with
the most paths (counted in ``stats.narrowed``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.control.controller import Controller
from repro.core.pnet import PNet


class ShardControlDriver:
    """Runs one controller at the shard engine's barriers.

    The controller holds the run's policy, monitor and stats; the
    driver holds only what sharding adds: the control clock, plane and
    flow ownership, and the spanning flows it skips.
    """

    def __init__(
        self,
        controller: Controller,
        planes: Sequence,
        planes_of_shard: Sequence[Sequence[int]],
        local: Dict[int, List[int]],
        spanning_gids: Sequence[int],
    ):
        controller.claim(self)
        self.controller = controller
        self.n_planes = len(planes)
        #: plane index -> owning shard (from the partition plan).
        self.plane_shard = {
            plane: shard
            for shard, owned in enumerate(planes_of_shard)
            for plane in owned
        }
        #: global flow id -> shard that owns its live source.
        self.owner = {
            gid: shard for shard, gids in local.items() for gid in gids
        }
        self.spanning = set(spanning_gids)
        controller.stats.skipped_spanning += len(self.spanning)
        self.next_tick = controller.interval
        #: Rows (live flows) the last tick's sample held.
        self.flows_seen = 0
        if controller.pnet is None:
            controller.pnet = PNet(list(planes))
        controller.policy.bind(controller.pnet)

    # --- cadence ------------------------------------------------------------

    def due(self, t: float) -> bool:
        return t >= self.next_tick

    def clamp(self, t_next: float) -> float:
        """Keep epochs and idle jumps from passing a control instant."""
        return min(t_next, self.next_tick)

    # --- one control cycle --------------------------------------------------

    def tick(
        self, t: float, samples: Dict[int, Dict[str, Any]]
    ) -> Dict[int, List[Tuple[int, Any]]]:
        """Fold per-shard samples, decide, and partition the moves.

        ``samples`` maps shard -> ``{"plane_cum": ..., "rows": ...}``
        (a worker's ``control_sample`` reply).  Returns shard ->
        ``[(gid, paths), ...]`` for every shard that has work.
        """
        plane_cum: Dict[int, float] = {}
        rows: List[Dict[str, Any]] = []
        for shard in sorted(samples):
            reply = samples[shard]
            plane_cum.update(reply["plane_cum"])
            rows.extend(reply["rows"])
        rows.sort(key=lambda row: row["gid"])
        self.flows_seen = len(rows)
        live = {row["gid"] for row in rows}
        controller = self.controller
        stats = controller.stats

        moves: Dict[int, List[Tuple[int, Any]]] = {}
        for decision in controller.decide(t, self.n_planes, plane_cum, rows):
            gid = decision.gid
            shard = self.owner.get(gid)
            if gid not in live or shard is None or gid in self.spanning:
                stats.missed += 1
                continue
            paths = self._narrow(shard, decision.paths)
            if not paths:
                stats.missed += 1
                continue
            moves.setdefault(shard, []).append((gid, paths))
            stats.applied += 1

        self.next_tick += controller.interval
        return moves

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
                self.controller.stats.narrowed += 1
            return local
        return list(paths)

    def publish(self, obs) -> None:
        """Put the run's control counters in ``obs``, as an attached
        loop's ticks do: from the controller's stats, which a resumed
        run restores, so the counts cover the whole run."""
        stats = self.controller.stats
        if not stats.ticks:
            return
        obs.counter("control.ticks").inc(stats.ticks)
        if stats.decisions:
            obs.counter("control.decisions").inc(stats.decisions)
        obs.gauge("control.flows_seen").set(self.flows_seen)

    # --- checkpoint state ---------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """Picklable blob for the shard engine checkpoint."""
        controller = self.controller
        return {
            "policy": controller.policy,
            "monitor": controller.monitor,
            "owner": dict(self.owner),
            "spanning": sorted(self.spanning),
            "next_tick": self.next_tick,
            "flows_seen": self.flows_seen,
            "stats": controller.stats,
        }

    def restore(self, blob: Dict[str, Any]) -> None:
        """Continue a checkpointed run: its clock and ownership here,
        its policy, monitor and stats on the controller."""
        self.owner = dict(blob["owner"])
        self.spanning = set(blob["spanning"])
        self.next_tick = blob["next_tick"]
        self.flows_seen = blob.get("flows_seen", 0)
        self.controller.adopt(blob["policy"], blob["monitor"], blob["stats"])
