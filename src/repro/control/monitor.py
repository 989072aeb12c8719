"""Per-subflow / per-plane state sampling for the control loop.

The monitor is the measurement half of :mod:`repro.control`: each
engine's ``control_rows()`` (which shard workers call too) produces
plain-dict *rows* describing its live flows, and
:class:`ControlMonitor` turns consecutive snapshots into a
:class:`ControlSample` of per-tick byte progress -- the one vocabulary
every :class:`~repro.control.policy.ResteerPolicy` consumes, regardless
of engine.

Rows are deliberately plain picklable dicts (no simulator references):
the shard engine ships them over its channel backends unchanged, and
the monitor itself rides checkpoints inside the controller.

Two row flavours cover the engines:

* ``"acked"`` -- cumulative per-subflow ACKed bytes of the flow's
  current leg (packet engine).  Progress is the delta against the
  previous sample.  A move relaunches the flow under the same id with
  fresh counters, on other paths, so the baseline restarts from zero
  when the row's paths differ from the baseline's (or, as a guard,
  when a counter went backwards).
* ``"rate"`` -- instantaneous per-subflow rates in bits/s (fluid
  engine).  Progress is ``rate / 8 * interval``, the bytes the subflow
  moves in one control period at the current allocation.

A :class:`FlowView` carries both: ``progress`` and ``rates`` (bits/s,
``progress * 8 / interval`` for ``"acked"`` rows).

Per-plane load is the same unit (bytes progressed this tick): queue
counter deltas for planes carrying packet traffic, plus the rate-row
contribution for fluid traffic -- so a hybrid run sees one coherent
load vector across both engines.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.stats import left_sum
from repro.core.pnet import PlanePath


class FlowView:
    """One live flow as a policy sees it at a control tick."""

    __slots__ = (
        "gid", "src", "dst", "size", "paths", "transport", "tag",
        "acked", "progress", "rates",
    )

    def __init__(self, gid, src, dst, size, paths, transport, tag,
                 acked, progress, rates):
        self.gid = gid
        self.src = src
        self.dst = dst
        self.size = size
        self.paths: List[PlanePath] = paths
        self.transport = transport
        self.tag = tag
        #: Cumulative per-subflow ACKed bytes (packet flows; None for
        #: rate-sampled fluid flows, where delivered bytes stay with
        #: the flow across migrations and never enter the decision).
        self.acked: Optional[List[int]] = acked
        #: Bytes each subflow progressed this control period.
        self.progress: List[float] = progress
        #: Each subflow's rate in bits/s over the same period.
        self.rates: List[float] = rates

    @property
    def total_progress(self) -> float:
        return left_sum(self.progress)

    @property
    def total_acked(self) -> int:
        return 0 if self.acked is None else int(sum(self.acked))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FlowView(gid={self.gid!r}, {self.src}->{self.dst}, "
            f"progress={self.progress})"
        )


class ControlSample:
    """Everything one control tick knows about the network."""

    __slots__ = ("now", "interval", "n_planes", "plane_load", "flows")

    def __init__(self, now, interval, n_planes, plane_load, flows):
        self.now: float = now
        self.interval: float = interval
        self.n_planes: int = n_planes
        #: plane index -> bytes progressed on that plane this tick
        #: (every plane present, idle planes at 0.0).
        self.plane_load: Dict[int, float] = plane_load
        self.flows: List[FlowView] = flows

    def mean_load(self) -> float:
        if not self.plane_load:
            return 0.0
        return left_sum(self.plane_load.values()) / len(self.plane_load)


class ControlMonitor:
    """Differencing state between control ticks (picklable).

    Keeps the previous cumulative counters (per plane, and per flow
    with a digest of the paths they were read on, which checkpoints
    carry in a few bytes) so each :meth:`ingest` yields per-tick
    progress.  State for flows that disappeared is pruned, so long runs
    stay bounded.
    """

    def __init__(self):
        self._prev_plane: Dict[int, float] = {}
        self._prev_acked: Dict[Any, Tuple[int, List[int]]] = {}

    def ingest(
        self,
        now: float,
        interval: float,
        n_planes: int,
        rows: List[Dict[str, Any]],
        plane_cum: Optional[Dict[int, float]] = None,
    ) -> ControlSample:
        """Fold one raw snapshot into a :class:`ControlSample`."""
        plane_load = {plane: 0.0 for plane in range(n_planes)}
        if plane_cum is not None:
            for plane, cum in plane_cum.items():
                prev = self._prev_plane.get(plane, 0.0)
                plane_load[plane] = max(cum - prev, 0.0)
                self._prev_plane[plane] = cum

        flows: List[FlowView] = []
        seen = set()
        for row in rows:
            gid = row["gid"]
            seen.add(gid)
            acked = row.get("acked")
            if acked is not None:
                digest = _digest(row["paths"])
                prev_digest, prev = self._prev_acked.get(gid, (None, None))
                if prev_digest == digest and all(
                    a >= p for a, p in zip(acked, prev)
                ):
                    progress = [
                        float(a - p) for a, p in zip(acked, prev)
                    ]
                else:
                    # New flow, or a move relaunched it with new counters.
                    progress = [float(a) for a in acked]
                self._prev_acked[gid] = (digest, list(acked))
                rates = [p * 8.0 / interval for p in progress]
            else:
                rates = list(row["rate"])
                progress = [r / 8.0 * interval for r in rates]
                # Rate traffic never reaches the plane counters; add
                # its projected bytes so the load vector covers it.
                for (plane, __), p in zip(row["paths"], progress):
                    plane_load[plane] = plane_load.get(plane, 0.0) + p
            flows.append(FlowView(
                gid=gid,
                src=row["src"],
                dst=row["dst"],
                size=row["size"],
                paths=list(row["paths"]),
                transport=row.get("transport", "tcp"),
                tag=row.get("tag"),
                acked=None if acked is None else list(acked),
                progress=progress,
                rates=rates,
            ))

        for gid in [g for g in self._prev_acked if g not in seen]:
            del self._prev_acked[gid]
        return ControlSample(
            now=now,
            interval=interval,
            n_planes=n_planes,
            plane_load=plane_load,
            flows=flows,
        )


def _digest(paths: List[PlanePath]) -> int:
    """A stable 64-bit digest of a row's paths, in subflow order."""
    digest = hashlib.blake2b(repr(list(paths)).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")
