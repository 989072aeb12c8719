"""Pluggable resteering policies.

A :class:`ResteerPolicy` looks at one :class:`~repro.control.monitor.
ControlSample` per tick and returns :class:`ResteerDecision` s -- flow
id plus the new (plane, path) set.  Policies are deterministic pure
state machines over the sample stream: seeded, picklable (their state
rides checkpoints), and engine-agnostic (they never touch a simulator;
the controller has the engine resteer the flow, and the shard engine
relaunches it in the owning worker).

Built-ins, resolvable by name through :func:`make_policy` (and the
``PNET_CONTROL_POLICY`` environment knob):

* ``"ecmp-reshuffle"`` -- when some plane runs hot, re-hash the flows
  touching it onto fresh ECMP choices (new salt per tick), the
  cheapest stateless reaction.
* ``"flowlet"`` -- idle-gap triggered switching: a flow that moved no
  bytes for ``idle_ticks`` consecutive samples is at a flowlet
  boundary (or black-holed) and is re-hashed with a per-flow bump
  counter.
* ``"load-aware"`` -- steer the worst subflow of the most-imbalanced
  MPTCP flow onto the least-loaded plane, guarded by a hysteresis
  ratio and a per-flow cooldown so placements cannot oscillate.

:class:`DardPolicy`, the paper's DARD end-host routing (§3.4), is built
as an object, not by name.  Every policy skips candidate paths that are
not live, so a routing view that lags a fault never steers onto it.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import left_sum
from repro.config import current
from repro.core.failures import path_is_live
from repro.core.flowspec import same_paths
from repro.core.path_selection import KspMultipathPolicy
from repro.core.pnet import PlanePath, PNet
from repro.routing.ecmp import flow_hash


class ResteerDecision:
    """Move one flow onto ``paths`` (applied atomically per flow)."""

    __slots__ = ("gid", "paths", "reason")

    def __init__(self, gid, paths: Sequence[PlanePath], reason: str = ""):
        self.gid = gid
        self.paths: List[PlanePath] = list(paths)
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ResteerDecision(gid={self.gid!r}, reason={self.reason!r})"


class ResteerPolicy:
    """Base policy: observe a sample, decide nothing.

    Subclasses override :meth:`decide`.  ``pnet`` supplies candidate
    paths; it may be bound late (:meth:`bind`) so policies can be named
    before the network exists (CLI/env wiring).
    """

    name = "static"

    def __init__(self, pnet: Optional[PNet] = None, seed: int = 0):
        self.pnet = pnet
        self.seed = seed

    def bind(self, pnet: PNet) -> None:
        """Attach the routing view (no-op if already bound)."""
        if self.pnet is None:
            self.pnet = pnet

    def decide(self, sample) -> List[ResteerDecision]:
        return []

    def rekey(self, old, new) -> None:
        """Carry per-flow policy state across a flow-id change.

        Serial packet resteers give the relaunch a fresh id; policies
        that key state by flow id move it here so hysteresis/cooldowns
        survive.  Base keeps no per-flow state.
        """

    def fingerprint(self) -> Dict[str, Any]:
        """Stable description of the policy configuration (for results
        metadata and content-keyed experiment caching)."""
        return {"policy": self.name, "seed": self.seed}

    # --- shared helpers ----------------------------------------------------

    def _hashed_path(
        self, src: str, dst: str, gid_hash: int, salt: int
    ) -> Optional[PlanePath]:
        """One ECMP-style (plane, path) pick among live paths."""
        n = self.pnet.n_planes
        for probe in range(n):
            plane = flow_hash(src, dst, gid_hash, salt + probe) % n
            options = self._live_paths(plane, src, dst)
            if options:
                pick = flow_hash(src, dst, gid_hash, salt + probe + 1)
                return (plane, options[pick % len(options)])
        return None

    def _live_paths(self, plane: int, src: str, dst: str) -> List[List[str]]:
        """The plane's shortest ``src`` -> ``dst`` paths that are live."""
        return [
            path for path in self.pnet.shortest_paths(plane, src, dst)
            if path_is_live(self.pnet, (plane, path))
        ]

    def _rehash_paths(
        self, flow, salt: int
    ) -> Optional[List[PlanePath]]:
        """Fresh hashed paths for every subflow (None if unroutable)."""
        new_paths: List[PlanePath] = []
        gid_hash = _gid_hash(flow.gid)
        for index in range(len(flow.paths)):
            picked = self._hashed_path(
                flow.src, flow.dst, gid_hash + 7919 * index, salt
            )
            if picked is None:
                return None
            new_paths.append(picked)
        return new_paths


def _gid_hash(gid) -> int:
    """Deterministic int for a flow id.

    Plain ints pass through; the hybrid controller namespaces ids as
    ``(engine, fid)`` tuples, which mix engine-name characters and the
    sub-engine id (never Python's randomized ``hash``).
    """
    if isinstance(gid, int):
        return gid
    if isinstance(gid, str):
        mix = 0
        for ch in gid:
            mix = (mix * 131 + ord(ch)) & 0x7FFFFFFF
        return mix
    mix = 0
    for part in gid:
        mix = (mix * 1000003 + _gid_hash(part)) & 0x7FFFFFFF
    return mix


class EcmpReshufflePolicy(ResteerPolicy):
    """Re-hash flows off overloaded planes (stateless ECMP shuffle).

    When a plane's per-tick load exceeds ``overload`` times the mean,
    every flow with a subflow on it is re-hashed onto fresh ECMP
    choices -- new salt each tick, so repeated collisions resolve.  At
    most ``max_moves`` flows move per tick to bound churn.
    """

    name = "ecmp-reshuffle"

    def __init__(
        self,
        pnet: Optional[PNet] = None,
        seed: int = 0,
        overload: float = 1.5,
        max_moves: int = 4,
    ):
        super().__init__(pnet, seed)
        if overload <= 1.0:
            raise ValueError(f"overload factor must be > 1, got {overload}")
        self.overload = overload
        self.max_moves = max_moves
        self._tick = 0

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "policy": self.name, "seed": self.seed,
            "overload": self.overload, "max_moves": self.max_moves,
        }

    def decide(self, sample) -> List[ResteerDecision]:
        self._tick += 1
        mean = sample.mean_load()
        if mean <= 0:
            return []
        hot = {
            plane
            for plane, load in sample.plane_load.items()
            if load > self.overload * mean
        }
        if not hot:
            return []
        salt = self.seed + 1000003 * self._tick
        decisions: List[ResteerDecision] = []
        for flow in sample.flows:
            if len(decisions) >= self.max_moves:
                break
            if not any(plane in hot for plane, __ in flow.paths):
                continue
            new_paths = self._rehash_paths(flow, salt)
            if new_paths is None or same_paths(new_paths, flow.paths):
                continue
            decisions.append(ResteerDecision(
                flow.gid, new_paths, reason="reshuffle"
            ))
        return decisions


class FlowletPolicy(ResteerPolicy):
    """Idle-gap triggered switching.

    A flow that progressed zero bytes for ``idle_ticks`` consecutive
    samples is either between flowlets or stuck on a bad path; both
    cases re-hash it (per-flow bump counter, so each retry lands
    elsewhere) with nothing in flight to reorder.
    """

    name = "flowlet"

    def __init__(
        self,
        pnet: Optional[PNet] = None,
        seed: int = 0,
        idle_ticks: int = 1,
        max_moves: int = 4,
    ):
        super().__init__(pnet, seed)
        if idle_ticks < 1:
            raise ValueError(f"idle_ticks must be >= 1, got {idle_ticks}")
        self.idle_ticks = idle_ticks
        self.max_moves = max_moves
        self._idle: Dict[Any, int] = {}
        self._bump: Dict[Any, int] = {}

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "policy": self.name, "seed": self.seed,
            "idle_ticks": self.idle_ticks, "max_moves": self.max_moves,
        }

    def rekey(self, old, new) -> None:
        if old in self._bump:
            self._bump[new] = self._bump.pop(old)
        self._idle.pop(old, None)

    def decide(self, sample) -> List[ResteerDecision]:
        seen = set()
        decisions: List[ResteerDecision] = []
        for flow in sample.flows:
            seen.add(flow.gid)
            if flow.total_progress > 0:
                self._idle[flow.gid] = 0
                continue
            idle = self._idle.get(flow.gid, 0) + 1
            self._idle[flow.gid] = idle
            if idle < self.idle_ticks or len(decisions) >= self.max_moves:
                continue
            bump = self._bump.get(flow.gid, 0) + 1
            self._bump[flow.gid] = bump
            salt = self.seed + 104729 * bump
            new_paths = self._rehash_paths(flow, salt)
            if new_paths is None or same_paths(new_paths, flow.paths):
                continue
            self._idle[flow.gid] = 0
            decisions.append(ResteerDecision(
                flow.gid, new_paths, reason="flowlet-idle"
            ))
        for gid in [g for g in self._idle if g not in seen]:
            del self._idle[gid]
        for gid in [g for g in self._bump if g not in seen]:
            del self._bump[gid]
        return decisions


class LoadAwarePolicy(ResteerPolicy):
    """Steer the worst subflow of the most-imbalanced MPTCP flow.

    Each tick: rank multipath flows by subflow progress spread, take
    the most imbalanced, and move its slowest subflow onto the
    least-loaded plane -- but only when the current plane carries more
    than ``hysteresis`` times the target plane's load, and the flow has
    not moved within ``cooldown`` simulated seconds.  ``max_moves``
    flows move per tick (default 1: one careful move beats many rash
    ones, and keeps the loop analyzable).
    """

    name = "load-aware"

    def __init__(
        self,
        pnet: Optional[PNet] = None,
        seed: int = 0,
        hysteresis: Optional[float] = None,
        cooldown: Optional[float] = None,
        max_moves: int = 1,
    ):
        super().__init__(pnet, seed)
        config = current(
            control_hysteresis=hysteresis, control_cooldown=cooldown
        )
        self.hysteresis = config.control_hysteresis
        self.cooldown = config.control_cooldown
        self.max_moves = max_moves
        self._last_move: Dict[Any, float] = {}

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "policy": self.name, "seed": self.seed,
            "hysteresis": self.hysteresis, "cooldown": self.cooldown,
            "max_moves": self.max_moves,
        }

    def rekey(self, old, new) -> None:
        if old in self._last_move:
            self._last_move[new] = self._last_move.pop(old)

    def decide(self, sample) -> List[ResteerDecision]:
        loads = sample.plane_load
        ranked = []
        for flow in sample.flows:
            if len(flow.paths) < 2 or len(flow.progress) != len(flow.paths):
                continue
            last = self._last_move.get(flow.gid)
            if last is not None and sample.now - last < self.cooldown:
                continue
            spread = max(flow.progress) - min(flow.progress)
            if spread <= 0:
                continue
            ranked.append((spread, flow))
        # Most imbalanced first; flow id breaks ties deterministically.
        ranked.sort(key=lambda pair: (-pair[0], _sort_key(pair[1].gid)))

        decisions: List[ResteerDecision] = []
        for __, flow in ranked:
            if len(decisions) >= self.max_moves:
                break
            worst = min(
                range(len(flow.progress)), key=lambda i: (flow.progress[i], i)
            )
            current_plane = flow.paths[worst][0]
            used = {plane for plane, __p in flow.paths}
            candidates = sorted(
                (plane for plane in loads if plane not in used),
                key=lambda plane: (loads[plane], plane),
            ) or sorted(
                (plane for plane in loads if plane != current_plane),
                key=lambda plane: (loads[plane], plane),
            )
            for target in candidates:
                if loads[current_plane] <= self.hysteresis * loads[target]:
                    break  # candidates are load-sorted: none clears it
                options = self._live_paths(target, flow.src, flow.dst)
                if not options:
                    continue
                new_paths = list(flow.paths)
                new_paths[worst] = (target, options[0])
                decisions.append(ResteerDecision(
                    flow.gid, new_paths, reason="load-aware"
                ))
                self._last_move[flow.gid] = sample.now
                break
        return decisions


class DardPolicy(ResteerPolicy):
    """DARD-style selfish re-placement of single-path flows (§3.4).

    Each tick, every single-path flow in sample order moves to the live
    candidate -- one of ``candidates`` shortest paths pooled across
    planes, 4 per plane by default -- whose bottleneck headroom exceeds
    ``hysteresis`` times its rate (> 1 avoids oscillation).  A link's
    headroom is its capacity minus the rates of its *other* subflows,
    and later flows see earlier moves.  Each link adds its rates left to
    right in sample order: on the fluid engine, ``link_usage``'s sums.
    """

    name = "dard"

    def __init__(
        self,
        pnet: Optional[PNet] = None,
        seed: int = 0,
        candidates: Optional[int] = None,
        hysteresis: float = 1.2,
    ):
        super().__init__(pnet, seed)
        if hysteresis <= 1.0:
            raise ValueError("hysteresis must be > 1 to avoid oscillation")
        self.candidates = candidates
        self.hysteresis = hysteresis
        self._ksp: Optional[KspMultipathPolicy] = None

    def fingerprint(self) -> Dict[str, Any]:
        return {
            "policy": self.name, "seed": self.seed,
            "candidates": self.candidates, "hysteresis": self.hysteresis,
        }

    def decide(self, sample) -> List[ResteerDecision]:
        if self._ksp is None:
            k = self.candidates or 4 * self.pnet.n_planes
            self._ksp = KspMultipathPolicy(self.pnet, k=k, seed=self.seed)
        # Directed link -> [(flow index, rate), ...] in sample order.
        on_link: Dict[Tuple[int, str, str], List[Tuple[int, float]]] = {}
        for index, flow in enumerate(sample.flows):
            for path, rate in zip(flow.paths, flow.rates):
                for link in _links(path):
                    on_link.setdefault(link, []).append((index, rate))
        decisions: List[ResteerDecision] = []
        for index, flow in enumerate(sample.flows):
            if len(flow.paths) != 1:
                continue
            rate = left_sum(flow.rates)
            best, best_headroom = None, rate * self.hysteresis
            for path in self._ksp.select(flow.src, flow.dst, flow.gid):
                if path == flow.paths[0] or not path_is_live(self.pnet, path):
                    continue
                headroom = min(
                    self.pnet.plane(plane).link(u, v).capacity - left_sum(
                        r for i, r in on_link.get((plane, u, v), ())
                        if i != index
                    )
                    for plane, u, v in _links(path)
                )
                if headroom > best_headroom:
                    best, best_headroom = path, headroom
            if best is None:
                continue
            # Move it as the engine will: same place in sample order,
            # the whole rate on its one new path.
            for link in _links(flow.paths[0]):
                on_link[link] = [e for e in on_link[link] if e[0] != index]
            for link in _links(best):
                bisect.insort(on_link.setdefault(link, []), (index, rate))
            decisions.append(ResteerDecision(flow.gid, [best], reason="dard"))
        return decisions


def _links(plane_path: PlanePath) -> List[Tuple[int, str, str]]:
    """The directed links ``(plane, u, v)`` of a tagged path."""
    plane, path = plane_path
    return [(plane, u, v) for u, v in zip(path, path[1:])]


def _sort_key(gid):
    """Total order over flow ids (ints and engine-namespaced tuples)."""
    if isinstance(gid, tuple):
        return (1,) + tuple(_sort_key(part) for part in gid)
    return (0, gid)


#: Name -> class, the registry behind ``PNET_CONTROL_POLICY`` and the
#: ``control="<name>"`` spelling of :func:`repro.api.run_trial`.
#: :class:`DardPolicy` is left out: it is built as an object.
POLICIES = {
    EcmpReshufflePolicy.name: EcmpReshufflePolicy,
    FlowletPolicy.name: FlowletPolicy,
    LoadAwarePolicy.name: LoadAwarePolicy,
}


def make_policy(
    name: str, pnet: Optional[PNet] = None, seed: int = 0, **knobs: Any
) -> ResteerPolicy:
    """Build a registered policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown control policy {name!r} "
            f"(known: {', '.join(sorted(POLICIES))})"
        ) from None
    return cls(pnet=pnet, seed=seed, **knobs)
