"""The deterministic control loop for serial engines.

A :class:`Controller` samples per-subflow/per-plane state every
``interval`` simulated seconds (``PNET_CONTROL_INTERVAL``), feeds the
:class:`~repro.control.monitor.ControlSample` to its
:class:`~repro.control.policy.ResteerPolicy`, and applies the decisions
through :mod:`repro.control.actions` -- abort+relaunch on the packet
engine, in-place migrate on the fluid one, and per-flow routing between
the two on a hybrid network.

It attaches to any of the three engines (:func:`repro.api.run_trial`'s
``control=`` does this) through the clock all three share -- ``now``,
``schedule(at, fn)``, ``has_pending()`` -- as a self-rescheduling
timer, a picklable bound method: policy and monitor state ride
:mod:`repro.ckpt` snapshots and a resumed run continues the loop
byte-identically.

Sharded runs do not attach a controller; the shard engine drives the
same policy/monitor objects at its lookahead barriers (see
:mod:`repro.control.sharded`).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Union

from repro.control import actions
from repro.control.monitor import (
    ControlMonitor,
    sample_fluid_rows,
    sample_packet_rows,
)
from repro.control.policy import POLICIES, ResteerPolicy, make_policy
from repro.core.pnet import PNet
from repro.fluid.flowsim import FluidSimulator
from repro.hybrid.engine import HybridSimulator
from repro.obs import get_registry
from repro.sim.network import PacketNetwork

#: Default control period in simulated seconds -- one order above
#: datacenter RTTs, the same ballpark as the DARD epoch.
DEFAULT_CONTROL_INTERVAL = 1e-3


def get_control_interval(override: Optional[float] = None) -> float:
    """Resolve the control period: override, else ``PNET_CONTROL_INTERVAL``."""
    if override is None:
        raw = os.environ.get("PNET_CONTROL_INTERVAL", "")
        if not raw:
            return DEFAULT_CONTROL_INTERVAL
        try:
            override = float(raw)
        except ValueError:
            raise ValueError(
                f"PNET_CONTROL_INTERVAL must be a number, got {raw!r}"
            ) from None
    if override <= 0:
        raise ValueError(f"control interval must be > 0, got {override}")
    return override


def get_control_policy(override: Optional[str] = None) -> Optional[str]:
    """Resolve the policy name: override, else ``PNET_CONTROL_POLICY``.

    Returns ``None`` (control off) when unset, empty, or ``"off"``, and
    raises ``ValueError`` for a name :data:`POLICIES` does not know.
    """
    if override is None:
        override = os.environ.get("PNET_CONTROL_POLICY", "")
    name = override.strip()
    if not name or name == "off":
        return None
    if name not in POLICIES:
        raise ValueError(
            f"unknown control policy {name!r} "
            f"(known: {', '.join(sorted(POLICIES))}, off)"
        )
    return name


@dataclass
class ControlStats:
    """Plain counters mirroring the controller's obs metrics."""

    ticks: int = 0
    decisions: int = 0
    applied: int = 0
    missed: int = 0
    #: Sharded runs only: decisions narrowed to one shard, and flows
    #: invisible to control because they span shards.
    narrowed: int = 0
    skipped_spanning: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class Controller:
    """Periodic sample -> decide -> apply loop on one live network.

    Args:
        policy: a :class:`ResteerPolicy` instance (e.g. a
            :class:`~repro.control.policy.DardPolicy`) or a registered
            name (``"ecmp-reshuffle"`` | ``"flowlet"`` | ``"load-aware"``).
        interval: control period on the simulated clock; default
            ``PNET_CONTROL_INTERVAL`` (else 1 ms).  Ticks land on
            absolute multiples of the interval, so serial and sharded
            runs sample at the same instants.
        seed: forwarded to the policy when built from a name.
        pnet: routing view for path candidates; derived from the
            network's planes at :meth:`attach` when omitted.
    """

    def __init__(
        self,
        policy: Union[ResteerPolicy, str],
        interval: Optional[float] = None,
        seed: int = 0,
        pnet: Optional[PNet] = None,
    ):
        if isinstance(policy, str):
            policy = make_policy(policy, pnet=pnet, seed=seed)
        self.policy = policy
        self.interval = get_control_interval(interval)
        self.pnet = pnet
        self.monitor = ControlMonitor()
        self.stats = ControlStats()
        self._network = None
        self._obs = None
        #: Optional ``fn(old_fid, new_fid)`` observer for serial packet
        #: resteers (the shard engine's one-shard path re-keys its
        #: gid table through this).  Must be picklable if set.
        self.on_rekey = None

    def fingerprint(self) -> Dict[str, Any]:
        fp = dict(self.policy.fingerprint())
        fp["interval"] = self.interval
        return fp

    # --- wiring -------------------------------------------------------------

    def attach(self, network) -> None:
        """Start the loop on a serial engine's simulated clock."""
        if self._network is not None:
            raise RuntimeError("controller is already attached")
        if not isinstance(
            network, (PacketNetwork, FluidSimulator, HybridSimulator)
        ):
            raise TypeError(
                f"cannot attach a controller to {type(network).__name__}; "
                "expected PacketNetwork, FluidSimulator or HybridSimulator"
            )
        if self.pnet is None:
            self.pnet = PNet(network.planes)
        self.policy.bind(self.pnet)
        self._network = network
        self._obs = getattr(network, "obs", None) or get_registry()
        # Bound method, not a closure: pending ticks must pickle so a
        # checkpoint taken mid-run resumes the control loop.
        network.schedule(self.interval, self._tick)

    # --- the loop -----------------------------------------------------------

    def _tick(self) -> None:
        net = self._network
        now = net.now
        self.stats.ticks += 1
        sample = self._sample(now)
        decisions = self.policy.decide(sample)
        self.stats.decisions += len(decisions)
        for decision in decisions:
            if self._apply(decision):
                self.stats.applied += 1
            else:
                self.stats.missed += 1
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.counter("control.ticks").inc()
            if decisions:
                obs.counter("control.decisions").inc(len(decisions))
            obs.gauge("control.flows_seen").set(len(sample.flows))
        # Stop once the run has drained: on the packet engine an eternal
        # timer would keep ``run(until=inf)`` from ever emptying its heap.
        if net.has_pending():
            net.schedule(now + self.interval, self._tick)

    def _sample(self, now: float):
        net = self._network
        n_planes = len(net.planes)
        if isinstance(net, PacketNetwork):
            plane_cum, rows = sample_packet_rows(net)
        elif isinstance(net, FluidSimulator):
            plane_cum = None
            rows = sample_fluid_rows(net)
        else:  # hybrid: both sub-engines, ids namespaced per engine
            plane_cum, rows = sample_packet_rows(
                net.packet, gid_of=lambda fid: ("packet", fid)
            )
            rows += sample_fluid_rows(
                net.fluid, gid_of=lambda fid: ("fluid", fid)
            )
        return self.monitor.ingest(
            now, self.interval, n_planes, rows, plane_cum=plane_cum
        )

    def _apply(self, decision) -> bool:
        net = self._network
        gid = decision.gid
        if isinstance(net, HybridSimulator):
            engine, fid = gid
            if engine == "packet":
                return self._apply_packet(net.packet, fid, decision, gid)
            return actions.migrate(net.fluid, fid, decision.paths)
        if isinstance(net, FluidSimulator):
            return actions.migrate(net, gid, decision.paths)
        return self._apply_packet(net, gid, decision, gid)

    def _apply_packet(self, net, fid: int, decision, gid) -> bool:
        entry = _find_active(net, fid)
        if entry is None:
            return False  # completed between sample and apply
        source, spec = entry
        # Relaunches happen at the tick instant; under a hybrid run the
        # packet loop may sit exactly at the shared frontier, never past
        # it, so the max is a no-op guard.
        at = max(self._network.now, net.now)
        new_source = actions.abort_and_relaunch(
            net, fid, source, spec, decision.paths, at
        )
        if new_source is None:
            return False
        new_fid = net.flow_id_of(new_source)
        if new_fid is not None:
            new_gid = (
                (gid[0], new_fid) if isinstance(gid, tuple) else new_fid
            )
            self.policy.rekey(gid, new_gid)
            self.monitor.rekey(gid, new_gid)
            if self.on_rekey is not None:
                self.on_rekey(fid, new_fid)
        return True


def as_controller(control) -> Controller:
    """Coerce ``control=`` spellings to a :class:`Controller`.

    Accepts a live controller, a policy object, or a registered policy
    name.
    """
    if isinstance(control, Controller):
        return control
    if isinstance(control, (ResteerPolicy, str)):
        return Controller(control)
    raise TypeError(
        f"control= expects a Controller, ResteerPolicy or policy name, "
        f"got {type(control).__name__}"
    )


def _find_active(net, fid: int):
    for flow_id, source, spec in net.active_flows():
        if flow_id == fid:
            return source, spec
    return None

