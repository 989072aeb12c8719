"""The deterministic control loop for serial engines.

A :class:`Controller` samples per-subflow/per-plane state every
``interval`` simulated seconds (``PNET_CONTROL_INTERVAL``), feeds the
:class:`~repro.control.monitor.ControlSample` to its
:class:`~repro.control.policy.ResteerPolicy`, and applies the decisions.

It drives any of the three engines (:func:`repro.api.run_trial`'s
``control=`` attaches it) through members all three share: the clock
(``now``, ``schedule(at, fn)``, ``has_pending()``), ``control_rows()``
for the sample and ``resteer(gid, paths)`` for each decision.  The
engine moves the flow its own way -- abort and relaunch on the packet
engine (a fresh flow id, which the controller re-keys), migration in
place on the fluid one, and either per flow on a hybrid network.  The
loop is a self-rescheduling timer, a picklable bound method: policy
and monitor state ride :mod:`repro.ckpt` snapshots and a resumed run
continues the loop byte-identically.

Sharded runs do not attach a controller; the shard engine drives the
same policy/monitor objects at its lookahead barriers (see
:mod:`repro.control.sharded`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Union

from repro.config import current
from repro.control.monitor import ControlMonitor
from repro.control.policy import ResteerPolicy, make_policy
from repro.core.pnet import PNet
from repro.obs import get_registry


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
            the current config's (``PNET_CONTROL_INTERVAL``, else
            1 ms).  Ticks land on
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
        self.interval = current(control_interval=interval).control_interval
        self.pnet = pnet
        self.monitor = ControlMonitor()
        self.stats = ControlStats()
        self._network = None
        self._obs = None
        #: Optional ``fn(old_gid, new_gid)`` observer for resteers that
        #: change a flow's id (the shard engine's one-shard path re-keys
        #: its gid table through this).  Must be picklable if set.
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
        plane_cum, rows = net.control_rows()
        return self.monitor.ingest(
            now, self.interval, len(net.planes), rows, plane_cum=plane_cum
        )

    def _apply(self, decision) -> bool:
        gid = decision.gid
        new_gid = self._network.resteer(gid, decision.paths)
        if new_gid is None:
            return False  # completed between sample and apply
        if new_gid != gid:
            self.policy.rekey(gid, new_gid)
            self.monitor.rekey(gid, new_gid)
            if self.on_rekey is not None:
                self.on_rekey(gid, new_gid)
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
