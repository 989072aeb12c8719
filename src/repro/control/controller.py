"""The deterministic control loop.

A :class:`Controller` samples per-subflow/per-plane state every
``interval`` simulated seconds and takes one step on each sample,
:meth:`Controller.decide`: fold it into its
:class:`~repro.control.monitor.ControlMonitor`, count the tick, and ask
its :class:`~repro.control.policy.ResteerPolicy` for decisions.

On an engine (:func:`repro.api.run_trial`'s ``control=`` attaches it)
the loop runs through members all three engines share: the clock
(``now``, ``schedule(at, fn)``, ``has_pending()``), ``control_rows()``
for the sample and ``resteer(gid, paths)`` for each decision.  The
engine moves the flow its own way -- abort and relaunch of the
un-ACKed remainder on the packet engine, migration in place on the
fluid one, and either per flow on a hybrid network -- and the flow
keeps its id on all three.  The loop is a self-rescheduling timer, a
picklable bound method: policy and monitor state ride
:mod:`repro.ckpt` snapshots and a resumed run continues the loop
byte-identically.

:func:`repro.shard.run_packet_trial` does not attach the controller,
at any shard count: the shard engine calls :meth:`Controller.decide`
at its epoch barriers (see :mod:`repro.control.sharded`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Union

from repro.control.monitor import ControlMonitor
from repro.control.policy import ResteerDecision, ResteerPolicy, make_policy
from repro.core.pnet import PNet
from repro.obs import get_registry

#: Control period (simulated seconds): one order above datacenter RTTs.
DEFAULT_INTERVAL = 1e-3


@dataclass
class ControlStats:
    """Plain counters of one run's control loop.

    ``ticks`` and ``decisions`` count in :meth:`Controller.decide`;
    ``applied`` and ``missed`` count wherever the decisions are applied.
    ``ticks`` and ``decisions`` also reach the run's registry, with a
    ``control.flows_seen`` gauge: an attached controller publishes them
    at each tick, :func:`repro.shard.run_packet_trial` once, when it
    merges.
    """

    ticks: int = 0
    decisions: int = 0
    applied: int = 0
    missed: int = 0
    #: ``run_packet_trial`` only: decisions narrowed to one shard, and
    #: flows invisible to control because they span shards.
    narrowed: int = 0
    skipped_spanning: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class Controller:
    """Periodic sample -> decide -> apply loop on one live run.

    Args:
        policy: a :class:`ResteerPolicy` instance (e.g. a
            :class:`~repro.control.policy.DardPolicy`) or a registered
            name (``"ecmp-reshuffle"`` | ``"flowlet"`` | ``"load-aware"``).
        interval: control period on the simulated clock (> 0).  Ticks
            land on absolute multiples of the interval, so serial and
            sharded runs sample at the same instants.
        seed: forwarded to the policy when built from a name.
        pnet: routing view for path candidates; derived from the
            network's planes at :meth:`attach` when omitted.
    """

    def __init__(
        self,
        policy: Union[ResteerPolicy, str],
        interval: float = DEFAULT_INTERVAL,
        seed: int = 0,
        pnet: Optional[PNet] = None,
    ):
        if isinstance(policy, str):
            policy = make_policy(policy, pnet=pnet, seed=seed)
        self.policy = policy
        self.interval = float(interval)
        if not self.interval > 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        self.pnet = pnet
        self.monitor = ControlMonitor()
        self.stats = ControlStats()
        self._network = None
        self._obs = None

    def fingerprint(self) -> Dict[str, Any]:
        fp = dict(self.policy.fingerprint())
        fp["interval"] = self.interval
        return fp

    # --- wiring -------------------------------------------------------------

    def claim(self, owner) -> None:
        """Bind this controller to the one run ``owner`` -- a serial
        engine or a shard control driver -- drives.  Its policy, monitor
        and stats then hold that run's state, so a second claim raises."""
        if self._network is not None:
            raise RuntimeError("controller is already attached")
        self._network = owner

    def adopt(self, policy, monitor, stats: ControlStats) -> None:
        """Hold a resumed run's restored policy, monitor and stats, so
        this controller reports the whole run, as it would had the run
        never stopped."""
        self.policy, self.monitor, self.stats = policy, monitor, stats

    def attach(self, network) -> None:
        """Start the loop on a serial engine's simulated clock."""
        self.claim(network)
        if self.pnet is None:
            self.pnet = PNet(network.planes)
        self.policy.bind(self.pnet)
        self._obs = getattr(network, "obs", None) or get_registry()
        # Bound method, not a closure: pending ticks must pickle so a
        # checkpoint taken mid-run resumes the control loop.
        network.schedule(self.interval, self._tick)

    # --- the loop -----------------------------------------------------------

    def decide(
        self,
        now: float,
        n_planes: int,
        plane_cum: Dict[int, float],
        rows: List[Dict[str, Any]],
    ) -> List[ResteerDecision]:
        """One control step on a raw sample: ingest, count, decide.

        ``plane_cum`` and ``rows`` are ``control_rows()``'s two halves
        (cumulative bytes per plane, one row per live flow).  The
        attached loop and the shard engine's barrier driver both call
        this, so every run samples, counts and decides one way; applying
        the decisions is the caller's.
        """
        sample = self.monitor.ingest(
            now, self.interval, n_planes, rows, plane_cum=plane_cum
        )
        self.stats.ticks += 1
        decisions = self.policy.decide(sample)
        self.stats.decisions += len(decisions)
        return decisions

    def _tick(self) -> None:
        net = self._network
        now = net.now
        plane_cum, rows = net.control_rows()
        decisions = self.decide(now, len(net.planes), plane_cum, rows)
        for decision in decisions:
            if net.resteer(decision.gid, decision.paths):
                self.stats.applied += 1
            else:
                self.stats.missed += 1
        obs = self._obs
        if obs is not None and obs.enabled:
            obs.counter("control.ticks").inc()
            if decisions:
                obs.counter("control.decisions").inc(len(decisions))
            obs.gauge("control.flows_seen").set(len(rows))
        # Stop once the run has drained: on the packet engine an eternal
        # timer would keep ``run(until=inf)`` from ever emptying its heap.
        if net.has_pending():
            net.schedule(now + self.interval, self._tick)


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
