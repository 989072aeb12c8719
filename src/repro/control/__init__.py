"""repro.control -- online adaptive path control plane.

Closes the loop from measurement to path decision while the simulation
runs: a deterministic, seedable :class:`Controller` samples
per-subflow/per-plane state every ``interval`` simulated seconds,
feeds it to a pluggable :class:`ResteerPolicy`
(``ecmp-reshuffle`` | ``flowlet`` | ``load-aware``, or DARD as a
:class:`DardPolicy`), and applies the decisions through the engine's
own ``resteer``, the same call :mod:`repro.faults` makes.
Enable it with ``run_trial(control=...)`` on any engine, or
``run_packet_trial(control=...)``, which steps the same controller at
its epoch barriers at every shard count (:mod:`.sharded`).  A
controller drives one run: reusing it raises.
"""

from repro.control.controller import Controller, ControlStats, as_controller
from repro.control.monitor import (
    ControlMonitor,
    ControlSample,
    FlowView,
)
from repro.control.policy import (
    POLICIES,
    DardPolicy,
    EcmpReshufflePolicy,
    FlowletPolicy,
    LoadAwarePolicy,
    ResteerDecision,
    ResteerPolicy,
    make_policy,
)
from repro.control.sharded import ShardControlDriver

__all__ = [
    "POLICIES",
    "Controller",
    "ControlMonitor",
    "ControlSample",
    "ControlStats",
    "DardPolicy",
    "EcmpReshufflePolicy",
    "FlowView",
    "FlowletPolicy",
    "LoadAwarePolicy",
    "ResteerDecision",
    "ResteerPolicy",
    "ShardControlDriver",
    "as_controller",
    "make_policy",
]
