"""repro.control -- online adaptive path control plane.

Closes the loop from measurement to path decision while the simulation
runs: a deterministic, seedable :class:`Controller` samples
per-subflow/per-plane state every ``PNET_CONTROL_INTERVAL`` simulated
seconds, feeds it to a pluggable :class:`ResteerPolicy`
(``ecmp-reshuffle`` | ``flowlet`` | ``load-aware``, or DARD as a
:class:`DardPolicy`), and applies the decisions through the
engine-agnostic resteer actions shared with :mod:`repro.faults`.
Enable it with ``run_trial(control=...)`` on any engine, or via
``PNET_CONTROL_POLICY``; sharded packet runs drive the same policy
objects at lookahead barriers (:mod:`.sharded`) instead of falling
back to serial.
"""

from repro.control import actions
from repro.control.controller import (
    DEFAULT_CONTROL_INTERVAL,
    Controller,
    ControlStats,
    as_controller,
    get_control_interval,
    get_control_policy,
)
from repro.control.monitor import (
    ControlMonitor,
    ControlSample,
    FlowView,
    sample_fluid_rows,
    sample_packet_rows,
)
from repro.control.policy import (
    DEFAULT_COOLDOWN,
    DEFAULT_HYSTERESIS,
    POLICIES,
    DardPolicy,
    EcmpReshufflePolicy,
    FlowletPolicy,
    LoadAwarePolicy,
    ResteerDecision,
    ResteerPolicy,
    get_control_cooldown,
    get_control_hysteresis,
    make_policy,
)
from repro.control.sharded import ShardControlDriver

__all__ = [
    "DEFAULT_CONTROL_INTERVAL",
    "DEFAULT_COOLDOWN",
    "DEFAULT_HYSTERESIS",
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
    "actions",
    "as_controller",
    "get_control_cooldown",
    "get_control_hysteresis",
    "get_control_interval",
    "get_control_policy",
    "make_policy",
    "sample_fluid_rows",
    "sample_packet_rows",
]
