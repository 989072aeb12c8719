"""Hybrid-fidelity co-simulation: fluid bulk + packet-accurate sample.

See :mod:`repro.hybrid.engine` for the coupling discipline,
:mod:`repro.hybrid.promotion` for the policy vocabulary, and
:mod:`repro.hybrid.bridge` for the fluid-to-packet load coupling.
Build one via ``repro.api.build_network(planes, kind="hybrid",
promotion=...)``.
"""

from repro.hybrid.bridge import BackgroundLoadBridge
from repro.hybrid.engine import HybridSimulator
from repro.hybrid.promotion import (
    FLUID,
    PACKET,
    CrossingFaultedPlane,
    PromoteAll,
    PromoteNone,
    PromotionPolicy,
    Sampled,
    Tagged,
    parse_policy,
    resolve_policy,
)

__all__ = [
    "BackgroundLoadBridge",
    "HybridSimulator",
    "FLUID",
    "PACKET",
    "CrossingFaultedPlane",
    "PromoteAll",
    "PromoteNone",
    "PromotionPolicy",
    "Sampled",
    "Tagged",
    "parse_policy",
    "resolve_policy",
]
