"""P-Net: Parallel Dataplane Networks.

A from-scratch Python reproduction of "Scaling beyond packet switch
limits with multiple dataplanes" (CoNEXT 2022): topologies, host-side
path selection, LP throughput solvers, packet- and flow-level
simulators, workloads, and the full experiment harness.

Quick tour::

    from repro import PNet, ParallelTopology, build_jellyfish
    from repro.core import EndHost, TrafficClass

    planes = ParallelTopology.heterogeneous(
        lambda seed: build_jellyfish(16, 6, 2, seed=seed), n_planes=4)
    pnet = PNet(planes)
    host = EndHost(pnet, "h0")
    flow = host.open_flow("h31", 2 * 10**9)   # bulk -> MPTCP over 32 paths

See README.md for the architecture overview and DESIGN.md for the
per-experiment index.
"""

from repro.core.pnet import PNet
from repro.topology import (
    ParallelTopology,
    Topology,
    build_fat_tree,
    build_jellyfish,
    build_two_tier_fat_tree,
    build_xpander,
)
from repro import api
from repro.api import (
    TrialResult,
    attach_telemetry,
    build_network,
    resume_trial,
    run_trial,
)
from repro.core.flowspec import FlowSpec
from repro.faults import FaultEvent, FaultInjector, FaultSchedule

__version__ = "1.0.0"

__all__ = [
    "PNet",
    "ParallelTopology",
    "Topology",
    "build_fat_tree",
    "build_two_tier_fat_tree",
    "build_jellyfish",
    "build_xpander",
    "api",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FlowSpec",
    "TrialResult",
    "attach_telemetry",
    "build_network",
    "resume_trial",
    "run_trial",
    "__version__",
]
