"""Traced telemetry probe trial (determinism checks).

``traced_trial`` runs one small packet simulation with a private live
:class:`~repro.obs.Registry` and tracer attached, and returns only
deterministic, picklable data: the simulation-derived metric snapshot
and the trace events (both stamped with *simulated* time).  Because the
registry is constructed inside the trial, the function is safe to fan
out over :func:`repro.exp.runner.run_trials` workers -- results must be
byte-identical at any ``PNET_JOBS``, which ``tests/test_obs.py`` locks
in.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from repro.core.flowspec import FlowSpec
from repro.core.monitoring import NetworkMonitor
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import JellyfishFamily
from repro.obs import Registry, Tracer
from repro.api import build_network
from repro.traffic.patterns import permutation


def traced_trial(
    switches: int = 8,
    degree: int = 4,
    hosts_per: int = 1,
    n_planes: int = 2,
    size: int = 200_000,
    seed: int = 0,
    verbose: bool = False,
) -> Dict[str, Any]:
    """One traced permutation trial on a parallel Jellyfish P-Net.

    Returns a dict of deterministic results:

    * ``metrics``: registry snapshot rows (``include_wallclock=False``);
    * ``trace``: trace events as plain dicts, simulated-time stamped;
    * ``monitor``: the :class:`NetworkMonitor` per-plane merge, as
      ``{plane: {"flows", "bytes", "drops"}}`` -- byte/drop counts here
      must exactly match the exported metric rows.
    """
    family = JellyfishFamily(switches, degree, hosts_per)
    pnet = family.parallel_homogeneous(n_planes)
    registry = Registry(tracer=Tracer(verbose=verbose))
    net = build_network(pnet.planes, kind="packet", obs=registry)
    policy = KspMultipathPolicy(pnet, k=2 * n_planes, seed=seed)
    pairs = permutation(pnet.hosts, random.Random(f"obs-probe-{seed}"))
    for flow_id, (src, dst) in enumerate(pairs):
        net.add_flow(spec=FlowSpec(
            src=src, dst=dst, size=size,
            paths=policy.select(src, dst, flow_id),
        ))
    net.run()
    monitor = NetworkMonitor.from_network(net)
    return {
        "metrics": registry.snapshot(include_wallclock=False),
        "trace": [event.as_dict() for event in registry.tracer.events()],
        "monitor": {
            plane: {
                "flows": stats.flows,
                "bytes": stats.bytes_carried,
                "drops": stats.drops,
            }
            for plane, stats in monitor.stats.items()
        },
    }
