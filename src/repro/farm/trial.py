"""A reference trial for farm drills, CI and examples.

:func:`demo_trial` is an ordinary runner trial function -- module-level,
picklable kwargs, deterministic given ``seed`` -- that runs a small
packet simulation and returns its canonical JSON, so a farm's merged
results compare to a single-host run's with a plain ``==``.

``wall_pause`` sleeps that many wall-clock seconds before the
simulation without touching simulated time, so recovery drills can
SIGKILL a worker mid-trial deterministically; the reassigned trial is
recomputed and returns the same string.
"""

from __future__ import annotations

import time

from repro.core.flowspec import FlowSpec
from repro.topology.graph import HOST, TOR, Topology
from repro.units import Gbps, MB


def _dumbbell(cap: float = 10 * Gbps, prop: float = 1e-6) -> Topology:
    topo = Topology("farm-dumbbell")
    for i in range(4):
        topo.add_node(f"h{i}", HOST)
    topo.add_node("t0", TOR)
    topo.add_node("t1", TOR)
    topo.add_link("h0", "t0", cap, prop)
    topo.add_link("h1", "t0", cap, prop)
    topo.add_link("h2", "t1", cap, prop)
    topo.add_link("h3", "t1", cap, prop)
    topo.add_link("t0", "t1", cap, prop)
    return topo


_PATHS = {
    ("h0", "h2"): [(0, ["h0", "t0", "t1", "h2"])],
    ("h1", "h3"): [(0, ["h1", "t0", "t1", "h3"])],
}


def _flows(n_flows: int, size_mb: float, seed: int):
    """Deterministic staggered flows across the dumbbell bottleneck."""
    import random

    rng = random.Random(seed)
    pairs = list(_PATHS)
    specs = []
    for i in range(n_flows):
        src, dst = pairs[i % len(pairs)]
        specs.append(FlowSpec(
            src=src,
            dst=dst,
            size=int(size_mb * MB * rng.uniform(0.5, 1.5)),
            paths=_PATHS[(src, dst)],
            at=i * 1e-4 + rng.uniform(0.0, 5e-5),
        ))
    return specs


def demo_trial(
    n_flows: int = 6,
    size_mb: float = 1.0,
    seed: int = 0,
    wall_pause: float = 0.0,
) -> str:
    """Run the reference packet trial; returns canonical result JSON.

    The return value is :meth:`repro.api.TrialResult.to_json` -- a
    stable string, so byte comparison across farm topologies is a plain
    ``==``.
    """
    from repro import api

    flows = _flows(n_flows, size_mb, seed)
    time.sleep(wall_pause)
    network = api.build_network([_dumbbell()], kind="packet")
    return api.run_trial(network, flows).to_json()
