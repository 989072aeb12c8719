"""A reference preemption-safe trial for farm drills, CI and examples.

:func:`demo_trial` is an ordinary runner trial function -- module-level,
picklable kwargs, deterministic given ``seed`` -- that additionally
declares the ``checkpoint_dir``/``checkpoint_every`` keywords the farm
worker injects.  Called without them (the single-host path) it runs a
small packet simulation straight through; called with them it
checkpoints every few simulated seconds and, when a checkpoint already
exists in its per-trial directory, *resumes* from it instead of
starting over.  The packet engine's any-cut byte-identity contract
(``tests/test_ckpt_resume.py``) makes both paths return the same
canonical JSON, which is exactly what the farm's byte-identical-merge
acceptance drill asserts.

``wall_pause`` stretches wall-clock time per checkpoint without
touching simulated time, so recovery tests can SIGKILL a worker
mid-trial deterministically.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.core.flowspec import FlowSpec
from repro.topology.graph import HOST, TOR, Topology
from repro.units import Gbps, MB

#: Default snapshot interval (simulated seconds) when the caller gives a
#: checkpoint dir but no interval: ~25 snapshots over the default grid.
DEFAULT_EVERY = 2e-4


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
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: Optional[float] = None,
    wall_pause: float = 0.0,
) -> str:
    """Run the reference packet trial; returns canonical result JSON.

    The return value is :meth:`repro.api.TrialResult.to_json` -- a
    stable string, so byte comparison across farm topologies is a plain
    ``==``.
    """
    from repro import api

    flows = _flows(n_flows, size_mb, seed)
    on_checkpoint = None
    if checkpoint_dir is not None:
        if wall_pause > 0:
            def on_checkpoint(_path, _pause=wall_pause):
                time.sleep(_pause)
        if checkpoint_every is None:
            checkpoint_every = DEFAULT_EVERY
        from repro.ckpt.store import latest

        if latest(checkpoint_dir) is not None:
            result = api.resume_trial(
                checkpoint_dir,
                checkpoint_every=checkpoint_every,
                on_checkpoint=on_checkpoint,
            )
            return result.to_json()
    network = api.build_network([_dumbbell()], kind="packet")
    result = api.run_trial(
        network,
        flows,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
    )
    return result.to_json()
