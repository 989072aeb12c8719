#!/usr/bin/env python
"""Example: adaptive path control -- resteering flows while they run.

A static multipath placement picks K of N planes per flow once, at
launch.  On sparse traffic that gamble goes wrong: hash collisions
pile several flows onto the same planes while others sit idle, and
nothing ever moves them.  `repro.control` closes the loop: a
deterministic controller samples per-subflow progress and per-plane
load on the simulated clock and lets a pluggable policy resteer the
laggards.

This demo runs the same sparse K=2-of-4-planes KSP permutation twice
on a heterogeneous Jellyfish P-Net -- once static, once with the
hysteresis-guarded load-aware policy -- and compares flow completion
times.  Any trial attaches the same loop by passing `control=` to
`repro.api.run_trial`.

Run:  python examples/adaptive_control.py
"""

import random

from repro.analysis.stats import summarize
from repro.api import build_network, run_trial
from repro.control import Controller, LoadAwarePolicy
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import JellyfishFamily
from repro.traffic.patterns import permutation
from repro.units import MB

SEED = 1          # a matrix where static KSP collides badly
N_PLANES = 4
K = 2             # subflows per flow: 2 planes gambled out of 4
ACTIVE = 6        # sparse: most hosts stay silent
FLOW_BYTES = 200 * MB


def build_pnet():
    family = JellyfishFamily(10, 4, 2)
    return family.parallel_heterogeneous(N_PLANES, seed=SEED)


def sparse_specs(pnet) -> list:
    pairs = permutation(
        pnet.hosts, random.Random(f"control-{SEED}")
    )[:ACTIVE]
    ksp = KspMultipathPolicy(pnet, k=K, seed=SEED)
    return [
        FlowSpec(
            src=src, dst=dst, size=FLOW_BYTES,
            paths=ksp.select(src, dst, flow_id),
        )
        for flow_id, (src, dst) in enumerate(pairs)
    ]


def run_once(pnet, specs, control):
    sim = build_network(pnet.planes, kind="fluid", slow_start=False)
    return run_trial(sim, specs, control=control)


def main() -> None:
    pnet = build_pnet()
    specs = sparse_specs(pnet)
    print(
        f"{len(pnet.hosts)} hosts x {N_PLANES} planes, "
        f"{ACTIVE} flows x {FLOW_BYTES // MB} MB, K={K} subflows each\n"
    )

    # Arm 1: the static gamble.
    static = run_once(pnet, specs, control=None)

    # Arm 2: the same matrix under the load-aware controller.  Every
    # millisecond of simulated time it moves the most-lagging subflow
    # onto the least-loaded plane, but only past a 1.5x hysteresis bar
    # (so balanced placements are left alone).
    controller = Controller(
        LoadAwarePolicy(seed=SEED, hysteresis=1.5), interval=1e-3
    )
    adaptive = run_once(pnet, specs, control=controller)

    adaptive_fct = {r.flow_id: r.fct for r in adaptive.records}
    print(f"{'flow':>4}  {'static FCT (ms)':>16}  {'adaptive (ms)':>14}")
    for before in sorted(static.records, key=lambda r: r.flow_id):
        after = adaptive_fct[before.flow_id]
        marker = "  <- resteered" if after < before.fct * 0.999 else ""
        print(
            f"{before.flow_id:>4}  {before.fct * 1e3:>16.3f}"
            f"  {after * 1e3:>14.3f}{marker}"
        )

    mean_static = summarize([r.fct for r in static.records]).mean
    mean_adaptive = summarize([r.fct for r in adaptive.records]).mean
    stats = adaptive.meta["control"]["stats"]
    print(
        f"\ncontroller: {stats['ticks']} ticks, "
        f"{stats['decisions']} decisions, {stats['applied']} applied"
    )
    print(
        f"mean FCT {mean_static * 1e3:.3f} -> {mean_adaptive * 1e3:.3f} ms "
        f"(speedup {mean_static / mean_adaptive:.3f})"
    )
    print(
        "load-aware resteering beat the static placement: "
        f"{mean_adaptive < mean_static}"
    )


if __name__ == "__main__":
    main()
