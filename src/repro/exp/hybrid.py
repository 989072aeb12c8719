"""Hybrid fidelity: the fig9 permutation workload across the spectrum.

Runs the same random-permutation workload (fig9's parallel-homogeneous
Jellyfish, each flow KSP-multipathed over all planes) on all three
engines -- pure packet, pure fluid, and hybrid with a sampled subset
promoted to packet fidelity -- and reports mean FCT per engine plus the
hybrid's deviation from pure packet **on the promoted flows** (the ones
that actually ran at packet fidelity on both sides).  That deviation is
the accuracy axis of the accuracy-vs-speed envelope; the wall-clock
axis is measured separately by ``benchmarks/test_hybrid_bench.py``
(results in ``BENCH_hybrid.json``), keeping this experiment's output
deterministic and cacheable.

Knobs, as :func:`run` arguments and ``python -m repro hybrid`` flags:

* ``fidelity`` (``--fidelity packet|fluid|hybrid``) -- run only that
  engine;
* ``promote`` (``--promote <spec>``) -- promotion policy for the hybrid
  run (:func:`repro.hybrid.promotion.parse_policy` spelling, e.g.
  ``sampled:0.1:0`` or ``tagged:probe``), or a bare probability.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import summarize
from repro.api import build_network, run_trial
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import (
    JellyfishFamily,
    PARALLEL_HOMOGENEOUS,
    format_table,
    get_scale,
    network_for_label,
)
from repro.exp.runner import TrialSpec, run_trials
from repro.hybrid.promotion import resolve_policy
from repro.units import KB, MB

PRESETS = {
    "tiny": dict(
        switches=12, degree=5, hosts_per=2, n_planes=4,
        size=100 * KB, seeds=(0,), promote="sampled:0.125:0",
    ),
    "small": dict(
        switches=16, degree=5, hosts_per=2, n_planes=4,
        size=400 * KB, seeds=(0, 1), promote="sampled:0.1:0",
    ),
    "full": dict(
        switches=24, degree=6, hosts_per=4, n_planes=4,
        size=1 * MB, seeds=(0, 1, 2), promote="sampled:0.1:0",
    ),
}

ENGINES = ("fluid", "hybrid", "packet")


@dataclass
class HybridResult:
    n_hosts: int
    n_planes: int
    promote: str
    #: engine -> mean FCT seconds (only the engines that ran).
    mean_fct: Dict[str, float] = field(default_factory=dict)
    #: flows promoted to packet fidelity in the hybrid run.
    promoted_flows: int = 0
    total_flows: int = 0
    #: mean relative FCT deviation of hybrid vs pure packet, over the
    #: promoted flows only (NaN unless both engines ran).
    promoted_deviation: float = math.nan
    #: same deviation of hybrid's fluid-side flows vs pure fluid.
    fluid_side_deviation: float = math.nan


def engine_trial(
    switches: int,
    degree: int,
    hosts_per: int,
    n_planes: int,
    size: int,
    seed: int,
    engine: str,
    promote: Optional[str] = None,
) -> Dict[str, Dict[int, object]]:
    """FCTs (and fidelity map) of the permutation workload on one engine.

    Flow ids are submission order on every engine, so per-flow FCTs are
    directly comparable across engines.
    """
    family = JellyfishFamily(switches, degree, hosts_per)
    pnet = network_for_label(family, PARALLEL_HOMOGENEOUS, n_planes)
    pairs = permutation_pairs(pnet, seed)
    policy = KspMultipathPolicy(pnet, k=n_planes, seed=seed)
    specs = [
        FlowSpec(src=src, dst=dst, size=size,
                 paths=policy.select(src, dst, flow_id))
        for flow_id, (src, dst) in enumerate(pairs)
    ]
    kwargs = {"slow_start": True} if engine != "packet" else {}
    if engine == "hybrid":
        kwargs["promotion"] = promote
    net = build_network(pnet.planes, kind=engine, **kwargs)
    result = run_trial(net, specs)
    return {
        "fcts": {r.flow_id: r.fct for r in result.records},
        "fidelity": dict(result.fidelity),
    }


def permutation_pairs(pnet, seed: int) -> List[Tuple[str, str]]:
    from repro.traffic.patterns import permutation

    return permutation(pnet.hosts, random.Random(f"hybrid-{seed}"))


def run(
    scale: Optional[str] = None,
    fidelity: Optional[str] = None,
    promote: Optional[str] = None,
) -> HybridResult:
    """Run the workload on every engine, or on ``fidelity`` only;
    ``promote`` replaces the preset's promotion policy."""
    params = PRESETS[get_scale(scale)]
    if fidelity is not None and fidelity not in ENGINES:
        raise ValueError(
            f"fidelity must be one of {ENGINES}, got {fidelity!r}"
        )
    engines = ENGINES if fidelity is None else (fidelity,)
    promote = params["promote"] if promote is None else promote
    resolve_policy(promote)  # a bad spec fails here, before any trial
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    net_kwargs = dict(
        switches=params["switches"],
        degree=params["degree"],
        hosts_per=params["hosts_per"],
        n_planes=params["n_planes"],
        size=params["size"],
    )
    specs = [
        TrialSpec(
            fn="repro.exp.hybrid:engine_trial",
            key=(engine, seed),
            kwargs=dict(
                engine=engine, seed=seed,
                promote=promote if engine == "hybrid" else None,
                **net_kwargs,
            ),
        )
        for engine in engines
        for seed in params["seeds"]
    ]
    trials = run_trials(specs)

    result = HybridResult(
        n_hosts=family.n_hosts,
        n_planes=params["n_planes"],
        promote=str(promote),
    )
    for engine in engines:
        fcts: List[float] = []
        for seed in params["seeds"]:
            fcts.extend(trials[(engine, seed)]["fcts"].values())
        result.mean_fct[engine] = summarize(fcts).mean
    if "hybrid" in engines:
        for seed in params["seeds"]:
            fidelity = trials[("hybrid", seed)]["fidelity"]
            result.total_flows += len(fidelity)
            result.promoted_flows += sum(
                1 for f in fidelity.values() if f == "packet"
            )
    if "hybrid" in engines and "packet" in engines:
        result.promoted_deviation = _deviation(
            trials, params["seeds"], against="packet", side="packet"
        )
    if "hybrid" in engines and "fluid" in engines:
        result.fluid_side_deviation = _deviation(
            trials, params["seeds"], against="fluid", side="fluid"
        )
    return result


def _deviation(trials, seeds, against: str, side: str) -> float:
    """Mean |hybrid - pure| / pure over hybrid flows on ``side``."""
    deviations: List[float] = []
    for seed in seeds:
        hybrid = trials[("hybrid", seed)]
        pure = trials[(against, seed)]["fcts"]
        for flow_id, fidelity in hybrid["fidelity"].items():
            if fidelity != side:
                continue
            h, p = hybrid["fcts"][flow_id], pure[flow_id]
            deviations.append(abs(h - p) / p)
    return summarize(deviations).mean if deviations else math.nan


def main(**knobs) -> HybridResult:
    result = run(**knobs)
    print(
        f"Hybrid fidelity: fig9 permutation workload, {result.n_hosts}-host "
        f"Jellyfish, {result.n_planes} planes, promote={result.promote}\n"
    )
    rows = [
        [engine, f"{result.mean_fct[engine] * 1e3:.3f}"]
        for engine in ENGINES
        if engine in result.mean_fct
    ]
    print(format_table(["engine", "mean FCT (ms)"], rows))
    if result.total_flows:
        print(
            f"\npromoted {result.promoted_flows}/{result.total_flows} flows "
            f"to packet fidelity"
        )
    if not math.isnan(result.promoted_deviation):
        print(
            f"promoted-set FCT deviation vs pure packet: "
            f"{result.promoted_deviation:.2%}"
        )
    if not math.isnan(result.fluid_side_deviation):
        print(
            f"fluid-side FCT deviation vs pure fluid:   "
            f"{result.fluid_side_deviation:.2%}"
        )
    return result


if __name__ == "__main__":
    main()
