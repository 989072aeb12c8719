"""Extension experiment: DARD-style adaptive routing on P-Nets (§3.4).

Permutation traffic is where hash-based single-path selection loses
(Figure 6b): collisions pin multiple flows onto shared links while other
planes sit idle.  The paper points to end-host routing agents (DARD [44])
as the remedy when MPTCP is not deployed.

This experiment runs the same single-path permutation three ways on a
4-plane P-Net:

* **static ECMP** -- the collision-prone baseline;
* **ECMP + adaptive** -- same initial placement, but every host runs
  DARD: a :class:`~repro.control.DardPolicy` on the control loop
  (:class:`~repro.control.Controller`, one tick per epoch) selfishly
  migrates each flow to the least-loaded candidate path;
* **MPTCP KSP** (reference) -- the paper's preferred transport.

Expected: adaptation recovers most of the collision losses without
multipath transport.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.stats import summarize
from repro.api import build_network, run_trial
from repro.control import Controller, DardPolicy
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import EcmpPolicy, KspMultipathPolicy
from repro.exp.common import JellyfishFamily, format_table, get_scale
from repro.traffic.patterns import permutation
from repro.units import GB, MB

PRESETS = {
    "tiny": dict(
        switches=10, degree=4, hosts_per=2, n_planes=4,
        flow_bytes=200 * MB, epoch=2e-3, seeds=(0,),
    ),
    "small": dict(
        switches=16, degree=5, hosts_per=3, n_planes=4,
        flow_bytes=500 * MB, epoch=2e-3, seeds=(0, 1),
    ),
    "full": dict(
        switches=98, degree=7, hosts_per=7, n_planes=4,
        flow_bytes=1 * GB, epoch=2e-3, seeds=(0, 1, 2),
    ),
}


@dataclass
class AdaptiveResult:
    n_hosts: int
    #: variant -> mean FCT (seconds) of the permutation flows.
    mean_fct: Dict[str, float] = field(default_factory=dict)

    def speedup(self, variant: str) -> float:
        return self.mean_fct["static-ecmp"] / self.mean_fct[variant]


def run(scale: Optional[str] = None) -> AdaptiveResult:
    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    result = AdaptiveResult(n_hosts=family.n_hosts)
    samples: Dict[str, list] = {}

    for seed in params["seeds"]:
        pnet = family.parallel_heterogeneous(params["n_planes"], seed=seed)
        pairs = permutation(pnet.hosts, random.Random(f"adaptive-{seed}"))
        ecmp = EcmpPolicy(pnet, salt=seed)
        ksp = KspMultipathPolicy(
            pnet, k=4 * params["n_planes"], seed=seed
        )

        def run_variant(adaptive: bool, multipath: bool) -> float:
            sim = build_network(pnet.planes, kind="fluid", slow_start=False)
            policy = ksp if multipath else ecmp
            specs = [
                FlowSpec(
                    src=src, dst=dst, size=params["flow_bytes"],
                    paths=policy.select(src, dst, flow_id),
                )
                for flow_id, (src, dst) in enumerate(pairs)
            ]
            # DARD draws its candidates with KSP seed 97 whatever the
            # matrix.
            control = Controller(
                DardPolicy(pnet, seed=97), interval=params["epoch"],
                pnet=pnet,
            ) if adaptive else None
            records = run_trial(sim, specs, control=control).records
            return summarize([r.fct for r in records]).mean

        samples.setdefault("static-ecmp", []).append(
            run_variant(adaptive=False, multipath=False)
        )
        samples.setdefault("ecmp+adaptive", []).append(
            run_variant(adaptive=True, multipath=False)
        )
        samples.setdefault("mptcp-ksp", []).append(
            run_variant(adaptive=False, multipath=True)
        )

    for variant, values in samples.items():
        result.mean_fct[variant] = sum(values) / len(values)
    return result


def main() -> AdaptiveResult:
    result = run()
    print(
        f"Adaptive end-host routing (section 3.4 extension), "
        f"{result.n_hosts} hosts, permutation\n"
    )
    print(
        format_table(
            ["variant", "mean FCT (ms)", "speedup vs static"],
            [
                [v, f"{fct * 1e3:.2f}", f"{result.speedup(v):.2f}x"]
                for v, fct in result.mean_fct.items()
            ],
        )
    )
    return result


if __name__ == "__main__":
    main()
