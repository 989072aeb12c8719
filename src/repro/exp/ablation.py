"""Ablations of the path-selection design choices (DESIGN.md section 5).

Three choices in the MPTCP + KSP scheme are ablated on permutation
traffic over a parallel fat tree:

1. **Plane pooling** -- the paper pools the K subflow paths across all
   planes.  Ablation: pin each flow to one (round-robin) plane and take
   all K paths there.  Pinning caps a flow at a single plane's uplink,
   so pooled selection should win by up to N x.
2. **Tie randomisation** -- equal-cost candidates are shuffled per host
   pair.  Ablation: deterministic lexicographic ties, which concentrate
   every pair's subflows on the same low-indexed cores.
3. **LP objective** -- the throughput metric maximises total flow.
   Ablation: the max-concurrent (fairness-coupled) objective, showing
   how collision victims drag the common rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.path_selection import (
    KspMultipathPolicy,
    PathSelectionPolicy,
)
from repro.core.pnet import PlanePath, PNet
from repro.exp.common import FatTreeFamily, format_table, get_scale
from repro.exp.throughput import routed_throughput, routed_total_throughput
from repro.traffic.patterns import permutation

PRESETS = {
    "tiny": dict(k_fat_tree=4, n_planes=2, k_paths=8, seeds=(0,)),
    "small": dict(k_fat_tree=4, n_planes=4, k_paths=16, seeds=(0, 1)),
    "full": dict(k_fat_tree=8, n_planes=4, k_paths=32, seeds=(0, 1, 2)),
}


class PinnedPlaneKspPolicy(PathSelectionPolicy):
    """Ablation 1: all K subflow paths from one round-robin plane."""

    def __init__(self, pnet: PNet, k: int, seed: int = 0):
        super().__init__(pnet)
        self.k = k
        self.seed = seed

    def fingerprint(self):
        return ("pinned-plane-ksp", self.k, self.seed)

    def select(self, src: str, dst: str, flow_id: int = 0) -> List[PlanePath]:
        plane_idx = flow_id % self.pnet.n_planes
        view = PNet([self.pnet.plane(plane_idx)], name="pin-view")
        inner = KspMultipathPolicy(view, k=self.k, seed=self.seed)
        return [
            (plane_idx, path) for __, path in inner.select(src, dst, flow_id)
        ]


class LexicographicKspPolicy(PathSelectionPolicy):
    """Ablation 2: pooled KSP with deterministic (unshuffled) ties."""

    def __init__(self, pnet: PNet, k: int):
        super().__init__(pnet)
        self.k = k

    def fingerprint(self):
        return ("lexicographic-ksp", self.k)

    def select(self, src: str, dst: str, flow_id: int = 0) -> List[PlanePath]:
        from repro.routing.ksp import k_shortest_paths_pooled

        return k_shortest_paths_pooled(self.pnet.planes, src, dst, self.k)


@dataclass
class AblationResult:
    n_planes: int
    k_paths: int
    #: variant -> normalised (to serial capacity) permutation throughput.
    throughput: Dict[str, float] = field(default_factory=dict)


def run(scale: Optional[str] = None) -> AblationResult:
    params = PRESETS[get_scale(scale)]
    family = FatTreeFamily(params["k_fat_tree"])
    n_planes = params["n_planes"]
    k_paths = params["k_paths"]
    result = AblationResult(n_planes=n_planes, k_paths=k_paths)
    hosts = family.serial_low().hosts
    capacity = family.link_rate * len(hosts)

    samples: Dict[str, List[float]] = {}
    for seed in params["seeds"]:
        pnet = family.parallel(n_planes)
        pairs = permutation(hosts, random.Random(f"ablation-{seed}"))
        # Tie randomisation only matters when K is below the number of
        # equal-cost candidates, so that pair is ablated at a small K.
        k_tie = max(2, n_planes)
        variants = {
            "pooled-randomised (paper)": (
                KspMultipathPolicy(pnet, k=k_paths, seed=seed), k_paths
            ),
            "pinned-plane": (
                PinnedPlaneKspPolicy(pnet, k=k_paths, seed=seed), k_paths
            ),
            f"randomised-ties (K={k_tie})": (
                KspMultipathPolicy(pnet, k=k_tie, seed=seed), k_tie
            ),
            f"lexicographic-ties (K={k_tie})": (
                LexicographicKspPolicy(pnet, k=k_tie), k_tie
            ),
        }
        for name, (policy, __) in variants.items():
            total = routed_total_throughput(pnet, pairs, policy)
            samples.setdefault(name, []).append(total / capacity)
        # Objective ablation re-uses the paper policy with the
        # fairness-coupled objective.
        alpha = routed_throughput(
            pnet, pairs, KspMultipathPolicy(pnet, k=k_paths, seed=seed)
        )
        samples.setdefault("concurrent-objective", []).append(
            alpha * len(hosts) / capacity
        )

    for name, values in samples.items():
        result.throughput[name] = sum(values) / len(values)
    return result


def main() -> AblationResult:
    result = run()
    print(
        f"Path-selection ablations: {result.n_planes}-plane parallel fat "
        f"tree, K={result.k_paths}, permutation traffic\n"
        f"(normalised so {result.n_planes}.0 = combined capacity)\n"
    )
    print(
        format_table(
            ["variant", "normalised throughput"],
            [
                [name, f"{value:.2f}"]
                for name, value in sorted(
                    result.throughput.items(), key=lambda kv: -kv[1]
                )
            ],
        )
    )
    return result


if __name__ == "__main__":
    main()
