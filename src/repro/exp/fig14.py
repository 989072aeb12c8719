"""Figure 14: average hop count under random link failures.

Fail a growing fraction of switch-to-switch links uniformly at random and
measure the average best-path (min over planes) switch hop count across
all host pairs, for serial, 4-plane homogeneous, and 4-plane
heterogeneous Jellyfish.

Paper numbers at 40% failures: serial +22% hops, homogeneous +3%;
heterogeneous starts lower but converges toward homogeneous as its short
paths die, while still staying best overall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import random

from repro.analysis.hops import average_min_hop_count
from repro.exp.common import (
    JellyfishFamily,
    PARALLEL_HETEROGENEOUS,
    PARALLEL_HOMOGENEOUS,
    SERIAL_LOW,
    format_table,
    get_scale,
    network_for_label,
)
from repro.exp.runner import TrialSpec, run_trials

LABELS = (SERIAL_LOW, PARALLEL_HOMOGENEOUS, PARALLEL_HETEROGENEOUS)

PRESETS = {
    "tiny": dict(
        switches=16, degree=5, hosts_per=2, n_planes=4,
        fractions=(0.0, 0.2, 0.4), seeds=(0, 1),
    ),
    "small": dict(
        switches=32, degree=6, hosts_per=3, n_planes=4,
        fractions=(0.0, 0.1, 0.2, 0.3, 0.4), seeds=(0, 1, 2),
    ),
    "full": dict(
        switches=98, degree=7, hosts_per=7, n_planes=4,
        fractions=(0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4),
        seeds=(0, 1, 2, 3, 4),
    ),
}


@dataclass
class Fig14Result:
    n_hosts: int
    #: label -> {failure fraction -> mean (over seeds) avg hop count}.
    hop_counts: Dict[str, Dict[float, float]] = field(default_factory=dict)

    def relative_increase(self, label: str) -> float:
        """Hop inflation from 0% to the worst measured failure rate."""
        series = self.hop_counts[label]
        return series[max(series)] / series[0.0] - 1.0


def failure_trial(
    switches: int,
    degree: int,
    hosts_per: int,
    n_planes: int,
    label: str,
    fraction: float,
    seed: int,
) -> float:
    """Average best-path hop count of one (network, fraction, seed) cell.

    A fresh network is built per repetition (re-instantiating random
    topologies, as the paper does) and the failure RNG keys match
    :func:`repro.analysis.hops.failure_sweep` exactly.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"failure fraction must be in [0,1), got {fraction}")
    family = JellyfishFamily(switches, degree, hosts_per)
    pnet = network_for_label(family, label, n_planes)
    rng = random.Random(f"failures-{seed}-{fraction}")
    for plane in pnet.planes:
        plane.fail_random_links(fraction, rng, switch_only=True)
    pnet.invalidate_routing()
    return average_min_hop_count(pnet)


def run(scale: Optional[str] = None) -> Fig14Result:
    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    result = Fig14Result(n_hosts=family.n_hosts)
    specs = [
        TrialSpec(
            fn="repro.exp.fig14:failure_trial",
            key=(label, fraction, seed),
            kwargs=dict(
                switches=params["switches"],
                degree=params["degree"],
                hosts_per=params["hosts_per"],
                n_planes=params["n_planes"],
                label=label,
                fraction=fraction,
                seed=seed,
            ),
        )
        for label in LABELS
        for fraction in params["fractions"]
        for seed in params["seeds"]
    ]
    trials = run_trials(specs)
    for label in LABELS:
        result.hop_counts[label] = {
            fraction: sum(
                trials[(label, fraction, seed)] for seed in params["seeds"]
            ) / len(params["seeds"])
            for fraction in params["fractions"]
        }
    return result


def main() -> Fig14Result:
    result = run()
    print(
        f"Figure 14: average best-path hop count vs link failure rate "
        f"({result.n_hosts} hosts)\n"
    )
    fractions = sorted(next(iter(result.hop_counts.values())))
    rows = []
    for label, series in result.hop_counts.items():
        rows.append(
            [label]
            + [f"{series[f]:.3f}" for f in fractions]
            + [f"+{result.relative_increase(label):.1%}"]
        )
    print(
        format_table(
            ["network"] + [f"{f:.0%}" for f in fractions] + ["inflation"],
            rows,
        )
    )
    return result


if __name__ == "__main__":
    main()
