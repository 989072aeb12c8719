"""Figure 7: ideal throughput on Jellyfish with rack-level all-to-all.

No routing constraint: the edge-based LP measures the raw capacity of the
network core.  The paper's finding: heterogeneous parallel Jellyfish can
exceed the serial high-bandwidth equivalent by up to ~60%, because with N
independent instantiations a flow can use whichever plane offers a shorter
path, consuming less core capacity per byte.

Homogeneous P-Nets (and serial high-bandwidth) are exactly N x the serial
low-bandwidth value by LP scaling, so only heterogeneous instantiations
need fresh solves; we solve the homogeneous case at the smallest N as a
consistency check.

Each LP solve -- serial baseline per seed, heterogeneous per (plane
count, seed), plus the homogeneous check -- is an independent
:class:`~repro.exp.runner.TrialSpec` fanned out by
:func:`~repro.exp.runner.run_trials`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.exp.common import JellyfishFamily, format_table, get_scale
from repro.exp.runner import TrialSpec, run_trials
from repro.lp.ideal import ideal_throughput, merge_parallel_with_rack_sources
from repro.traffic.patterns import rack_level_all_to_all

#: racks / net degree / plane counts / seeds per scale.
PRESETS = {
    "tiny": dict(racks=12, degree=5, planes=(1, 2, 4), seeds=(0,)),
    "small": dict(racks=16, degree=6, planes=(1, 2, 4, 8), seeds=(0,)),
    "full": dict(racks=128, degree=10, planes=(1, 2, 4, 8), seeds=(0, 1, 2, 3, 4)),
}


@dataclass
class Fig7Result:
    """Normalised (vs serial-low) ideal throughput per plane count."""

    racks: int
    heterogeneous: Dict[int, float] = field(default_factory=dict)
    heterogeneous_std: Dict[int, float] = field(default_factory=dict)
    homogeneous_check: Optional[float] = None
    #: serial-high == homogeneous == N exactly; kept for plotting parity.
    serial_high: Dict[int, float] = field(default_factory=dict)


def _rack_alpha(planes, racks_count: int) -> float:
    merged, racks = merge_parallel_with_rack_sources(planes)
    demands = {
        (a, b): 1.0 for a, b in rack_level_all_to_all(racks)
    }
    return ideal_throughput(merged, demands)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    m = _mean(values)
    return (sum((v - m) ** 2 for v in values) / (len(values) - 1)) ** 0.5


def base_trial(racks: int, degree: int, seed: int) -> float:
    """Serial-low ideal throughput for one seed (the normaliser)."""
    family = JellyfishFamily(racks, degree, 1)
    return _rack_alpha([family.base_plane(seed * 1000)], racks)


def hetero_trial(racks: int, degree: int, n_planes: int, seed: int) -> float:
    """Heterogeneous P-Net ideal throughput (unnormalised alpha)."""
    family = JellyfishFamily(racks, degree, 1)
    pnet = family.parallel_heterogeneous(n_planes, seed=seed)
    return _rack_alpha(pnet.planes, racks)


def homo_check_trial(racks: int, degree: int, n_planes: int, seed: int) -> float:
    """Homogeneous P-Net alpha (consistency check: N x serial-low)."""
    family = JellyfishFamily(racks, degree, 1)
    pnet = family.parallel_homogeneous(n_planes, seed=seed * 1000)
    return _rack_alpha(pnet.planes, racks)


def run(scale: Optional[str] = None) -> Fig7Result:
    params = PRESETS[get_scale(scale)]
    result = Fig7Result(racks=params["racks"])
    base_kwargs = dict(racks=params["racks"], degree=params["degree"])
    check_n = params["planes"][1]
    check_seed = params["seeds"][0]

    specs = (
        [
            TrialSpec(
                fn="repro.exp.fig7:base_trial",
                key=("base", seed),
                kwargs=dict(seed=seed, **base_kwargs),
            )
            for seed in params["seeds"]
        ]
        + [
            TrialSpec(
                fn="repro.exp.fig7:hetero_trial",
                key=("hetero", n_planes, seed),
                kwargs=dict(n_planes=n_planes, seed=seed, **base_kwargs),
            )
            for n_planes in params["planes"]
            for seed in params["seeds"]
        ]
        + [
            TrialSpec(
                fn="repro.exp.fig7:homo_check_trial",
                key=("homo-check",),
                kwargs=dict(n_planes=check_n, seed=check_seed, **base_kwargs),
            )
        ]
    )
    trials = run_trials(specs)

    base_alphas = {seed: trials[("base", seed)] for seed in params["seeds"]}
    for n_planes in params["planes"]:
        result.serial_high[n_planes] = float(n_planes)
        samples = [
            trials[("hetero", n_planes, seed)] / base_alphas[seed]
            for seed in params["seeds"]
        ]
        result.heterogeneous[n_planes] = _mean(samples)
        result.heterogeneous_std[n_planes] = _std(samples)

    # Consistency check: homogeneous planes give exactly N x serial-low.
    result.homogeneous_check = (
        trials[("homo-check",)] / base_alphas[check_seed]
    )
    return result


def main() -> Fig7Result:
    result = run()
    print(
        f"Figure 7: ideal rack-level all-to-all throughput, "
        f"{result.racks}-rack Jellyfish (normalised vs serial low)\n"
    )
    rows = [
        [
            n,
            f"{result.heterogeneous[n]:.2f} +- {result.heterogeneous_std[n]:.2f}",
            f"{result.serial_high[n]:.2f}",
            f"{result.heterogeneous[n] / result.serial_high[n]:.2f}",
        ]
        for n in sorted(result.heterogeneous)
    ]
    print(
        format_table(
            ["planes", "parallel heterogeneous", "serial high-bw",
             "hetero / serial-high"],
            rows,
        )
    )
    print(
        f"\nhomogeneous consistency check (expect ~{sorted(result.heterogeneous)[1]}): "
        f"{result.homogeneous_check:.3f}"
    )
    return result


if __name__ == "__main__":
    main()
