"""Figure 9: small-flow FCT vs flow size (100 kB .. 1 GB).

Random permutation traffic on a 4-plane Jellyfish P-Net, comparing the
four network types with each one's best routing setting (paper finding:
single path for serial networks, 4-way KSP for 4-plane parallel ones).

Run on the fluid simulator with the slow-start ramp model: small flows
finish before steady state, where parallel networks win by ramping more
subflows concurrently (even beating serial high-bandwidth); mid-size
flows (~100 MB) gain the least; 1 GB flows approach the full multipath
capacity.

The (network label x flow size x seed) grid is fanned out as
:class:`~repro.exp.runner.TrialSpec` items over ``PNET_JOBS`` workers;
each trial builds only its own network and simulates one configuration,
and results are merged by trial key (seed order), so output is identical
at any job count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.stats import summarize
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import EcmpPolicy, KspMultipathPolicy
from repro.core.pnet import PNet
from repro.exp.common import (
    JellyfishFamily,
    PARALLEL_HETEROGENEOUS,
    PARALLEL_HOMOGENEOUS,
    SERIAL_HIGH,
    SERIAL_LOW,
    format_table,
    get_scale,
    network_for_label,
)
from repro.exp.runner import TrialSpec, run_trials
from repro.api import build_network
from repro.traffic.patterns import permutation
from repro.units import GB, KB, MB

PRESETS = {
    "tiny": dict(
        switches=12, degree=5, hosts_per=2, n_planes=4,
        sizes=(100 * KB, 10 * MB, 1 * GB), seeds=(0,),
    ),
    "small": dict(
        switches=24, degree=6, hosts_per=4, n_planes=4,
        sizes=(100 * KB, 1 * MB, 10 * MB, 100 * MB, 1 * GB), seeds=(0, 1),
    ),
    "full": dict(
        switches=98, degree=7, hosts_per=7, n_planes=4,
        sizes=(100 * KB, 1 * MB, 10 * MB, 100 * MB, 1 * GB),
        seeds=(0, 1, 2, 3, 4),
    ),
}

#: Plotting order (matches NetworkSet.items()).
LABELS = (
    SERIAL_LOW,
    PARALLEL_HOMOGENEOUS,
    PARALLEL_HETEROGENEOUS,
    SERIAL_HIGH,
)


@dataclass
class Fig9Result:
    n_hosts: int
    n_planes: int
    #: network label -> {flow size -> mean FCT seconds}.
    mean_fct: Dict[str, Dict[int, float]] = field(default_factory=dict)


def _best_policy(label: str, pnet: PNet, seed: int):
    """Each network's best setting per the paper's sweep."""
    if label in (SERIAL_LOW, SERIAL_HIGH):
        return EcmpPolicy(pnet, salt=seed)  # single path
    if label == PARALLEL_HETEROGENEOUS:
        # 4-way KSP; pooled KSP already prefers the shorter planes.
        return KspMultipathPolicy(pnet, k=pnet.n_planes, seed=seed)
    return KspMultipathPolicy(pnet, k=pnet.n_planes, seed=seed)


def fct_trial(
    switches: int,
    degree: int,
    hosts_per: int,
    n_planes: int,
    label: str,
    size: int,
    seed: int,
) -> List[float]:
    """All FCTs of one (network, flow size, seed) fluid simulation."""
    family = JellyfishFamily(switches, degree, hosts_per)
    pnet = network_for_label(family, label, n_planes)
    pairs = permutation(pnet.hosts, random.Random(f"fig9-{seed}"))
    policy = _best_policy(label, pnet, seed)
    sim = build_network(pnet.planes, kind="fluid", slow_start=True)
    for flow_id, (src, dst) in enumerate(pairs):
        paths = policy.select(src, dst, flow_id)
        sim.add_flow(spec=FlowSpec(src=src, dst=dst, size=size, paths=paths))
    return [rec.fct for rec in sim.run()]


def run(scale: Optional[str] = None) -> Fig9Result:
    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    result = Fig9Result(
        n_hosts=family.n_hosts, n_planes=params["n_planes"]
    )

    net_kwargs = dict(
        switches=params["switches"],
        degree=params["degree"],
        hosts_per=params["hosts_per"],
        n_planes=params["n_planes"],
    )
    specs = [
        TrialSpec(
            fn="repro.exp.fig9:fct_trial",
            key=(label, size, seed),
            kwargs=dict(label=label, size=size, seed=seed, **net_kwargs),
        )
        for label in LABELS
        for size in params["sizes"]
        for seed in params["seeds"]
    ]
    trials = run_trials(specs)

    for label in LABELS:
        per_size: Dict[int, float] = {}
        for size in params["sizes"]:
            fcts: List[float] = []
            for seed in params["seeds"]:
                fcts.extend(trials[(label, size, seed)])
            per_size[size] = summarize(fcts).mean
        result.mean_fct[label] = per_size
    return result


def packet_trial(
    switches: int,
    degree: int,
    hosts_per: int,
    n_planes: int,
    label: str,
    size: int,
) -> float:
    """Mean FCT of one network on the packet-level simulator.

    Runs through :func:`repro.shard.run_packet_trial` on one shard, the
    serial packet simulator.  FCTs are averaged in submission order --
    the one ordering every shard count reproduces.
    """
    from repro.shard import run_packet_trial

    family = JellyfishFamily(switches, degree, hosts_per)
    pnet = network_for_label(family, label, n_planes)
    pairs = permutation(pnet.hosts, random.Random("fig9-pkt"))
    policy = _best_policy(label, pnet, seed=0)
    specs = [
        FlowSpec(
            src=src, dst=dst, size=size,
            paths=policy.select(src, dst, flow_id),
        )
        for flow_id, (src, dst) in enumerate(pairs)
    ]
    result = run_packet_trial(pnet.planes, specs)
    return summarize(result.fcts).mean


def packet_sim_validation(
    scale: Optional[str] = None, size: int = 100 * KB
) -> Dict[str, float]:
    """Cross-check the small-flow result on the packet simulator.

    The paper ran Figure 9 entirely on htsim; our figure uses the fluid
    model for speed.  This runs the smallest size (where the slow-start
    effect decides the ordering) through the packet-level simulator with
    real TCP/MPTCP, returning mean FCT per network type so benches can
    assert both simulators agree on *who wins*.
    """
    params = PRESETS[get_scale(scale)]
    specs = [
        TrialSpec(
            fn="repro.exp.fig9:packet_trial",
            key=(label,),
            kwargs=dict(
                switches=params["switches"],
                degree=params["degree"],
                hosts_per=params["hosts_per"],
                n_planes=params["n_planes"],
                label=label,
                size=size,
            ),
        )
        for label in LABELS
    ]
    trials = run_trials(specs)
    return {label: trials[(label,)] for label in LABELS}


def main() -> Fig9Result:
    result = run()
    print(
        f"Figure 9: mean FCT (ms) vs flow size, {result.n_hosts}-host "
        f"Jellyfish, {result.n_planes} planes\n"
    )
    sizes = sorted(next(iter(result.mean_fct.values())))
    rows = []
    for label, series in result.mean_fct.items():
        rows.append(
            [label] + [f"{series[s] * 1e3:.3f}" for s in sizes]
        )
    headers = ["network"] + [
        (f"{s // GB}GB" if s >= GB else
         f"{s // MB}MB" if s >= MB else f"{s // KB}kB")
        for s in sizes
    ]
    print(format_table(headers, rows))
    base = result.mean_fct[SERIAL_LOW]
    print("\nSpeedup over serial low-bandwidth:")
    rows = [
        [label] + [f"{base[s] / series[s]:.2f}x" for s in sizes]
        for label, series in result.mean_fct.items()
    ]
    print(format_table(headers, rows))
    return result


if __name__ == "__main__":
    main()
