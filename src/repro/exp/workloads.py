"""Production workloads on the four comparison networks (ROADMAP item 4).

Runs every registered :mod:`repro.workloads` scenario family -- incast
fan-in, coflow mixes, ring/tree all-reduce, and the diurnal
multi-tenant mix -- across the paper's four network types (serial low,
parallel homogeneous/heterogeneous, serial high) and reports per-
scenario completion metrics: chain completion time (coflow CCT /
collective time), makespan, and the FCT distribution.  The offered
traffic is byte-identical across network labels (the scenario programs
are seeded and the diurnal host rate is pinned to the parallel
aggregate), so rows differ only by what the fabric did with the load.

Knobs, as :func:`run` arguments and ``python -m repro workloads``
flags:

* ``scenario`` (``--scenario <name>``) -- run only that scenario family;
* ``tenants`` / ``load`` (``--tenants N`` / ``--load F``) -- diurnal
  mix shape;
* ``engine`` (``--engine packet|fluid|hybrid``) -- force one engine
  for every scenario (hybrid uses the preset's promotion policy).
  Default is per scenario (:data:`DEFAULT_ENGINES`): packet fidelity
  for the bursty closed programs where drops and RTOs are the story
  (incast, coflow, allreduce), fluid for the sustained diurnal mix
  whose simulated byte volume is far past packet-level budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.analysis.stats import summarize
from repro.exp.common import (
    JellyfishFamily,
    SERIAL_LOW,
    family_labels,
    format_table,
    get_scale,
    network_for_label,
)
from repro.exp.runner import TrialSpec, run_trials
from repro.units import DEFAULT_LINK_RATE, KB, MB

PRESETS = {
    "tiny": dict(
        switches=10, degree=4, hosts_per=2, n_planes=4, seeds=(0,),
        promote="sampled:0.125:0",
        scenarios={
            "incast": dict(fan_in=8, block=int(64 * KB)),
            "coflow": dict(
                n_coflows=2, n_mappers=3, n_reducers=3,
                total_bytes=int(1 * MB), mean_interarrival=1e-4,
            ),
            "allreduce": dict(n_workers=4, payload=int(2 * MB)),
            "diurnal": dict(
                n_tenants=2, duration=0.01, load=0.2, period=0.005,
            ),
        },
    ),
    "small": dict(
        switches=12, degree=5, hosts_per=3, n_planes=4, seeds=(0,),
        promote="sampled:0.1:0",
        scenarios={
            "incast": dict(fan_in=16, block=int(64 * KB)),
            "coflow": dict(
                n_coflows=4, n_mappers=4, n_reducers=4,
                total_bytes=int(4 * MB), mean_interarrival=1e-4,
            ),
            "allreduce": dict(n_workers=8, payload=int(8 * MB)),
            "diurnal": dict(
                n_tenants=3, duration=0.02, load=0.3, period=0.01,
            ),
        },
    ),
    "full": dict(
        switches=24, degree=6, hosts_per=4, n_planes=4, seeds=(0, 1),
        promote="sampled:0.1:0",
        scenarios={
            "incast": dict(fan_in=32, block=int(64 * KB)),
            "coflow": dict(
                n_coflows=8, n_mappers=8, n_reducers=8,
                total_bytes=int(16 * MB), mean_interarrival=1e-4,
            ),
            "allreduce": dict(
                n_workers=16, payload=int(32 * MB), n_jobs=2,
            ),
            "diurnal": dict(
                n_tenants=4, duration=0.05, load=0.4, period=0.02,
            ),
        },
    ),
}


#: Engine each scenario runs on unless ``engine=`` forces one.
DEFAULT_ENGINES = {
    "incast": "packet",
    "coflow": "packet",
    "allreduce": "packet",
    "diurnal": "fluid",
}


@dataclass
class WorkloadsResult:
    n_hosts: int
    n_planes: int
    #: scenario -> engine it ran on.
    engines: Dict[str, str] = field(default_factory=dict)
    #: (scenario, network label) -> flat metric row.
    rows: Dict = field(default_factory=dict)


def scenario_trial(
    switches: int,
    degree: int,
    hosts_per: int,
    n_planes: int,
    label: str,
    scenario: str,
    knobs: Dict[str, Any],
    seed: int,
    engine: str,
    promote: Optional[str] = None,
) -> Dict[str, Any]:
    """One scenario on one comparison network; returns flat metrics."""
    from repro.workloads import get_scenario, run_scenario

    family = JellyfishFamily(switches, degree, hosts_per)
    pnet = network_for_label(family, label, n_planes, seed)
    knobs = dict(knobs)
    if scenario == "diurnal":
        # Pin the derived arrival rate to the parallel aggregate so all
        # four labels see the identical offered byte stream.
        knobs.setdefault("host_rate", DEFAULT_LINK_RATE * n_planes)
    kwargs: Dict[str, Any] = {}
    if engine != "packet":
        kwargs["slow_start"] = True
    if engine == "hybrid":
        kwargs["promotion"] = promote
    result = run_scenario(
        get_scenario(scenario, **knobs), pnet,
        engine=engine, seed=seed, **kwargs,
    )
    fct = result.fct_summary()
    cts = sorted(result.completion_times.values())
    return {
        "n_flows": result.program.n_flows,
        "makespan": result.makespan,
        "mean_ct": sum(cts) / len(cts),
        "max_ct": cts[-1],
        "fct_median": fct.median,
        "fct_p99": fct.p99,
    }


def run(
    scale: Optional[str] = None,
    scenario: Optional[str] = None,
    tenants: Optional[int] = None,
    load: Optional[float] = None,
    engine: Optional[str] = None,
) -> WorkloadsResult:
    """Every scenario family (or ``scenario``) on the four networks.
    Bad knobs raise ``ValueError`` before any trial runs."""
    from repro.workloads import get_scenario

    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    labels = family_labels(family)
    names = list(params["scenarios"])
    if scenario not in (None, *names):
        raise ValueError(f"unknown scenario {scenario!r}; known: {names}")
    if engine not in (None, "packet", "fluid", "hybrid"):
        raise ValueError(f"engine must be packet|fluid|hybrid, got {engine!r}")
    scenarios = names if scenario is None else [scenario]
    engines = {s: engine or DEFAULT_ENGINES[s] for s in scenarios}
    diurnal = {"n_tenants": tenants, "load": load}

    specs = []
    for name in scenarios:
        knobs = dict(params["scenarios"][name])
        if name == "diurnal":
            knobs.update((k, v) for k, v in diurnal.items() if v is not None)
        get_scenario(name, **knobs)  # checks the knobs
        for label in labels:
            for seed in params["seeds"]:
                specs.append(TrialSpec(
                    fn="repro.exp.workloads:scenario_trial",
                    key=(name, label, seed),
                    kwargs=dict(
                        switches=params["switches"],
                        degree=params["degree"],
                        hosts_per=params["hosts_per"],
                        n_planes=params["n_planes"],
                        label=label,
                        scenario=name,
                        knobs=knobs,
                        seed=seed,
                        engine=engines[name],
                        promote=(
                            params["promote"]
                            if engines[name] == "hybrid"
                            else None
                        ),
                    ),
                ))
    trials = run_trials(specs)

    result = WorkloadsResult(
        n_hosts=family.n_hosts,
        n_planes=params["n_planes"],
        engines=engines,
    )
    for name in scenarios:
        for label in labels:
            per_seed = [
                trials[(name, label, seed)]
                for seed in params["seeds"]
            ]
            merged = {
                metric: summarize(
                    [t[metric] for t in per_seed]
                ).mean
                for metric in per_seed[0]
            }
            result.rows[(name, label)] = merged
    return result


def main(**knobs) -> None:
    result = run(**knobs)
    print(
        f"Production workloads, {result.n_hosts}-host Jellyfish, "
        f"{result.n_planes} planes\n"
    )
    table = []
    for (scenario, label), row in sorted(result.rows.items()):
        base = result.rows[(scenario, SERIAL_LOW)]
        table.append([
            scenario, result.engines[scenario], label, int(row["n_flows"]),
            f"{row['makespan'] * 1e3:.3f}",
            f"{row['max_ct'] * 1e3:.3f}",
            f"{row['fct_p99'] * 1e3:.3f}",
            f"{base['makespan'] / row['makespan']:.2f}x",
        ])
    print(format_table(
        ["scenario", "engine", "network", "flows", "makespan ms",
         "max CT ms", "p99 FCT ms", "speedup"],
        table,
    ))


if __name__ == "__main__":
    main()
