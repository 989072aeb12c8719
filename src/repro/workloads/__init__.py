"""Structured workload scenarios on top of ``repro.traffic``.

The scenario layer ROADMAP item 4 calls for: deterministic, seeded
flow-program generators for the workload families the multipath
literature evaluates, runnable on every engine through
``repro.api``.

>>> from repro.workloads import get_scenario, run_scenario
>>> scenario = get_scenario("allreduce", n_workers=4)
>>> result = run_scenario(scenario, pnet, engine="fluid", seed=7)
>>> result.completion_times
{'ring': ...}
"""

from repro.workloads.base import (
    Chain,
    Scenario,
    ScenarioProgram,
    WaveLauncher,
    WorkloadError,
    bind,
    chain_stats,
    parse_tag,
    record_finish,
    record_start,
    wave_tag,
)
from repro.workloads.coflow import CoflowScenario, split_exact
from repro.workloads.collective import (
    ALGORITHMS,
    AllReduceScenario,
    ring_waves,
    tree_waves,
)
from repro.workloads.diurnal import DiurnalScenario
from repro.workloads.driver import (
    ScenarioResult,
    SteadyStateReport,
    default_policy,
    run_scenario,
    steady_state,
)
from repro.workloads.incast import IncastScenario

#: Scenario registry: ``--scenario`` name -> class.
SCENARIOS = {
    IncastScenario.name: IncastScenario,
    CoflowScenario.name: CoflowScenario,
    AllReduceScenario.name: AllReduceScenario,
    DiurnalScenario.name: DiurnalScenario,
}


def get_scenario(name: str, **knobs) -> Scenario:
    """Instantiate a registered scenario by name."""
    try:
        cls = SCENARIOS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario {name!r} (one of {sorted(SCENARIOS)})"
        ) from None
    return cls(**knobs)


__all__ = [
    "ALGORITHMS",
    "AllReduceScenario",
    "Chain",
    "CoflowScenario",
    "DiurnalScenario",
    "IncastScenario",
    "SCENARIOS",
    "Scenario",
    "ScenarioProgram",
    "ScenarioResult",
    "SteadyStateReport",
    "WaveLauncher",
    "WorkloadError",
    "bind",
    "chain_stats",
    "default_policy",
    "get_scenario",
    "parse_tag",
    "record_finish",
    "record_start",
    "ring_waves",
    "run_scenario",
    "split_exact",
    "steady_state",
    "tree_waves",
    "wave_tag",
]
