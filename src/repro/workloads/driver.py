"""Run scenarios through the engine-agnostic facade.

:func:`run_scenario` is the one-call path from a :class:`Scenario` to a
finished trial on any of the three engines; :func:`steady_state` layers
the open-loop steady-state methodology on top -- warm-up trimming and
batch-means confidence intervals (``repro.analysis.stats``) -- so
sustained-load results are reported with error bars instead of point
estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.stats import (
    MeanCI,
    Summary,
    batch_means_ci,
    mean_ci,
    summarize,
)
from repro.api import TrialResult, build_network, run_trial
from repro.core.path_selection import EcmpPolicy
from repro.workloads.base import (
    Scenario,
    ScenarioProgram,
    WorkloadError,
    bind,
    chain_stats,
    record_finish,
    record_start,
)


def default_policy(pnet, seed: int = 0):
    """The path policy scenarios use unless told otherwise."""
    return EcmpPolicy(pnet, salt=seed)


@dataclass
class ScenarioResult:
    """A scenario run: the generated program plus the finished trial."""

    scenario: str
    engine: str
    seed: int
    program: ScenarioProgram
    trial: TrialResult
    #: chain label -> start/finish/completion_time/flows/bytes.
    chains: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def records(self) -> List[Any]:
        return self.trial.records

    @property
    def fcts(self) -> List[float]:
        return [r.fct for r in self.trial.records]

    @property
    def completion_times(self) -> Dict[str, float]:
        """Chain label -> completion time (CCT / collective time)."""
        return {
            label: stats["completion_time"]
            for label, stats in self.chains.items()
        }

    @property
    def makespan(self) -> float:
        return max(stats["finish"] for stats in self.chains.values())

    def fct_summary(self) -> Summary:
        return summarize(self.fcts)


def run_scenario(
    scenario: Scenario,
    pnet,
    engine: str = "packet",
    policy=None,
    seed: int = 0,
    until: float = math.inf,
    promotion: Optional[Any] = None,
    obs=None,
    **engine_kwargs: Any,
) -> ScenarioResult:
    """Generate the scenario's program and run it on one engine.

    The program is materialised with :meth:`Scenario.program` (pure in
    the seed), bound to a fresh ``build_network(kind=engine)`` network,
    and executed through :func:`repro.api.run_trial` -- so promotion
    policies, checkpointing knobs, and telemetry behave exactly as they
    do for hand-built flow lists.

    Raises :class:`WorkloadError` if the run ends with unfinished
    chains (an ``until`` horizon that cut the program short).
    """
    if policy is None:
        policy = default_policy(pnet, seed)
    program = scenario.program(pnet, policy, seed)
    net = build_network(pnet.planes, kind=engine, obs=obs, **engine_kwargs)
    flows = bind(program, net)
    trial = run_trial(net, flows, until=until, promotion=promotion)
    return ScenarioResult(
        scenario=scenario.name,
        engine=engine,
        seed=seed,
        program=program,
        trial=trial,
        chains=chain_stats(program, trial.records),
    )


@dataclass
class SteadyStateReport:
    """Warm-up-trimmed steady-state estimates with error bars."""

    scenario: str
    engine: str
    seed: int
    duration: float
    warmup: float
    #: Arrivals in the generated program / in the measurement window.
    n_flows: int
    n_measured: int
    #: The configured load target (fraction of aggregate capacity).
    target_load: float
    #: Realised offered load over the measurement window, with its
    #: batch-means CI over time bins (the statistical sanity check:
    #: the target must sit inside this interval).
    offered_load: MeanCI
    #: Delivered goodput over the window, bits/second.
    throughput_bps: float
    #: FCT distribution of measured flows.
    fct: Summary
    #: Batch-means CI of the mean FCT (completion-order batches).
    fct_mean: MeanCI

    def to_row(self) -> Dict[str, Any]:
        """Flat dict for benchmark emission / CSV rendering."""
        return {
            "scenario": self.scenario,
            "engine": self.engine,
            "seed": self.seed,
            "duration": self.duration,
            "warmup": self.warmup,
            "n_flows": self.n_flows,
            "n_measured": self.n_measured,
            "target_load": self.target_load,
            "offered_load": self.offered_load.mean,
            "offered_load_ci": [
                self.offered_load.low, self.offered_load.high
            ],
            "throughput_bps": self.throughput_bps,
            "fct_mean": self.fct_mean.mean,
            "fct_mean_ci": [self.fct_mean.low, self.fct_mean.high],
            "fct_median": self.fct.median,
            "fct_p99": self.fct.p99,
        }


def steady_state(
    scenario,
    pnet,
    engine: str = "packet",
    policy=None,
    seed: int = 0,
    warmup_frac: float = 0.2,
    n_batches: int = 10,
    confidence: float = 0.95,
    promotion: Optional[Any] = None,
    obs=None,
    **engine_kwargs: Any,
) -> SteadyStateReport:
    """Sustained open-loop run with warm-up trimming and CIs.

    ``scenario`` must be an open-loop generator exposing ``duration``,
    ``load``, and (per the :class:`~repro.workloads.diurnal.
    DiurnalScenario` contract) a ``host_rate``-aware program whose meta
    carries the resolved ``host_rate`` -- in practice a
    ``DiurnalScenario`` (``amplitude=0`` for a flat steady state).

    The first ``warmup_frac`` of the horizon is discarded (transient
    ramp); flows *arriving* inside the measurement window contribute to
    the offered-load and FCT estimates.  Offered load gets a
    batch-means CI over equal time bins of the window, mean FCT over
    completion-order batches.
    """
    duration = getattr(scenario, "duration", None)
    target_load = getattr(scenario, "load", None)
    if duration is None or target_load is None:
        raise WorkloadError(
            f"steady_state needs an open-loop scenario with duration/"
            f"load knobs, got {type(scenario).__name__}"
        )
    if not 0 <= warmup_frac < 1:
        raise WorkloadError(
            f"warmup_frac must be in [0, 1), got {warmup_frac}"
        )
    result = run_scenario(
        scenario, pnet, engine=engine, policy=policy, seed=seed,
        promotion=promotion, obs=obs, **engine_kwargs,
    )
    warmup = warmup_frac * duration
    window = duration - warmup
    measured = [
        r for r in result.records if record_start(r) >= warmup
    ]
    if len(measured) < 2 * n_batches:
        raise WorkloadError(
            f"only {len(measured)} flows in the measurement window; "
            f"lengthen duration or raise load (need "
            f">= {2 * n_batches})"
        )
    host_rate = result.program.meta["host_rate"]
    capacity = len(pnet.hosts) * host_rate

    # Offered load per time bin: arrivals bucketed over the window.
    bin_bits = [0.0] * n_batches
    for r in measured:
        b = min(
            int((record_start(r) - warmup) / window * n_batches),
            n_batches - 1,
        )
        bin_bits[b] += 8 * r.size
    bin_loads = [
        bits / (window / n_batches) / capacity for bits in bin_bits
    ]
    # Disjoint windows of a Poisson process are independent, so the
    # plain t-interval over the bins is sound here.
    offered = mean_ci(bin_loads, confidence=confidence)

    measured.sort(key=record_finish)
    fcts = [r.fct for r in measured]
    span = record_finish(measured[-1]) - warmup
    throughput = 8 * sum(r.size for r in measured) / max(span, window)
    return SteadyStateReport(
        scenario=result.scenario,
        engine=engine,
        seed=seed,
        duration=duration,
        warmup=warmup,
        n_flows=result.program.n_flows,
        n_measured=len(measured),
        target_load=target_load,
        offered_load=offered,
        throughput_bps=throughput,
        fct=summarize(fcts),
        fct_mean=batch_means_ci(
            fcts, n_batches=n_batches, confidence=confidence
        ),
    )
