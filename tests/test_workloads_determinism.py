"""Determinism of scenario generation and the workloads experiment.

Same discipline as ``test_faults_determinism.py``: programs are pure in
``(knobs, pnet, policy, seed)``, so two materialisations -- across
fresh networks, processes, or worker counts -- must be byte-identical,
and different seeds must actually differ.
"""

import json
import pickle

import pytest

from repro.exp.common import JellyfishFamily
from repro.workloads import get_scenario, run_scenario
from repro.workloads.driver import default_policy

SCENARIO_KNOBS = {
    "incast": dict(fan_in=6, block=100_000, shuffle_senders=True),
    "coflow": dict(
        n_coflows=2, n_mappers=2, n_reducers=2, total_bytes=500_000,
        size_range=(100_000, 1_000_000), mean_interarrival=1e-4,
    ),
    "allreduce": dict(n_workers=4, payload=300_000, n_jobs=2),
    "diurnal": dict(n_tenants=2, duration=0.005, load=0.2, period=0.002),
}


def _program_rows(name, seed):
    pnet = JellyfishFamily(10, 4, 2).parallel_homogeneous(4)
    scenario = get_scenario(name, **SCENARIO_KNOBS[name])
    program = scenario.program(pnet, default_policy(pnet, seed), seed)
    return program.to_rows()


@pytest.mark.parametrize("name", sorted(SCENARIO_KNOBS))
def test_same_seed_is_byte_identical(name):
    """Fresh network + fresh scenario objects -> the same flow set."""
    a = json.dumps(_program_rows(name, seed=7), sort_keys=True)
    b = json.dumps(_program_rows(name, seed=7), sort_keys=True)
    assert a == b


@pytest.mark.parametrize("name", sorted(SCENARIO_KNOBS))
def test_different_seeds_differ(name):
    a = json.dumps(_program_rows(name, seed=7), sort_keys=True)
    b = json.dumps(_program_rows(name, seed=8), sort_keys=True)
    assert a != b


def test_scenario_streams_are_independent():
    """One scenario's draws never leak into another's under one seed."""
    incast = get_scenario("incast", fan_in=4, shuffle_senders=True)
    coflow = get_scenario("coflow")
    assert incast.stream(0, "placement").random() != pytest.approx(
        coflow.stream(0, "placement").random()
    )
    # And a stream is a fresh generator each call, not shared state.
    s = incast.stream(0, "placement")
    assert s.random() == incast.stream(0, "placement").random()


@pytest.mark.parametrize("engine", ["packet", "fluid"])
def test_run_results_are_byte_identical(engine):
    """Two full runs pickle identically: records, chains, and all."""

    def run():
        pnet = JellyfishFamily(10, 4, 2).parallel_homogeneous(4)
        result = run_scenario(
            get_scenario("coflow", **SCENARIO_KNOBS["coflow"]),
            pnet, engine=engine, seed=3,
        )
        return pickle.dumps(
            (
                [(r.tag, int(r.size), r.fct) for r in result.records],
                result.chains,
            )
        )

    assert run() == run()


def test_experiment_grid_identical_across_job_counts(tmp_path, monkeypatch):
    """PNET_JOBS=1 and =4 produce byte-identical experiment results.

    Worker processes re-derive every program from ``(spec.kwargs,
    seed)``, so sharding the trial grid must not perturb a single
    metric.  Separate cache dirs per job count keep the second run from
    trivially replaying the first's cached trials.
    """
    from repro.exp import workloads

    blobs = []
    for jobs in (1, 4):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path / f"jobs{jobs}"))
        monkeypatch.setenv("PNET_JOBS", str(jobs))
        blobs.append(pickle.dumps(
            workloads.run(scale="tiny", scenario="coflow")
        ))
    assert blobs[0] == blobs[1]
