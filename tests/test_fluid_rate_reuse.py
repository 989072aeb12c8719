"""Rate reuse in the fluid engine: the same runs with fewer solves.

:class:`~repro.fluid.flowsim.FluidSimulator` keeps its last max-min solve
until an input of it changes: an arrival, a completion, an abort or
migration, a link failing or coming back, or the slow-start doubling of
a subflow whose rate sits at its cap.  The reference below is a subclass
that drops the solve before every rate update, so it solves every time,
as the engine did before reuse.

On a slow-start Poisson run, a hybrid ``sampled`` run, a ``load-aware``
controlled run (migrations), a fault schedule (fail, restore, resteer,
abort) and the abort of a flow still sending, both must give the same
pickled records, the same ``rate_recomputations`` and the same
deterministic telemetry, with strictly fewer solver calls.  A
checkpoint resumes identically whether
the pause left the rates current or stale, and so does a pickle written
before the flag existed.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro import api
from repro.analysis.stats import left_sum
from repro.ckpt import restore, run_checkpointed
from repro.control import Controller, LoadAwarePolicy
from repro.core.failures import FailureAwareSelector
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import JellyfishFamily
from repro.faults import (
    HOST_UPLINK_DOWN,
    HOST_UPLINK_UP,
    LINK_DOWN,
    LINK_UP,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)
from repro.fluid import flowsim
from repro.fluid.flowsim import FluidSimulator
from repro.hybrid import engine as hybrid_engine
from repro.obs import Registry
from repro.topology import ParallelTopology
from repro.traffic.openloop import poisson_flows
from repro.traffic.traces import WEBSEARCH

N_FLOWS = 60


class AlwaysSolve(FluidSimulator):
    """The engine without reuse: every rate update solves."""

    def _recompute_rates(self, count: bool = True) -> None:
        self._rates_current = False
        super()._recompute_rates(count)


def fastest_flow(fluid):
    """(flow id, total rate) of the first fastest active flow."""
    row = max(fluid.control_rows()[1], key=lambda row: left_sum(row["rate"]))
    return row["gid"], left_sum(row["rate"])


def arrival_pnet():
    """Two heterogeneous 8-switch Jellyfish planes, 16 hosts."""
    return JellyfishFamily(8, 4, 2).parallel_heterogeneous(2, seed=0)


def arrival_specs(pnet, n_flows: int = N_FLOWS):
    """Poisson WEBSEARCH arrivals at 60% load over KSP-4 paths."""
    hosts = pnet.hosts
    host_rate = ParallelTopology(pnet.planes).total_host_uplink(hosts[0])
    arrivals = poisson_flows(
        hosts, WEBSEARCH, 0.6, host_rate, duration=0.02, seed=0
    )[:n_flows]
    policy = KspMultipathPolicy(pnet, k=4, seed=0)
    return [
        FlowSpec(
            src=a.src, dst=a.dst, size=a.size, at=a.arrival,
            paths=policy.select(a.src, a.dst, i),
        )
        for i, a in enumerate(arrivals)
    ]


@pytest.fixture
def solves(monkeypatch):
    """Counts ``max_min_rates`` calls made by the fluid engine."""
    calls = Counter()
    real = flowsim.max_min_rates

    def counting(*args):
        calls["solves"] += 1
        return real(*args)

    monkeypatch.setattr(flowsim, "max_min_rates", counting)
    return calls


def outcome(fluid, records, obs, calls, before):
    return {
        "records": pickle.dumps(records),
        "recomputations": fluid.rate_recomputations,
        "telemetry": obs.snapshot(include_wallclock=False),
        "solves": calls["solves"] - before,
    }


def assert_same_run_fewer_solves(reference, reuse):
    assert reuse["records"] == reference["records"]
    assert reuse["recomputations"] == reference["recomputations"]
    assert reuse["telemetry"] == reference["telemetry"]
    assert reuse["solves"] < reference["solves"]


def fluid_trial(cls, solves, control="off"):
    pnet = arrival_pnet()
    obs = Registry()
    net = cls(pnet.planes, slow_start=True, obs=obs)
    before = solves["solves"]
    result = api.run_trial(net, arrival_specs(pnet), control=control)
    return outcome(net, result.records, obs, solves, before), result


def busiest_link(specs, plane):
    """The switch-to-switch link of ``plane`` the most subflows cross."""
    crossings = Counter()
    for spec in specs:
        for plane_idx, path in spec.paths:
            if plane_idx == plane:
                for u, v in zip(path[1:-2], path[2:-1]):
                    crossings[tuple(sorted((u, v)))] += 1
    return max(sorted(crossings), key=lambda link: crossings[link])


def fault_schedule(specs):
    """A flap shorter than detection (fail and restore only), a longer
    outage (resteer, then rebalance on restore) and a host cut off on
    both planes (its flows are aborted)."""
    u0, v0 = busiest_link(specs, 0)
    u1, v1 = busiest_link(specs, 1)
    host = specs[10].src
    return FaultSchedule([
        FaultEvent(at=60e-6, kind=LINK_DOWN, plane=0, u=u0, v=v0),
        FaultEvent(at=70e-6, kind=LINK_UP, plane=0, u=u0, v=v0),
        FaultEvent(at=100e-6, kind=LINK_DOWN, plane=1, u=u1, v=v1),
        FaultEvent(at=140e-6, kind=HOST_UPLINK_DOWN, plane=0, host=host),
        FaultEvent(at=140e-6, kind=HOST_UPLINK_DOWN, plane=1, host=host),
        FaultEvent(at=180e-6, kind=HOST_UPLINK_UP, plane=0, host=host),
        FaultEvent(at=180e-6, kind=HOST_UPLINK_UP, plane=1, host=host),
        FaultEvent(at=200e-6, kind=LINK_UP, plane=1, u=u1, v=v1),
    ])


class TestSameRunFewerSolves:
    def test_slow_start_poisson(self, solves):
        reference, __ = fluid_trial(AlwaysSolve, solves)
        reuse, __ = fluid_trial(FluidSimulator, solves)
        assert_same_run_fewer_solves(reference, reuse)

    def test_hybrid_sampled(self, solves, monkeypatch):
        def once():
            pnet = arrival_pnet()
            obs = Registry()
            net = api.build_network(
                pnet.planes, kind="hybrid", obs=obs, slow_start=True
            )
            before = solves["solves"]
            result = api.run_trial(
                net, arrival_specs(pnet), promotion="sampled:0.1:0",
                control="off",
            )
            assert net.fidelity_counts()["packet"] > 0
            return outcome(net.fluid, result.records, obs, solves, before)

        with monkeypatch.context() as patch:
            patch.setattr(hybrid_engine, "FluidSimulator", AlwaysSolve)
            reference = once()
        assert_same_run_fewer_solves(reference, once())

    def test_load_aware_migrations(self, solves):
        def control():
            return Controller(
                LoadAwarePolicy(seed=0, hysteresis=1.05), interval=2e-5
            )

        reference, result = fluid_trial(AlwaysSolve, solves, control())
        assert result.meta["control"]["stats"]["applied"] >= 2
        reuse, __ = fluid_trial(FluidSimulator, solves, control())
        assert_same_run_fewer_solves(reference, reuse)

    def test_fault_schedule(self, solves):
        def once(cls):
            pnet = arrival_pnet()
            specs = arrival_specs(pnet)
            obs = Registry()
            net = cls(pnet.planes, slow_start=True, obs=obs)
            injector = FaultInjector(
                pnet, fault_schedule(specs), obs=obs,
                selector=FailureAwareSelector(
                    KspMultipathPolicy(pnet, k=4, seed=0)
                ),
                detection_delay=2e-5,
            )
            injector.attach(net)
            for spec in specs:
                net.add_flow(spec=spec)
            before = solves["solves"]
            net.run()
            stats = injector.stats
            assert stats.links_failed and stats.links_restored
            assert stats.flows_resteered and stats.flows_stranded
            return outcome(net, net.records, obs, solves, before)

        assert_same_run_fewer_solves(once(AlwaysSolve), once(FluidSimulator))

    def test_abort_of_a_sending_flow(self, solves):
        # Faults abort only flows cut off on every path, whose rates are
        # already 0; dropping a flow that still sends frees bandwidth.
        def once(cls):
            pnet = arrival_pnet()
            obs = Registry()
            net = cls(pnet.planes, slow_start=True, obs=obs)

            def abort_fastest():
                fid, rate = fastest_flow(net)
                assert rate > 0
                assert net.abort_flow(fid)

            for at in (50e-6, 120e-6, 200e-6):
                net.schedule(at, abort_fastest)
            for spec in arrival_specs(pnet):
                net.add_flow(spec=spec)
            before = solves["solves"]
            net.run()
            assert len(net.records) == N_FLOWS - 3
            return outcome(net, net.records, obs, solves, before)

        assert_same_run_fewer_solves(once(AlwaysSolve), once(FluidSimulator))


def arrival_run():
    pnet = arrival_pnet()
    net = FluidSimulator(pnet.planes, slow_start=True, obs=Registry())
    for spec in arrival_specs(pnet):
        net.add_flow(spec=spec)
    return net


def paused_runs(tmp_path):
    """Checkpoints of a run, each with the flag as the pause left it."""
    net = arrival_run()
    flags = []
    saved = run_checkpointed(
        net, tmp_path, every=20e-6,
        on_checkpoint=lambda __: flags.append(net._rates_current),
    )
    return list(zip(saved, flags))


def assert_resumes_like(resumed, golden):
    resumed.run()
    assert pickle.dumps(resumed.records) == pickle.dumps(golden.records)
    assert resumed.rate_recomputations == golden.rate_recomputations
    assert resumed.obs.snapshot(include_wallclock=False) == \
        golden.obs.snapshot(include_wallclock=False)


@pytest.fixture(scope="module")
def uninterrupted():
    golden = arrival_run()
    golden.run()
    return golden


class TestCheckpoints:
    def test_resume_with_rates_current_and_stale(
        self, tmp_path, uninterrupted
    ):
        paused = paused_runs(tmp_path)
        assert {flag for __, flag in paused} == {True, False}
        for directory, flag in paused:
            resumed = restore(directory).network
            assert resumed._rates_current is flag
            assert_resumes_like(resumed, uninterrupted)

    def test_pickle_without_the_flag_resumes(
        self, tmp_path, solves, uninterrupted
    ):
        directory = next(d for d, flag in paused_runs(tmp_path) if flag)
        net = restore(directory).network
        # A pickle from before the flag existed has no such attribute.
        del net.__dict__["_rates_current"]
        old = pickle.loads(pickle.dumps(net))
        assert "_rates_current" not in vars(old)
        assert old._rates_current is False
        before = solves["solves"]
        assert_resumes_like(old, uninterrupted)
        assert solves["solves"] > before
