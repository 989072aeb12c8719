"""Differential test: the array fluid engine against the list-based one.

:class:`~repro.fluid.flowsim.FluidSimulator` keeps its active flows in
numpy arrays, and :class:`~repro.hybrid.bridge.BackgroundLoadBridge`
reads them.  ``tests/fluid_reference.py`` keeps the list-based engine and
bridge they replaced.  Both run the five scenarios of
``tests/test_fluid_rate_reuse.py`` -- a slow-start Poisson run, a hybrid
``sampled`` run, ``load-aware`` migrations, a fault schedule and the
abort of a sending flow -- stepped one event boundary at a time with
``run(stop_after=...)``, as the hybrid engine steps.  After every step
they must agree on:

* every record, by ``repr``, which pins each field's value, the sign of
  zero and the type (``np.float64`` or ``float``), and the clock;
* ``rate_recomputations`` and the deterministic telemetry snapshot;
* ``link_usage()``, as dtype and bytes, and the rate views the control
  plane samples;
* in the hybrid run, every instantiated queue's service rate after each
  bridge refresh.
"""

from __future__ import annotations

import math

import pytest

from repro import api
from repro.control import Controller, LoadAwarePolicy
from repro.core.failures import FailureAwareSelector
from repro.core.path_selection import KspMultipathPolicy
from repro.faults import FaultInjector
from repro.fluid.flowsim import FluidSimulator
from repro.hybrid import engine as hybrid_engine
from repro.hybrid.promotion import resolve_policy
from repro.obs import Registry

from tests.fluid_reference import ListBridge, ListFluidSimulator
from tests.test_fluid_rate_reuse import (
    N_FLOWS,
    arrival_pnet,
    arrival_specs,
    fault_schedule,
)


def as_bytes(array):
    return array.dtype.str, array.tobytes()


def fluid_state(fluid):
    """What a step must leave identical in a fluid engine."""
    return {
        "now": repr(fluid.now),
        "records": repr(fluid.records),
        "recomputations": fluid.rate_recomputations,
        "usage": as_bytes(fluid.link_usage()),
        "active": repr(fluid.active_flows()),
        "subflows": repr(fluid.active_subflow_views()),
        "aggregate": repr(fluid.aggregate_rate()),
        "delivered": repr(fluid.delivered_bytes),
    }


def state(net, obs):
    if isinstance(net, FluidSimulator):
        got = fluid_state(net)
    else:
        got = fluid_state(net.fluid)
        got["hybrid_records"] = repr(net.records)
        got["queues"] = [
            (key, repr(queue.rate))
            for key, queue in net.packet._elements.items()
        ]
    got["telemetry"] = obs.snapshot(include_wallclock=False)
    return got


def fluid_of(net):
    return net if isinstance(net, FluidSimulator) else net.fluid


def run_in_lockstep(build):
    """Step the reference and the array engine one boundary at a time.

    ``build(reference)`` returns ``(network, registry)`` with every flow
    submitted.  Returns the number of steps taken.
    """
    ref, ref_obs = build(True)
    new, new_obs = build(False)
    step = 0
    while True:
        t_ref = fluid_of(ref).peek_next_event_time()
        t_new = fluid_of(new).peek_next_event_time()
        assert repr(t_new) == repr(t_ref), f"step {step}"
        if t_ref is None:
            break
        stop = max(t_ref, math.nextafter(ref.now, math.inf))
        ref.run(stop_after=stop)
        new.run(stop_after=stop)
        step += 1
        assert state(new, new_obs) == state(ref, ref_obs), (
            f"step {step}, t = {t_ref!r}"
        )
    # Whatever is left runs in the packet engine alone.
    ref.run()
    new.run()
    assert state(new, new_obs) == state(ref, ref_obs)
    assert len(ref.records) > 0
    return step


def fluid_net(reference, pnet, obs):
    cls = ListFluidSimulator if reference else FluidSimulator
    return cls(pnet.planes, slow_start=True, obs=obs)


def test_slow_start_poisson():
    def build(reference):
        pnet = arrival_pnet()
        obs = Registry()
        net = fluid_net(reference, pnet, obs)
        for spec in arrival_specs(pnet):
            net.add_flow(spec=spec)
        return net, obs

    assert run_in_lockstep(build) > N_FLOWS


def test_hybrid_sampled(monkeypatch):
    def build(reference):
        pnet = arrival_pnet()
        obs = Registry()
        with monkeypatch.context() as patch:
            if reference:
                patch.setattr(
                    hybrid_engine, "FluidSimulator", ListFluidSimulator
                )
                patch.setattr(
                    hybrid_engine, "BackgroundLoadBridge", ListBridge
                )
            net = api.build_network(
                pnet.planes, kind="hybrid", obs=obs, slow_start=True
            )
        net.promotion = resolve_policy("sampled:0.1:0")
        for spec in arrival_specs(pnet):
            net.add_flow(spec=spec)
        assert net.fidelity_counts()["packet"] > 0
        return net, obs

    assert run_in_lockstep(build) > N_FLOWS


def test_load_aware_migrations():
    controllers = []

    def build(reference):
        pnet = arrival_pnet()
        obs = Registry()
        net = fluid_net(reference, pnet, obs)
        controller = Controller(
            LoadAwarePolicy(seed=0, hysteresis=1.05), interval=2e-5
        )
        controller.attach(net)
        controllers.append(controller)
        for spec in arrival_specs(pnet):
            net.add_flow(spec=spec)
        return net, obs

    run_in_lockstep(build)
    ref, new = controllers
    assert ref.stats.applied >= 2
    assert vars(new.stats) == vars(ref.stats)


def test_fault_schedule():
    injectors = []

    def build(reference):
        pnet = arrival_pnet()
        specs = arrival_specs(pnet)
        obs = Registry()
        net = fluid_net(reference, pnet, obs)
        injector = FaultInjector(
            pnet, fault_schedule(specs), obs=obs,
            selector=FailureAwareSelector(
                KspMultipathPolicy(pnet, k=4, seed=0)
            ),
            detection_delay=2e-5,
        )
        injector.attach(net)
        injectors.append(injector)
        for spec in specs:
            net.add_flow(spec=spec)
        return net, obs

    run_in_lockstep(build)
    stats = injectors[0].stats
    assert stats.links_failed and stats.links_restored
    assert stats.flows_resteered and stats.flows_stranded
    assert vars(injectors[1].stats) == vars(stats)


def test_abort_of_a_sending_flow():
    def build(reference):
        pnet = arrival_pnet()
        obs = Registry()
        net = fluid_net(reference, pnet, obs)

        def abort_fastest():
            fid, __, __, rate = max(
                net.active_flows(), key=lambda row: row[3]
            )
            assert rate > 0
            assert net.abort_flow(fid)

        for at in (50e-6, 120e-6, 200e-6):
            net.schedule(at, abort_fastest)
        for spec in arrival_specs(pnet):
            net.add_flow(spec=spec)
        return net, obs

    run_in_lockstep(build)


@pytest.mark.parametrize("slow_start", [True, False])
def test_unstepped_runs_agree(slow_start):
    # The same trial run uninterrupted, without slow start as well,
    # where every event time stays a Python float.
    results = []
    for cls in (ListFluidSimulator, FluidSimulator):
        pnet = arrival_pnet()
        net = cls(pnet.planes, slow_start=slow_start, obs=Registry())
        for spec in arrival_specs(pnet):
            net.add_flow(spec=spec)
        net.run()
        results.append((repr(net.records), repr(net.now)))
    assert results[1] == results[0]
