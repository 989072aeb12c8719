"""Tests for the fault injector: refcounts, routing repair, resteering."""

import math

import pytest

from repro.core.failures import FailureAwareSelector, path_is_live
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.core.pnet import PNet
from repro.faults import (
    LINK_DOWN,
    LINK_UP,
    PLANE_DOWN,
    PLANE_UP,
    SWITCH_DOWN,
    SWITCH_UP,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    surviving_capacity,
)
from repro.fluid.flowsim import FluidSimulator
from repro.obs import Registry, Tracer
from repro.sim.network import PacketNetwork
from repro.units import MSS, Gbps, MB

from tests.test_faults_schedule import make_pnet, two_path_plane
from tests.test_shard_engine import jellyfish_workload

A0 = (0, ["h0", "t0", "a", "t1", "h1"])
B0 = (0, ["h0", "t0", "b", "t1", "h1"])
A1 = (1, ["h0", "t0", "a", "t1", "h1"])
B1 = (1, ["h0", "t0", "b", "t1", "h1"])


def run_idle(pnet, schedule, probe=lambda: None, obs=None):
    """Run ``schedule`` on a fluid engine over ``pnet``'s planes that
    carries no flows, so only the topology and routing layers move.

    Returns ``probe()`` as read halfway between consecutive event times
    and once after the last event, and the injector.
    """
    sim = FluidSimulator(pnet.planes)
    injector = FaultInjector(
        pnet, schedule, obs=obs if obs is not None else Registry()
    )
    injector.attach(sim)
    times = sorted({event.at for event in schedule})
    samples = []
    for at in [(a + b) / 2 for a, b in zip(times, times[1:])] + [
        times[-1] + 1.0
    ]:
        sim.schedule(at, lambda: samples.append(probe()))
    sim.run(until=times[-1] + 2.0)
    return samples, injector


def changed_links(registry):
    """``(event kind, links changed)`` per applied event, from the
    ``fault.event`` trace rows."""
    return [
        (event.fields["event"], event.fields["changed_links"])
        for event in registry.tracer.events()
        if event.kind == "fault.event"
    ]


class TestApplyAll:
    """A whole schedule applied to an engine with no flows."""

    def test_overlapping_events_refcount(self):
        """A link held down by two causes only restores when both lift."""
        pnet = make_pnet()
        schedule = FaultSchedule([
            FaultEvent(at=0.0, kind=SWITCH_DOWN, plane=0, node="a"),
            FaultEvent(at=1.0, kind=LINK_DOWN, plane=0, u="t0", v="a"),
            FaultEvent(at=2.0, kind=SWITCH_UP, plane=0, node="a"),
            FaultEvent(at=3.0, kind=LINK_UP, plane=0, u="t0", v="a"),
        ])
        registry = Registry(tracer=Tracer())
        held, injector = run_idle(
            pnet, schedule, lambda: pnet.planes[0].is_failed("t0", "a"),
            obs=registry,
        )
        assert held == [True, True, True, False]
        assert changed_links(registry) == [
            (SWITCH_DOWN, 2),   # t0-a and a-t1 both fail
            (LINK_DOWN, 0),     # already down: refcount only
            (SWITCH_UP, 1),     # a-t1 back; t0-a still held
            (LINK_UP, 1),       # last holder released
        ]
        assert surviving_capacity(pnet.planes) == 1.0
        assert injector.stats.links_failed == 2
        assert injector.stats.links_restored == 2
        assert injector.stats.events_applied == 4

    def test_restore_without_down_is_noop(self):
        pnet = make_pnet()
        schedule = FaultSchedule([
            FaultEvent(at=0.0, kind=LINK_UP, plane=0, u="t0", v="a"),
        ])
        __, injector = run_idle(pnet, schedule)
        assert injector.stats.links_restored == 0
        assert injector.stats.events_applied == 1

    def test_plane_events_cover_every_link(self):
        pnet = make_pnet()
        schedule = FaultSchedule([
            FaultEvent(at=0.0, kind=PLANE_DOWN, plane=1),
            FaultEvent(at=1.0, kind=PLANE_UP, plane=1),
        ])
        fractions, __ = run_idle(
            pnet, schedule, lambda: surviving_capacity(pnet.planes)
        )
        assert fractions == [0.5, 1.0]
        # The untouched plane never failed.
        assert len(pnet.planes[0].live_links) == len(pnet.planes[0].links)

    def test_routing_caches_repaired(self):
        pnet = make_pnet()
        # Warm the shortest-path cache, then kill switch a in plane 0.
        before = pnet.shortest_paths(0, "h0", "h1")
        assert any("a" in path for path in before)
        schedule = FaultSchedule([
            FaultEvent(at=0.0, kind=SWITCH_DOWN, plane=0, node="a"),
        ])
        run_idle(pnet, schedule)
        after = pnet.shortest_paths(0, "h0", "h1")
        assert after and all("a" not in path for path in after)

    def test_obs_metrics_published(self):
        registry = Registry()
        pnet = make_pnet()
        schedule = FaultSchedule([
            FaultEvent(at=0.0, kind=PLANE_DOWN, plane=0),
            FaultEvent(at=1.0, kind=PLANE_UP, plane=0),
        ])
        run_idle(pnet, schedule, obs=registry)
        assert registry.value("faults.events", kind=PLANE_DOWN) == 1
        assert registry.value("faults.events", kind=PLANE_UP) == 1
        assert registry.value("faults.surviving_capacity") == 1.0
        assert registry.value("faults.plane.live_links", plane=0) == len(
            pnet.planes[0].links
        )


class TestConstructionAndAttach:
    def test_negative_detection_delay_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(
                make_pnet(), FaultSchedule([]), detection_delay=-1e-3
            )

    def test_schedule_validated_at_construction(self):
        with pytest.raises(ValueError):
            FaultInjector(make_pnet(), FaultSchedule([
                FaultEvent(at=0.0, kind=PLANE_DOWN, plane=5)
            ]))

    def test_attach_rejects_foreign_planes(self):
        pnet = make_pnet()
        other = PacketNetwork([two_path_plane(), two_path_plane()])
        injector = FaultInjector(pnet, FaultSchedule([]), obs=Registry())
        with pytest.raises(ValueError):
            injector.attach(other)

    def test_attach_rejects_unknown_simulator(self):
        injector = FaultInjector(make_pnet(), FaultSchedule([]), obs=Registry())
        with pytest.raises(TypeError):
            injector.attach(object())

    def test_double_attach_and_late_apply_all_rejected(self):
        pnet = make_pnet()
        injector = FaultInjector(pnet, FaultSchedule([]), obs=Registry())
        injector.attach(PacketNetwork(pnet.planes))
        with pytest.raises(RuntimeError):
            injector.attach(PacketNetwork(pnet.planes))


class TestPacketResteer:
    def test_subflow_on_dead_switch_is_resteered(self):
        pnet = make_pnet()
        net = PacketNetwork(pnet.planes)
        schedule = FaultSchedule([
            FaultEvent(at=1e-3, kind=SWITCH_DOWN, plane=0, node="a"),
        ])
        injector = FaultInjector(pnet, schedule, obs=Registry())
        injector.attach(net)
        size = int(5 * MB)
        net.add_flow(spec=FlowSpec(
            src="h0", dst="h1", size=size, paths=[A0, A1], tag="bulk",
        ))
        net.run(until=1.0)
        assert injector.stats.flows_resteered == 1
        assert injector.stats.flows_stranded == 0
        # The moved flow completed as one flow: its one record covers
        # all of it, and no ACKed byte was lost or counted twice.
        assert len(net.records) == 1
        assert net.records[0].tag == "bulk"
        assert net.records[0].flow_id == 0
        assert net.records[0].size == size
        assert net.delivered_bytes == size
        # Without a selector the surviving path set is kept as-is.
        __, __, spec = net.active_flows()[0] if net.active_flows() else (
            None, None, None,
        )
        assert spec is None  # nothing left in flight

    @staticmethod
    def run_plane_outage(at=None):
        """Eight 1 MB flows on four planes, plane 0 down from 20 us to
        5 ms; every flow crosses plane 0 and is moved at 1.02 ms."""
        pnet, specs = jellyfish_workload(size=int(MB))
        net = PacketNetwork(pnet.planes)
        injector = FaultInjector(pnet, FaultSchedule([
            FaultEvent(at=20e-6, kind=PLANE_DOWN, plane=0),
            FaultEvent(at=5e-3, kind=PLANE_UP, plane=0),
        ]), obs=Registry())
        injector.attach(net)
        sources = [net.add_flow(spec=spec.replace(at=at)) for spec in specs]
        net.run()
        assert injector.stats.flows_resteered == len(specs) == 8
        return net, sources

    def test_moved_flow_keeps_its_id_size_and_start(self):
        net, __ = self.run_plane_outage()
        records = sorted(net.records, key=lambda r: r.flow_id)
        assert [r.flow_id for r in records] == list(range(8))
        for record in records:
            assert record.size == int(MB)
            assert record.start == 0.0
            assert 0 not in record.planes  # it finished off plane 0
            # Summed over both legs: at least one packet per MSS.
            assert record.packets_sent >= math.ceil(int(MB) / MSS)
        assert net.delivered_bytes == 8 * int(MB)

    def test_flow_moved_before_it_arrives_keeps_its_arrival(self):
        net, first_legs = self.run_plane_outage(at=5e-3)
        assert len(net.records) == 8
        assert {r.start for r in net.records} == {5e-3}
        assert {r.size for r in net.records} == {int(MB)}
        # The sources the move replaced never start, so they send no
        # packet on the old paths when the flows arrive.
        assert all(s.start_time is None for s in first_legs)
        assert sum(s.packets_sent for s in first_legs) == 0

    def test_fully_partitioned_flow_is_stranded(self):
        pnet = make_pnet()
        net = PacketNetwork(pnet.planes)
        schedule = FaultSchedule([
            FaultEvent(at=1e-3, kind=PLANE_DOWN, plane=0),
            FaultEvent(at=1e-3, kind=PLANE_DOWN, plane=1),
        ])
        injector = FaultInjector(pnet, schedule, obs=Registry())
        injector.attach(net)
        net.add_flow(spec=FlowSpec(
            src="h0", dst="h1", size=int(5 * MB), paths=[A0, B1],
        ))
        net.run(until=0.5)
        assert injector.stats.flows_stranded == 1
        assert injector.stats.flows_resteered == 0
        assert net.records == []
        assert net.active_flows() == []

    def test_reroute_latency_observed(self):
        registry = Registry()
        pnet = make_pnet()
        net = PacketNetwork(pnet.planes)
        schedule = FaultSchedule([
            FaultEvent(at=1e-3, kind=SWITCH_DOWN, plane=0, node="a"),
        ])
        injector = FaultInjector(
            pnet, schedule, obs=registry, detection_delay=2e-3
        )
        injector.attach(net)
        net.add_flow(spec=FlowSpec(
            src="h0", dst="h1", size=int(2 * MB), paths=[A0, B1],
        ))
        net.run(until=1.0)
        latencies = registry.histogram("faults.reroute_seconds").values
        assert len(latencies) == 1
        assert latencies[0] >= 2e-3  # detection delay floors the latency
        assert registry.value("faults.flows_resteered") == 1


class TestFluidResteer:
    def test_migrate_off_dead_switch(self):
        pnet = make_pnet()
        sim = FluidSimulator(pnet.planes, slow_start=False)
        schedule = FaultSchedule([
            FaultEvent(at=0.1, kind=SWITCH_DOWN, plane=0, node="a"),
        ])
        injector = FaultInjector(pnet, schedule, obs=Registry())
        injector.attach(sim)
        sim.add_flow(spec=FlowSpec(
            src="h0", dst="h1", size=1e12, paths=[A0, A1],
        ))
        sim.run(until=0.2)
        assert injector.stats.flows_resteered == 1
        (__, __, __, paths), = sim.active_flow_paths()
        assert all(path_is_live(pnet, pp) for pp in paths)

    def test_partitioned_fluid_flow_aborted(self):
        pnet = make_pnet()
        sim = FluidSimulator(pnet.planes, slow_start=False)
        schedule = FaultSchedule([
            FaultEvent(at=0.1, kind=PLANE_DOWN, plane=0),
            FaultEvent(at=0.1, kind=PLANE_DOWN, plane=1),
        ])
        injector = FaultInjector(pnet, schedule, obs=Registry())
        injector.attach(sim)
        sim.add_flow(spec=FlowSpec(
            src="h0", dst="h1", size=1e12, paths=[A0, B1],
        ))
        sim.run(until=0.2)
        assert injector.stats.flows_stranded == 1
        assert sim.active_flow_paths() == []

    def test_rebalance_on_restore(self):
        """After a plane-up, flows spread back over the recovered plane."""
        pnet = make_pnet()
        selector = FailureAwareSelector(
            KspMultipathPolicy(pnet, k=2, seed=0)
        )
        sim = FluidSimulator(pnet.planes, slow_start=False)
        schedule = FaultSchedule([
            FaultEvent(at=0.1, kind=PLANE_DOWN, plane=0),
            FaultEvent(at=0.2, kind=PLANE_UP, plane=0),
        ])
        FaultInjector(
            pnet, schedule, selector=selector, obs=Registry(),
        ).attach(sim)
        sim.add_flow(spec=FlowSpec(
            src="h0", dst="h1", size=1e15,
            paths=selector.select("h0", "h1", 0),
        ))

        def planes_in_use():
            (__, __, __, paths), = sim.active_flow_paths()
            return {plane for plane, __ in paths}

        seen = []
        for at in (0.05, 0.15, 0.25):
            sim.schedule(at, lambda: seen.append(planes_in_use()))
        sim.run(until=0.3)
        assert seen == [{0, 1}, {1}, {0, 1}]
