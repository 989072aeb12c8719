"""Tests for fluid-sim control hooks and DARD on the control loop."""

import pytest

from repro.api import run_trial
from repro.control import ControlSample, Controller, DardPolicy, FlowView
from repro.core.flowspec import FlowSpec
from repro.core.pnet import PNet
from repro.exp import adaptive_routing
from repro.fluid.flowsim import FluidSimulator
from repro.topology.graph import HOST, TOR, Topology
from repro.units import GB, Gbps, MB


def two_path_net(cap=10 * Gbps):
    """h0/h1 -> t0, two disjoint t0->t1 switch paths (via a and b)."""
    topo = Topology("twopath")
    for i in range(4):
        topo.add_node(f"h{i}", HOST)
    for t in ("t0", "t1", "a", "b"):
        topo.add_node(t, TOR)
    topo.add_link("h0", "t0", cap)
    topo.add_link("h1", "t0", cap)
    topo.add_link("h2", "t1", cap)
    topo.add_link("h3", "t1", cap)
    topo.add_link("t0", "a", cap)
    topo.add_link("a", "t1", cap)
    topo.add_link("t0", "b", cap)
    topo.add_link("b", "t1", cap)
    return topo


VIA_A = (0, ["h0", "t0", "a", "t1", "h2"])
VIA_B = (0, ["h0", "t0", "b", "t1", "h2"])
H1_VIA_A = (0, ["h1", "t0", "a", "t1", "h3"])


class TestControlHooks:
    def test_schedule_fires_in_order(self):
        sim = FluidSimulator([two_path_net()], slow_start=False)
        fired = []
        sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1 * GB, paths=[VIA_A]))
        sim.schedule(0.1, lambda: fired.append(("a", sim.now)))
        sim.schedule(0.05, lambda: fired.append(("b", sim.now)))
        sim.run()
        assert [name for name, __ in fired] == ["b", "a"]
        assert fired[0][1] == pytest.approx(0.05)

    def test_schedule_past_rejected(self):
        sim = FluidSimulator([two_path_net()])
        sim.now = 1.0
        with pytest.raises(ValueError):
            sim.schedule(0.5, lambda: None)

    def test_timer_fires_with_no_active_flows(self):
        sim = FluidSimulator([two_path_net()])
        fired = []
        sim.schedule(0.2, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(0.2)]

    def test_migrate_flow_moves_traffic(self):
        sim = FluidSimulator([two_path_net()], slow_start=False)
        # Two flows sharing path A: each gets 5G.
        fid = sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1 * GB, paths=[VIA_A]))
        sim.add_flow(spec=FlowSpec(src="h1", dst="h3", size=1 * GB, paths=[H1_VIA_A]))
        sim.schedule(0.01, lambda: sim.migrate_flow(fid, [VIA_B]))
        records = sim.run()
        moved = next(r for r in records if r.flow_id == fid)
        other = next(r for r in records if r.flow_id != fid)
        # After migration both flows run at full 10G: FCT ~0.8s+epsilon.
        assert moved.fct < 1.0
        assert other.fct < 1.0

    def test_migrate_unknown_flow_returns_false(self):
        sim = FluidSimulator([two_path_net()])
        assert sim.migrate_flow(999, [VIA_A]) is False

    def test_migrate_validates_paths(self):
        sim = FluidSimulator([two_path_net()], slow_start=False)
        fid = sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1 * GB, paths=[VIA_A]))
        sim.schedule(0.01, lambda: sim.migrate_flow(fid, []))
        with pytest.raises(ValueError):
            sim.run()


def flow(gid, src, dst, path, rate):
    return FlowView(
        gid=gid, src=src, dst=dst, size=1 * GB, paths=[path],
        transport="tcp", tag=None, acked=None,
        progress=[rate / 8.0 * 0.01], rates=[rate],
    )


def decide(pnet, flows, hysteresis=1.2):
    sample = ControlSample(
        now=0.01, interval=0.01, n_planes=1, plane_load={0: 0.0},
        flows=flows,
    )
    return DardPolicy(pnet, hysteresis=hysteresis).decide(sample)


class TestAdaptiveRouter:
    """DARD as a :class:`DardPolicy`, run by the :class:`Controller`."""

    def make(self):
        pnet = PNet.serial(two_path_net())
        sim = FluidSimulator(pnet.planes, slow_start=False)
        return pnet, sim

    def run(self, pnet, sim, specs, **policy_kwargs):
        controller = Controller(
            DardPolicy(pnet, **policy_kwargs), interval=0.01, pnet=pnet
        )
        return run_trial(sim, specs, control=controller), controller

    def test_colliding_flows_get_separated(self):
        pnet, sim = self.make()
        # Both flows hash onto path A: 5G each without adaptation.
        result, controller = self.run(pnet, sim, [
            FlowSpec(src="h0", dst="h2", size=1 * GB, paths=[VIA_A]),
            FlowSpec(src="h1", dst="h3", size=1 * GB, paths=[H1_VIA_A]),
        ], candidates=4)
        # One move: the second flow sees the first one's move to B in
        # the same tick and stays.
        assert controller.stats.applied == 1
        # With separation both approach line rate: well under the 1.6s
        # collision time.
        for rec in result.records:
            assert rec.fct < 1.0

    def test_no_migration_when_alone(self):
        pnet, sim = self.make()
        __, controller = self.run(pnet, sim, [
            FlowSpec(src="h0", dst="h2", size=100 * MB, paths=[VIA_A]),
        ])
        # A lone flow at line rate sees no candidate with 1.2x headroom.
        assert controller.stats.ticks > 0
        assert controller.stats.decisions == 0

    def test_controller_stops_when_flows_finish(self):
        pnet, sim = self.make()
        __, controller = self.run(pnet, sim, [
            FlowSpec(src="h0", dst="h2", size=10 * MB, paths=[VIA_A]),
        ])
        # run_trial returned, so the loop stopped rescheduling itself.
        assert not sim.has_pending()
        assert controller.stats.ticks == 1

    def test_validations(self):
        pnet, __ = self.make()
        with pytest.raises(ValueError):
            Controller(DardPolicy(pnet), interval=0)
        with pytest.raises(ValueError):
            DardPolicy(pnet, hysteresis=1.0)

    def test_headroom_leaves_out_the_flows_own_traffic(self):
        # A 5G flow on path A.  From its own viewpoint its traffic moves
        # with it, so path B -- which shares the host uplink -- shows
        # the full 10G: the move clears 1.99x the rate, not 2.01x.  Were
        # its own 5G counted, B would show 5G and clear neither.
        pnet, __ = self.make()
        lone = [flow(0, "h0", "h2", VIA_A, 5e9)]
        [decision] = decide(pnet, lone, hysteresis=1.99)
        assert decision.paths == [VIA_B]
        assert decide(pnet, lone, hysteresis=2.01) == []

    def test_dead_candidates_are_skipped(self):
        pnet, __ = self.make()
        pnet.planes[0].fail_link("t0", "b")
        assert decide(pnet, [flow(0, "h0", "h2", VIA_A, 5e9)]) == []


def test_experiment_mean_fcts_are_exact():
    """The experiment's mean FCTs, pinned with ``==``: DARD adds each
    link's rates in the engine's order, so a drift in that order, or in
    the moves it decides, shows here."""
    tiny = adaptive_routing.run("tiny").mean_fct
    assert tiny == {
        "static-ecmp": 0.0160034502,
        "ecmp+adaptive": 0.0160034502,
        "mptcp-ksp": 0.004603847252817728,
    }
    small = adaptive_routing.run("small").mean_fct
    assert small == {
        "static-ecmp": 0.051670680841666664,
        "ecmp+adaptive": 0.04027460422500004,
        "mptcp-ksp": 0.014658389635022251,
    }
