"""Hybrid co-simulation engine: limits, bridge coupling, bookkeeping.

The contract pinned here is the tentpole guarantee of ``repro.hybrid``:

* promote-**none** is byte-identical to the pure fluid simulator and
  promote-**all** to the pure packet simulator -- records *and*
  telemetry, because an engine that never receives a flow is never run
  and never publishes a metric row;
* in between, the background-load bridge maps fluid link usage onto
  packet queue service rates (floored, recomputed at fluid rate-change
  boundaries) and every byte offered is delivered by exactly one side;
* the merged :class:`~repro.api.TrialResult` reports per-flow fidelity
  with hybrid-global flow ids in submission order.
"""

import math
import pickle

import pytest

from repro.api import build_network, run_trial
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.core.pnet import PNet
from repro.fluid.flowsim import FluidSimulator
from repro.hybrid import (
    BackgroundLoadBridge,
    HybridSimulator,
    PromoteAll,
    PromoteNone,
    Sampled,
    Tagged,
)
from repro.obs import Registry
from repro.sim.network import PacketNetwork
from repro.topology import ParallelTopology, build_jellyfish


def make_pnet(n_planes=2, seed=0):
    return PNet(
        ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(8, 4, 1, seed=s + seed), n_planes
        )
    )


def flows_for(pnet, n=6, size=100_000, tag_every=None):
    policy = KspMultipathPolicy(pnet, k=2, seed=0)
    hosts = pnet.hosts
    specs = []
    for i in range(min(n, len(hosts) - 1)):
        tag = "probe" if tag_every and i % tag_every == 0 else None
        specs.append(FlowSpec(
            src=hosts[i], dst=hosts[i + 1], size=size,
            paths=policy.select(hosts[i], hosts[i + 1], i), tag=tag,
        ))
    return specs


def record_bytes(records):
    return [pickle.dumps(r) for r in records]


class TestLimits:
    def test_promote_none_matches_pure_fluid(self):
        pnet = make_pnet()
        pure = build_network(pnet, kind="fluid")
        for spec in flows_for(pnet):
            pure.add_flow(spec=spec)
        pure_records = pure.run()

        hybrid = build_network(pnet, kind="hybrid", promotion=PromoteNone())
        for spec in flows_for(pnet):
            hybrid.add_flow(spec=spec)
        hybrid_records = hybrid.run()

        assert record_bytes(hybrid_records) == record_bytes(pure_records)
        assert set(hybrid.fidelity.values()) == {"fluid"}
        # the packet side was never touched
        assert not hybrid._packet_used
        assert hybrid.bridge.refreshes == 0

    def test_promote_all_matches_pure_packet(self):
        pnet = make_pnet()
        pure = build_network(pnet, kind="packet")
        for spec in flows_for(pnet):
            pure.add_flow(spec=spec)
        pure.run()
        pure_records = pure.records

        hybrid = build_network(pnet, kind="hybrid", promotion=PromoteAll())
        for spec in flows_for(pnet):
            hybrid.add_flow(spec=spec)
        hybrid_records = hybrid.run()

        assert record_bytes(hybrid_records) == record_bytes(pure_records)
        assert set(hybrid.fidelity.values()) == {"packet"}
        assert not hybrid._fluid_used

    @pytest.mark.parametrize("limit", ["none", "all"])
    def test_limit_metrics_identical(self, limit):
        """Telemetry rows, not just records, match the pure engine."""
        def run(kind, promotion=None):
            pnet = make_pnet()
            reg = Registry()
            kwargs = {"promotion": promotion} if kind == "hybrid" else {}
            net = build_network(pnet, kind=kind, obs=reg, **kwargs)
            for spec in flows_for(pnet):
                net.add_flow(spec=spec)
            net.run()
            return reg.snapshot(include_wallclock=False)

        if limit == "none":
            pure = run("fluid")
            hybrid = run("hybrid", PromoteNone())
        else:
            pure = run("packet")
            hybrid = run("hybrid", PromoteAll())
        assert hybrid == pure

    def test_promote_all_with_finite_until(self):
        pnet = make_pnet()
        specs = flows_for(pnet)

        pure = build_network(pnet, kind="packet")
        for spec in specs:
            pure.add_flow(spec=spec)
        pure.run(until=0.001)

        hybrid = build_network(pnet, kind="hybrid", promotion=PromoteAll())
        for spec in specs:
            hybrid.add_flow(spec=spec)
        hybrid.run(until=0.001)
        assert record_bytes(hybrid.records) == record_bytes(pure.records)
        assert hybrid.now == pytest.approx(0.001)


class TestBridge:
    def test_byte_conservation_mid_spectrum(self):
        pnet = make_pnet()
        specs = flows_for(pnet)
        hybrid = build_network(
            pnet, kind="hybrid", promotion=Sampled(0.5, seed=3)
        )
        for spec in specs:
            hybrid.add_flow(spec=spec)
        records = hybrid.run()
        counts = hybrid.fidelity_counts()
        assert counts.get("packet") and counts.get("fluid"), (
            f"sample produced a degenerate split: {counts}"
        )
        # every flow completed on exactly one side, all bytes delivered
        assert len(records) == len(specs)
        assert sorted(r.flow_id for r in records) == list(range(len(specs)))
        assert sum(r.size for r in records) == sum(s.size for s in specs)
        assert hybrid.delivered_bytes == sum(s.size for s in specs)
        assert hybrid.bridge.refreshes > 0

    def test_fluid_load_reduces_packet_service_rate(self):
        """The bridge visibly slows a promoted flow sharing a link."""
        pnet = make_pnet(n_planes=1)
        hosts = pnet.hosts
        policy = KspMultipathPolicy(pnet, k=1, seed=0)
        probe = FlowSpec(
            src=hosts[0], dst=hosts[1], size=50_000,
            paths=policy.select(hosts[0], hosts[1], 0),
            fidelity="packet",
        )

        def fct_with_background(n_background):
            net = build_network(pnet, kind="hybrid", promotion=PromoteNone())
            net.add_flow(spec=probe)
            # bulk fluid flows down the same first hop
            for i in range(n_background):
                net.add_flow(spec=probe.replace(
                    size=10_000_000, fidelity="fluid",
                ))
            net.run()
            by_id = {r.flow_id: r for r in net.records}
            return by_id[0].fct, net

        alone, _ = fct_with_background(0)
        loaded, net = fct_with_background(4)
        assert loaded > alone * 1.5
        # and the reduction is floored, never zero or negative
        for queue in net.packet._elements.values():
            assert queue.rate > 0

    def test_bridge_gauges_published(self):
        pnet = make_pnet()
        reg = Registry()
        net = build_network(
            pnet, kind="hybrid", obs=reg, promotion=Sampled(0.5, seed=3)
        )
        for spec in flows_for(pnet):
            net.add_flow(spec=spec)
        net.run()
        rows = {r["name"] for r in reg.snapshot(include_wallclock=False)}
        assert "hybrid.bridge.refreshes" in rows
        assert "hybrid.bridge.cross_traffic_bps" in rows

    def test_bridge_floor_validated(self):
        pnet = make_pnet()
        with pytest.raises(ValueError):
            HybridSimulator(pnet.planes, bridge_floor=0.0)
        with pytest.raises(ValueError):
            HybridSimulator(pnet.planes, bridge_floor=1.5)
        fluid = FluidSimulator(make_pnet().planes)
        packet = PacketNetwork(make_pnet().planes)
        with pytest.raises(ValueError):
            BackgroundLoadBridge(fluid, packet, floor=-0.1)


class TestBookkeeping:
    def test_fidelity_hint_overrides_policy(self):
        pnet = make_pnet()
        specs = flows_for(pnet, n=4)
        net = build_network(pnet, kind="hybrid", promotion=PromoteAll())
        net.add_flow(spec=specs[0].replace(fidelity="fluid"))
        for spec in specs[1:]:
            net.add_flow(spec=spec)
        net.run()
        assert net.fidelity[0] == "fluid"
        assert all(net.fidelity[i] == "packet" for i in (1, 2, 3))

    def test_tagged_policy_routes_by_tag(self):
        pnet = make_pnet()
        specs = flows_for(pnet, n=6, tag_every=3)
        net = build_network(pnet, kind="hybrid", promotion=Tagged("probe"))
        for spec in specs:
            net.add_flow(spec=spec)
        net.run()
        for i, spec in enumerate(specs):
            expected = "packet" if spec.tag == "probe" else "fluid"
            assert net.fidelity[i] == expected

    def test_records_in_completion_order_with_global_ids(self):
        pnet = make_pnet()
        specs = flows_for(pnet)
        net = build_network(
            pnet, kind="hybrid", promotion=Sampled(0.5, seed=3)
        )
        for spec in specs:
            net.add_flow(spec=spec)
        records = net.run()
        finishes = [
            r.finish if hasattr(r, "finish") else r.completion
            for r in records
        ]
        assert finishes == sorted(finishes)

    def test_run_trial_merges_fidelity_and_monitor(self):
        pnet = make_pnet()
        specs = flows_for(pnet)
        net = build_network(pnet, kind="hybrid")
        result = run_trial(net, specs, promotion=Sampled(0.5, seed=3))
        assert set(result.fidelity) == set(range(len(specs)))
        assert result.engine == "hybrid"
        assert result.meta["fidelity_counts"] == net.fidelity_counts()
        assert result.meta["bridge_refreshes"] == net.bridge.refreshes
        total = sum(
            s.bytes_carried for s in result.monitor.stats.values()
        )
        assert total == sum(s.size for s in specs)

    def test_fail_link_forwards_to_both_engines(self):
        pnet = make_pnet()
        net = build_network(pnet, kind="hybrid")
        plane = net.planes[0]
        link = plane.links[0]
        u, v = link.key
        net.fail_link(0, u, v)
        assert plane.is_failed(u, v)
        net.restore_link(0, u, v)
        assert not plane.is_failed(u, v)

    def test_unknown_engine_kwarg_rejected(self):
        pnet = make_pnet()
        with pytest.raises(TypeError):
            build_network(pnet, kind="hybrid", warp_speed=9)

    def test_add_flow_requires_spec(self):
        pnet = make_pnet()
        net = build_network(pnet, kind="hybrid")
        with pytest.raises(TypeError):
            net.add_flow(None)
