"""Tests for the fluid simulator: max-min allocation and flow dynamics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowspec import FlowSpec
from repro.fluid.flowsim import FluidSimulator
from repro.fluid.maxmin import max_min_rates
from repro.topology import ParallelTopology, build_fat_tree
from repro.topology.graph import HOST, TOR, Topology
from repro.units import GB, Gbps, MB


class TestMaxMin:
    def test_single_flow_gets_bottleneck(self):
        rates = max_min_rates([10.0, 4.0], [[0, 1]])
        assert rates[0] == pytest.approx(4.0)

    def test_equal_sharing(self):
        rates = max_min_rates([9.0], [[0], [0], [0]])
        assert list(rates) == pytest.approx([3.0, 3.0, 3.0])

    def test_classic_three_link_example(self):
        # Links A(1), B(2): f0 uses A, f1 uses A+B, f2 uses B.
        rates = max_min_rates([1.0, 2.0], [[0], [0, 1], [1]])
        assert rates[0] == pytest.approx(0.5)
        assert rates[1] == pytest.approx(0.5)
        assert rates[2] == pytest.approx(1.5)

    def test_cap_releases_share(self):
        # Two flows on a 10 link; one capped at 2 -> other gets 8.
        rates = max_min_rates([10.0], [[0], [0]], flow_caps=[2.0, math.inf])
        assert rates[0] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(8.0)

    def test_unconstrained_flow(self):
        rates = max_min_rates([10.0], [[], [0]], flow_caps=[5.0, math.inf])
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(10.0)

    def test_no_flows(self):
        assert len(max_min_rates([1.0], [])) == 0

    def test_validations(self):
        with pytest.raises(ValueError):
            max_min_rates([-1.0], [[0]])
        with pytest.raises(ValueError):
            max_min_rates([1.0], [[0]], flow_caps=[1.0, 2.0])
        with pytest.raises(ValueError):
            max_min_rates([1.0], [[0]], flow_caps=[-1.0])
        with pytest.raises(IndexError):
            max_min_rates([1.0], [[1]])
        with pytest.raises(IndexError):
            max_min_rates([1.0, 2.0], [[0], [-1]])

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_property_feasible_and_saturating(self, data):
        """Max-min allocations are feasible, and each flow is at its cap
        or bottlenecked."""
        n_links = data.draw(st.integers(1, 6))
        caps = data.draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1.0, 100.0)),
                min_size=n_links,
                max_size=n_links,
            )
        )
        n_flows = data.draw(st.integers(1, 8))
        flows = [
            data.draw(
                st.lists(
                    st.integers(0, n_links - 1),
                    min_size=0,
                    max_size=n_links,
                    unique=True,
                )
            )
            for __ in range(n_flows)
        ]
        flow_caps = data.draw(
            st.one_of(
                st.none(),
                st.lists(
                    st.one_of(st.just(math.inf), st.floats(0.5, 150.0)),
                    min_size=n_flows,
                    max_size=n_flows,
                ),
            )
        )
        rates = max_min_rates(caps, flows, flow_caps)
        if flow_caps is None:
            flow_caps = [math.inf] * n_flows
        # Feasibility: no link oversubscribed, no flow above its cap.
        usage = [0.0] * n_links
        for f_idx, links in enumerate(flows):
            assert rates[f_idx] <= flow_caps[f_idx]
            for l in links:
                usage[l] += rates[f_idx]
        for l in range(n_links):
            assert usage[l] <= caps[l] * (1 + 1e-6)
        # Max-min property with caps: every flow is at its cap, or
        # crosses a saturated link where it has a maximal rate among
        # that link's flows.
        for f_idx, links in enumerate(flows):
            if rates[f_idx] == flow_caps[f_idx]:
                continue
            bottlenecked = False
            for l in links:
                saturated = usage[l] >= caps[l] * (1 - 1e-6)
                is_max = all(
                    rates[f_idx] >= rates[other] - 1e-6 * caps[l]
                    for other, olinks in enumerate(flows)
                    if l in olinks
                )
                if saturated and is_max:
                    bottlenecked = True
                    break
            assert bottlenecked, f"flow {f_idx} not bottlenecked"


def dumbbell(capacity=10 * Gbps, propagation=1e-6):
    """h0,h1 - t0 === t1 - h2,h3 with a single shared core link."""
    topo = Topology("dumbbell")
    for i in range(4):
        topo.add_node(f"h{i}", HOST)
    topo.add_node("t0", TOR)
    topo.add_node("t1", TOR)
    topo.add_link("h0", "t0", capacity, propagation)
    topo.add_link("h1", "t0", capacity, propagation)
    topo.add_link("h2", "t1", capacity, propagation)
    topo.add_link("h3", "t1", capacity, propagation)
    topo.add_link("t0", "t1", capacity, propagation)
    return topo


PATH_02 = (0, ["h0", "t0", "t1", "h2"])
PATH_13 = (0, ["h1", "t0", "t1", "h3"])


class TestFluidSimulator:
    def test_single_flow_fct(self):
        sim = FluidSimulator([dumbbell()], slow_start=False)
        sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1 * GB, paths=[PATH_02]))
        records = sim.run()
        assert len(records) == 1
        # 1 GB at 10 Gb/s = 0.8 s (plus sub-ms latency terms).
        assert records[0].fct == pytest.approx(0.8, rel=1e-3)

    def test_two_flows_share_core(self):
        sim = FluidSimulator([dumbbell()], slow_start=False)
        sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1 * GB, paths=[PATH_02]))
        sim.add_flow(spec=FlowSpec(src="h1", dst="h3", size=1 * GB, paths=[PATH_13]))
        records = sim.run()
        # Shared 10G core: both take ~1.6 s.
        for rec in records:
            assert rec.fct == pytest.approx(1.6, rel=1e-3)

    def test_late_arrival_speeds_up_after_departure(self):
        sim = FluidSimulator([dumbbell()], slow_start=False)
        sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1 * GB, paths=[PATH_02], at=0.0))
        sim.add_flow(spec=FlowSpec(src="h1", dst="h3", size=1 * GB, paths=[PATH_13], at=0.0))
        sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1 * GB, paths=[PATH_02], at=10.0))
        records = sim.run()
        alone = records[-1]
        assert alone.arrival == 10.0
        assert alone.fct == pytest.approx(0.8, rel=1e-3)

    def test_multipath_doubles_throughput(self):
        pnet = ParallelTopology.homogeneous(lambda: dumbbell(), 2)
        sim = FluidSimulator(pnet.planes, slow_start=False)
        sim.add_flow(spec=FlowSpec(
            src="h0", dst="h2", size=1 * GB,
            paths=[(0, ["h0", "t0", "t1", "h2"]),
                   (1, ["h0", "t0", "t1", "h2"])],
        ))
        records = sim.run()
        assert records[0].fct == pytest.approx(0.4, rel=1e-3)

    def test_slow_start_penalises_small_flows(self):
        # At 100G (the paper's setting) the initial window rate is well
        # below line rate, so the ramp visibly stretches small flows.
        fast = FluidSimulator([dumbbell(100 * Gbps)], slow_start=False)
        fast.add_flow(spec=FlowSpec(src="h0", dst="h2", size=100_000, paths=[PATH_02]))
        ideal = fast.run()[0].fct

        slow = FluidSimulator([dumbbell(100 * Gbps)], slow_start=True)
        slow.add_flow(spec=FlowSpec(src="h0", dst="h2", size=100_000, paths=[PATH_02]))
        ramped = slow.run()[0].fct
        assert ramped > ideal * 1.2

    def test_slow_start_negligible_for_bulk(self):
        a = FluidSimulator([dumbbell()], slow_start=False)
        a.add_flow(spec=FlowSpec(src="h0", dst="h2", size=10 * GB, paths=[PATH_02]))
        b = FluidSimulator([dumbbell()], slow_start=True)
        b.add_flow(spec=FlowSpec(src="h0", dst="h2", size=10 * GB, paths=[PATH_02]))
        assert b.run()[0].fct == pytest.approx(a.run()[0].fct, rel=0.01)

    def test_closed_loop_callback(self):
        sim = FluidSimulator([dumbbell()], slow_start=False)
        completions = []

        def again(record):
            completions.append(record)
            if len(completions) < 3:
                sim.add_flow(spec=FlowSpec(
                    src="h0", dst="h2", size=100 * MB, paths=[PATH_02],
                    on_complete=again,
                ))

        sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=100 * MB, paths=[PATH_02], on_complete=again))
        records = sim.run()
        assert len(records) == 3
        arrivals = [r.arrival for r in records]
        assert arrivals == sorted(arrivals)
        assert arrivals[1] > 0

    def test_zero_size_flow_completes_immediately(self):
        sim = FluidSimulator([dumbbell()])
        sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=0, paths=[PATH_02]))
        records = sim.run()
        assert records[0].fct == pytest.approx(
            records[0].completion - records[0].arrival
        )
        assert records[0].fct < 1e-4

    def test_tags_and_records(self):
        sim = FluidSimulator([dumbbell()], slow_start=False)
        sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1000, paths=[PATH_02], tag="stage1"))
        rec = sim.run()[0]
        assert rec.tag == "stage1"
        assert rec.src == "h0" and rec.dst == "h2"
        assert rec.n_subflows == 1

    def test_path_validation(self):
        sim = FluidSimulator([dumbbell()])
        with pytest.raises(ValueError):
            sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1, paths=[(0, ["h0", "t1", "h2"])]))  # no link
        with pytest.raises(ValueError):
            sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1, paths=[]))
        with pytest.raises(ValueError):
            sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=-1, paths=[PATH_02]))
        with pytest.raises(ValueError):
            sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1, paths=[PATH_02], at=-5))

    def test_failed_links_not_usable(self):
        topo = dumbbell()
        topo.fail_link("t0", "t1")
        sim = FluidSimulator([topo])
        with pytest.raises(ValueError):
            sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1, paths=[PATH_02]))

    def test_fault_on_unknown_plane_is_named(self):
        sim = FluidSimulator([dumbbell()])
        for plane in (1, -1):
            with pytest.raises(ValueError, match=rf"plane {plane} is not simulated"):
                sim.fail_link(plane, "t0", "t1")
            with pytest.raises(ValueError, match=rf"plane {plane} is not simulated"):
                sim.restore_link(plane, "t0", "t1")

    def test_until_stops_early(self):
        sim = FluidSimulator([dumbbell()], slow_start=False)
        sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=10 * GB, paths=[PATH_02]))
        records = sim.run(until=0.1)
        assert records == []
        assert sim.now == pytest.approx(0.1)

    def test_clock_never_runs_backwards(self):
        """``run(until=t)`` with ``t`` behind the clock changes nothing,
        so no interval is credited twice."""
        def busy():
            sim = FluidSimulator([dumbbell()], slow_start=False)
            sim.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1 * GB, paths=[PATH_02]))
            return sim

        golden = busy()
        golden.run(until=0.3)
        golden.run()
        sim = busy()
        sim.run(until=0.3)
        delivered = sim.delivered_bytes
        assert sim.run(until=0.1) == []
        assert sim.now == 0.3
        assert sim.delivered_bytes == delivered
        assert sim.run() == golden.records

        idle = FluidSimulator([dumbbell()], slow_start=False)
        idle.add_flow(spec=FlowSpec(src="h0", dst="h2", size=1 * MB, paths=[PATH_02], at=1.0))
        idle.run(until=0.5)
        assert idle.now == 0.5
        idle.run(until=0.2)
        assert idle.now == 0.5

    def test_fat_tree_permutation_full_rate(self):
        """All hosts sending cross-pod simultaneously each get line rate."""
        topo = build_fat_tree(4)
        sim = FluidSimulator([topo], slow_start=False)
        hosts = sorted(topo.hosts, key=lambda h: int(h[1:]))
        from repro.routing.shortest import all_shortest_paths

        n = len(hosts)
        for i, src in enumerate(hosts):
            dst = hosts[(i + n // 2) % n]
            # Pick path i%4 of the 4 equal-cost ones: this shifted
            # permutation with distinct cores is collision-free.
            paths = all_shortest_paths(topo, src, dst)
            sim.add_flow(spec=FlowSpec(src=src, dst=dst, size=1 * GB, paths=[(0, paths[i % len(paths)])]))
        records = sim.run()
        for rec in records:
            # 1 GB at 100G line rate = 80 ms if no collisions; allow
            # up to 2x for unlucky path picks.
            assert rec.fct < 0.17
