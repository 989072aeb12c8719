"""Tests for the LP throughput solvers."""

import math
import random

import pytest

import repro.lp.ideal
from repro.exp import expander_families, fig7
from repro.exp.common import JellyfishFamily
from repro.lp.ideal import (
    _solve_edge_flows,
    ideal_throughput,
    merge_parallel,
    merge_parallel_with_rack_sources,
)
from repro.lp.mcf import Commodity, max_concurrent_flow
from repro.topology import ParallelTopology, build_fat_tree, build_jellyfish
from repro.topology.graph import HOST, TOR, Topology
from repro.traffic.patterns import permutation, rack_level_all_to_all
from repro.units import Gbps


def line_topology(capacity=10 * Gbps):
    """h0 - t0 - t1 - h1."""
    topo = Topology("line")
    topo.add_node("h0", HOST)
    topo.add_node("h1", HOST)
    topo.add_node("t0", TOR)
    topo.add_node("t1", TOR)
    topo.add_link("h0", "t0", capacity)
    topo.add_link("t0", "t1", capacity)
    topo.add_link("t1", "h1", capacity)
    return topo


def two_path_topology(cap_a=10 * Gbps, cap_b=5 * Gbps):
    """h0-t0, two disjoint t0->t1 paths via a (cap_a) and b (cap_b)."""
    topo = Topology("twopath")
    for n, k in (("h0", HOST), ("h1", HOST)):
        topo.add_node(n, k)
    for t in ("t0", "t1", "a", "b"):
        topo.add_node(t, TOR)
    big = 100 * Gbps
    topo.add_link("h0", "t0", big)
    topo.add_link("h1", "t1", big)
    topo.add_link("t0", "a", cap_a)
    topo.add_link("a", "t1", cap_a)
    topo.add_link("t0", "b", cap_b)
    topo.add_link("b", "t1", cap_b)
    return topo


class TestMcf:
    def test_single_flow_bottleneck(self):
        topo = line_topology()
        commodity = Commodity(
            "h0", "h1", [(0, ["h0", "t0", "t1", "h1"])]
        )
        result = max_concurrent_flow([topo], [commodity])
        assert result.alpha == pytest.approx(10 * Gbps, rel=1e-6)

    def test_two_paths_sum(self):
        topo = two_path_topology()
        commodity = Commodity(
            "h0",
            "h1",
            [
                (0, ["h0", "t0", "a", "t1", "h1"]),
                (0, ["h0", "t0", "b", "t1", "h1"]),
            ],
        )
        result = max_concurrent_flow([topo], [commodity])
        assert result.alpha == pytest.approx(15 * Gbps, rel=1e-6)
        assert sum(result.path_rates[0]) == pytest.approx(15 * Gbps, rel=1e-6)

    def test_concurrent_objective_is_fair(self):
        # Two flows share one 10G link; each gets 5G.
        topo = line_topology()
        path = [(0, ["h0", "t0", "t1", "h1"])]
        flows = [Commodity("h0", "h1", path), Commodity("h0", "h1", path)]
        result = max_concurrent_flow([topo], flows)
        assert result.alpha == pytest.approx(5 * Gbps, rel=1e-6)
        assert result.total_throughput == pytest.approx(10 * Gbps, rel=1e-6)

    def test_demand_scaling(self):
        topo = line_topology()
        commodity = Commodity(
            "h0", "h1", [(0, ["h0", "t0", "t1", "h1"])], demand=2.0
        )
        result = max_concurrent_flow([topo], [commodity])
        assert result.alpha == pytest.approx(5 * Gbps, rel=1e-6)
        assert result.total_throughput == pytest.approx(10 * Gbps, rel=1e-6)

    def test_total_objective_can_starve(self):
        # Flow A (short path) and flow B (shares A's bottleneck); total
        # objective may give everything to one of them.
        topo = two_path_topology(cap_a=10 * Gbps, cap_b=5 * Gbps)
        a = Commodity("h0", "h1", [(0, ["h0", "t0", "a", "t1", "h1"])])
        b = Commodity("h0", "h1", [(0, ["h0", "t0", "a", "t1", "h1"])])
        result = max_concurrent_flow([topo], [a, b], objective="total")
        assert result.total_throughput == pytest.approx(10 * Gbps, rel=1e-6)

    def test_multi_plane_paths(self):
        pnet = ParallelTopology.homogeneous(lambda: line_topology(), 2)
        commodity = Commodity(
            "h0",
            "h1",
            [
                (0, ["h0", "t0", "t1", "h1"]),
                (1, ["h0", "t0", "t1", "h1"]),
            ],
        )
        result = max_concurrent_flow(pnet.planes, [commodity])
        assert result.alpha == pytest.approx(20 * Gbps, rel=1e-6)

    def test_path_on_failed_link_rejected(self):
        topo = line_topology()
        topo.fail_link("t0", "t1")
        commodity = Commodity("h0", "h1", [(0, ["h0", "t0", "t1", "h1"])])
        with pytest.raises(ValueError):
            max_concurrent_flow([topo], [commodity])

    def test_validations(self):
        topo = line_topology()
        with pytest.raises(ValueError):
            Commodity("h0", "h1", [])
        with pytest.raises(ValueError):
            Commodity("h0", "h1", [(0, ["h0", "t0"])])  # wrong endpoint
        with pytest.raises(ValueError):
            Commodity("h0", "h1", [(0, ["h0", "t0", "t1", "h1"])], demand=0)
        with pytest.raises(ValueError):
            max_concurrent_flow([topo], [])
        with pytest.raises(ValueError):
            max_concurrent_flow(
                [topo],
                [Commodity("h0", "h1", [(0, ["h0", "t0", "t1", "h1"])])],
                objective="nope",
            )


class TestIdeal:
    def test_matches_path_lp_on_line(self):
        topo = line_topology()
        alpha = ideal_throughput(topo, {("h0", "h1"): 1.0})
        assert alpha == pytest.approx(10 * Gbps, rel=1e-6)

    def test_uses_all_paths(self):
        topo = two_path_topology()
        alpha = ideal_throughput(topo, {("h0", "h1"): 1.0})
        assert alpha == pytest.approx(15 * Gbps, rel=1e-6)

    def test_bidirectional_demands(self):
        topo = line_topology()
        alpha = ideal_throughput(
            topo, {("h0", "h1"): 1.0, ("h1", "h0"): 1.0}
        )
        # Full duplex: both directions get the full 10G.
        assert alpha == pytest.approx(10 * Gbps, rel=1e-6)

    def test_fat_tree_permutation_full_bisection(self):
        topo = build_fat_tree(4)
        hosts = sorted(topo.hosts, key=lambda h: int(h[1:]))
        n = len(hosts)
        demands = {
            (hosts[i], hosts[(i + n // 2) % n]): 1.0 for i in range(n)
        }
        alpha = ideal_throughput(topo, demands)
        # Non-blocking fabric: every host sends at line rate.
        assert alpha == pytest.approx(100 * Gbps, rel=1e-4)

    def test_validations(self):
        topo = line_topology()
        with pytest.raises(ValueError):
            ideal_throughput(topo, {})
        with pytest.raises(ValueError):
            ideal_throughput(topo, {("h0", "h0"): 1.0})
        with pytest.raises(ValueError):
            ideal_throughput(topo, {("h0", "h1"): 0.0})
        with pytest.raises(KeyError):
            ideal_throughput(topo, {("h0", "nope"): 1.0})


class TestMerge:
    def test_merge_shares_hosts_only(self):
        pnet = ParallelTopology.homogeneous(lambda: line_topology(), 2)
        merged = merge_parallel(pnet.planes)
        assert "h0" in merged
        assert "p0:t0" in merged and "p1:t0" in merged
        assert not merged.has_link("p0:t0", "p1:t0")
        # Host has one uplink per plane.
        assert merged.degree("h0") == 2

    def test_merged_throughput_doubles(self):
        pnet = ParallelTopology.homogeneous(lambda: line_topology(), 2)
        merged = merge_parallel(pnet.planes)
        alpha = ideal_throughput(merged, {("h0", "h1"): 1.0})
        assert alpha == pytest.approx(20 * Gbps, rel=1e-6)

    def test_rack_sources(self):
        pnet = ParallelTopology.homogeneous(
            lambda: build_jellyfish(6, 3, 1, seed=0), 2
        )
        merged, racks = merge_parallel_with_rack_sources(pnet.planes)
        assert racks == [f"r{i}" for i in range(6)]
        for rack in racks:
            assert merged.degree(rack) == 2

    def test_rack_links_do_not_bottleneck(self):
        plane = build_jellyfish(6, 3, 1, seed=0)
        merged, racks = merge_parallel_with_rack_sources([plane])
        demands = {
            (a, b): 1.0 for a in racks for b in racks if a != b
        }
        for rack in racks:
            assert merged.link(rack, f"p0:t{rack[1:]}").capacity == math.inf
        alpha = ideal_throughput(merged, demands)
        assert 0 < alpha < math.inf
        # The binding constraint must be a core link, not a rack link:
        # capping the rack links at the whole core's capacity (so that a
        # cap could bind only if the core could not) leaves alpha alone.
        core = sum(link.capacity for link in plane.live_links)
        capped = ideal_throughput(_cap_rack_links(merged, core), demands)
        assert capped == pytest.approx(alpha, rel=1e-9)


def _cap_rack_links(topo, capacity):
    """Copy of ``topo`` whose infinite (rack) links get ``capacity``."""
    out = Topology(topo.name)
    for node in topo.nodes:
        out.add_node(node, topo.kind(node))
    for link in topo.live_links:
        cap = capacity if link.capacity == math.inf else link.capacity
        out.add_link(link.u, link.v, cap, link.propagation)
    return out


def _fig7_instance(n_planes, scale="tiny", homogeneous=False):
    """Figure 7's merged network and rack-level demands at ``scale``."""
    params = fig7.PRESETS[scale]
    family = JellyfishFamily(params["racks"], params["degree"], 1)
    if homogeneous:
        pnet = family.parallel_homogeneous(n_planes, seed=0)
    else:
        pnet = family.parallel_heterogeneous(n_planes, seed=0)
    merged, racks = merge_parallel_with_rack_sources(pnet.planes)
    return merged, {pair: 1.0 for pair in rack_level_all_to_all(racks)}


def _host_level_instance():
    """Two heterogeneous planes merged at their hosts, with a host
    permutation on which free plane crossing would gain 8%."""
    pnet = ParallelTopology.heterogeneous(
        lambda seed: build_jellyfish(8, 3, 2, seed=seed), 2
    )
    merged = merge_parallel(pnet.planes)
    hosts = sorted(merged.hosts, key=lambda h: int(h[1:]))
    pairs = permutation(hosts, random.Random(1))
    return merged, {pair: 1.0 for pair in pairs}


def _expander_instance():
    """Expander families' tiny heterogeneous Xpander P-Net."""
    params = expander_families.PRESETS["tiny"]
    __, families = expander_families._families(params)
    pnet = ParallelTopology.heterogeneous(
        families["xpander"], params["n_planes"]
    )
    merged, racks = merge_parallel_with_rack_sources(pnet.planes)
    return merged, {pair: 1.0 for pair in rack_level_all_to_all(racks)}


def _decompose(flows, source, tol):
    """Split one source's edge flows ``{(u, v): rate}`` into walks.

    Each walk starts at ``source`` and follows edges still carrying more
    than ``tol``; it ends where the flow is absorbed (a path) or where it
    meets itself (a cycle, returned as the closed loop).  The walk's
    bottleneck is subtracted along it, so every round empties an edge.
    """
    rest = {edge: rate for edge, rate in flows.items() if rate > tol}
    walks = []
    while True:
        walk, seen = [source], {source: 0}
        while True:
            hops = [(v, rate) for (u, v), rate in rest.items()
                    if u == walk[-1] and rate > tol]
            if not hops:
                break
            nxt = max(hops, key=lambda hop: hop[1])[0]
            if nxt in seen:
                walk = walk[seen[nxt]:] + [nxt]
                break
            seen[nxt] = len(walk)
            walk.append(nxt)
        if len(walk) == 1:
            return walks
        edges = list(zip(walk, walk[1:]))
        bottleneck = min(rest[edge] for edge in edges)
        for edge in edges:
            rest[edge] -= bottleneck
        walks.append(walk)


def _planes_on(walk):
    """Plane indices of the ``p{i}:`` switches a walk visits."""
    return {node.partition(":")[0] for node in walk if ":" in node}


class TestNoPlaneCrossing:
    """Every unit of flow stays in the plane it entered at its source."""

    @pytest.mark.parametrize(
        "instance",
        [
            pytest.param(lambda: _fig7_instance(2), id="fig7-tiny-N2"),
            pytest.param(lambda: _fig7_instance(4), id="fig7-tiny-N4"),
            pytest.param(_host_level_instance, id="host-level"),
        ],
    )
    def test_no_walk_changes_plane(self, instance):
        topo, demands = instance()
        solution = _solve_edge_flows(topo, demands)
        assert solution.alpha > 0
        tol = 1e-9 * float(solution.flow.max())
        nodes = solution.nodes
        per_source = {}
        for src, u, v, rate in zip(
            solution.source, solution.tail, solution.head, solution.flow
        ):
            per_source.setdefault(nodes[src], {})[(nodes[u], nodes[v])] = rate
        sent = {}
        for (src, __), demand in demands.items():
            sent[src] = sent.get(src, 0.0) + solution.alpha * demand
        for source, flows in per_source.items():
            walks = _decompose(flows, source, tol)
            assert walks
            for walk in walks:
                assert len(_planes_on(walk)) == 1, walk
            out = sum(rate for (u, __), rate in flows.items() if u == source)
            assert out == pytest.approx(sent[source], rel=1e-9)


class TestConditioning:
    def test_homogeneous_exact_at_benchmark_scale(self):
        # 16 racks, degree 6: the scale of the core benchmark's sweep.
        base = ideal_throughput(*_fig7_instance(1, scale="small"))
        homogeneous = ideal_throughput(
            *_fig7_instance(2, scale="small", homogeneous=True)
        )
        assert homogeneous / base == pytest.approx(2.0, rel=1e-9)

    def test_alpha_independent_of_non_binding_rack_capacity(self):
        merged, demands = _fig7_instance(2)
        alpha = ideal_throughput(merged, demands)
        finite = [link.capacity for link in merged.live_links
                  if link.capacity != math.inf]
        for capacity in (1e3 * max(finite), 2 * sum(finite)):
            capped = ideal_throughput(
                _cap_rack_links(merged, capacity), demands
            )
            assert capped == pytest.approx(alpha, rel=1e-9), capacity


def _fig7_tiny_grid():
    params = fig7.PRESETS["tiny"]
    cases = [pytest.param(lambda: _fig7_instance(1), id="fig7-tiny-base")]
    for n_planes in params["planes"][1:]:
        cases.append(pytest.param(
            lambda n=n_planes: _fig7_instance(n), id=f"fig7-tiny-N{n_planes}"
        ))
    cases.append(pytest.param(
        lambda: _fig7_instance(params["planes"][1], homogeneous=True),
        id="fig7-tiny-homogeneous",
    ))
    return cases


class TestSolverAgreement:
    """Dual simplex and interior point agree on a well-scaled LP."""

    @pytest.mark.parametrize(
        "instance",
        _fig7_tiny_grid()
        + [pytest.param(_expander_instance, id="xpander-tiny")],
    )
    def test_dual_simplex_matches_ipm(self, instance, monkeypatch):
        topo, demands = instance()
        ipm = ideal_throughput(topo, demands)
        linprog = repro.lp.ideal.linprog
        methods = []

        def dual_simplex(*args, **kwargs):
            methods.append(kwargs["method"])
            kwargs["method"] = "highs-ds"
            return linprog(*args, **kwargs)

        monkeypatch.setattr(repro.lp.ideal, "linprog", dual_simplex)
        simplex = ideal_throughput(topo, demands)
        assert methods == ["highs-ipm"]
        assert simplex == pytest.approx(ipm, rel=1e-9)
