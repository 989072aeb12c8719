"""Tests for shortest-path, KSP, ECMP, and forwarding-table routing."""

import pytest

from repro.core import EcmpPolicy, PNet
from repro.routing.ecmp import flow_hash
from repro.routing.ksp import k_shortest_paths, k_shortest_paths_pooled
from repro.routing.shortest import (
    all_shortest_paths,
    average_shortest_switch_hops,
    bfs_distances,
    shortest_path,
    shortest_path_length,
    switch_hops,
)
from repro.routing.tables import ForwardingTable
from repro.topology import ParallelTopology, build_fat_tree, build_jellyfish
from repro.topology.graph import HOST, TOR, Topology


@pytest.fixture(scope="module")
def ft4():
    return build_fat_tree(4)


@pytest.fixture
def diamond():
    """h0-t0, t0-{a,b}-t1 (equal cost), plus a longer t0-c-d-t1 detour."""
    topo = Topology("diamond")
    topo.add_node("h0", HOST)
    topo.add_node("h1", HOST)
    for t in ("t0", "t1", "a", "b", "c", "d"):
        topo.add_node(t, TOR)
    topo.add_link("h0", "t0", 1e9)
    topo.add_link("h1", "t1", 1e9)
    topo.add_link("t0", "a", 1e9)
    topo.add_link("a", "t1", 1e9)
    topo.add_link("t0", "b", 1e9)
    topo.add_link("b", "t1", 1e9)
    topo.add_link("t0", "c", 1e9)
    topo.add_link("c", "d", 1e9)
    topo.add_link("d", "t1", 1e9)
    return topo


class TestShortest:
    def test_bfs_distances(self, diamond):
        dist = bfs_distances(diamond, "t0")
        assert dist["t0"] == 0
        assert dist["a"] == 1
        assert dist["t1"] == 2
        assert dist["h1"] == 3

    def test_bfs_cutoff(self, diamond):
        dist = bfs_distances(diamond, "t0", cutoff=1)
        assert "t1" not in dist

    def test_shortest_path_length(self, diamond):
        assert shortest_path_length(diamond, "h0", "h1") == 4
        assert shortest_path_length(diamond, "h0", "h0") == 0

    def test_disconnected_returns_none(self, diamond):
        for nbr in ("a", "b", "c"):
            diamond.fail_link("t0", nbr)
        assert shortest_path_length(diamond, "h0", "h1") is None
        assert shortest_path(diamond, "h0", "h1") is None
        assert all_shortest_paths(diamond, "h0", "h1") == []

    def test_all_shortest_paths_enumeration(self, diamond):
        paths = all_shortest_paths(diamond, "h0", "h1")
        assert len(paths) == 2
        assert all(len(p) == 5 for p in paths)
        mids = {p[2] for p in paths}
        assert mids == {"a", "b"}

    def test_all_shortest_paths_limit(self, diamond):
        assert len(all_shortest_paths(diamond, "h0", "h1", limit=1)) == 1

    def test_deterministic_order(self, diamond):
        a = all_shortest_paths(diamond, "h0", "h1")
        b = all_shortest_paths(diamond, "h0", "h1")
        assert a == b

    def test_fat_tree_path_counts(self, ft4):
        # Cross-pod pairs in a k=4 fat tree have (k/2)^2 = 4 shortest paths.
        paths = all_shortest_paths(ft4, "h0", "h15")
        assert len(paths) == 4
        # Same-pod, cross-ToR pairs have k/2 = 2 paths.
        assert len(all_shortest_paths(ft4, "h0", "h2")) == 2

    def test_switch_hops(self, ft4):
        path = shortest_path(ft4, "h0", "h15")
        assert switch_hops(ft4, path) == 5  # tor-agg-core-agg-tor

    def test_average_switch_hops_same_tor(self):
        topo = Topology("single")
        topo.add_node("t0", TOR)
        for i in range(3):
            topo.add_node(f"h{i}", HOST)
            topo.add_link(f"h{i}", "t0", 1e9)
        assert average_shortest_switch_hops(topo) == pytest.approx(1.0)


class TestKsp:
    def test_k1_is_shortest(self, diamond):
        paths = k_shortest_paths(diamond, "h0", "h1", 1)
        assert len(paths) == 1
        assert len(paths[0]) == 5

    def test_finds_longer_paths_beyond_equal_cost(self, diamond):
        paths = k_shortest_paths(diamond, "h0", "h1", 3)
        assert len(paths) == 3
        assert [len(p) for p in paths] == [5, 5, 6]
        assert paths[2][2:4] == ["c", "d"]

    def test_loopless(self, diamond):
        for path in k_shortest_paths(diamond, "h0", "h1", 3):
            assert len(set(path)) == len(path)

    def test_exhausts_gracefully(self, diamond):
        # Only 3 simple h0->h1 paths exist.
        assert len(k_shortest_paths(diamond, "h0", "h1", 10)) == 3

    def test_sorted_by_length(self, ft4):
        paths = k_shortest_paths(ft4, "h0", "h15", 8)
        lengths = [len(p) for p in paths]
        assert lengths == sorted(lengths)
        assert len(paths) == 8
        assert lengths[:4] == [7, 7, 7, 7]

    def test_src_equals_dst(self, diamond):
        assert k_shortest_paths(diamond, "h0", "h0", 3) == [["h0"]]

    def test_invalid_k(self, diamond):
        with pytest.raises(ValueError):
            k_shortest_paths(diamond, "h0", "h1", 0)

    def test_jellyfish_path_diversity(self):
        topo = build_jellyfish(16, 4, 2, seed=0)
        paths = k_shortest_paths(topo, "h0", "h31", 8)
        assert len(paths) == 8
        # Paths must be distinct.
        assert len({tuple(p) for p in paths}) == 8


class TestKspPooled:
    def test_spreads_over_planes(self):
        pnet = ParallelTopology.homogeneous(lambda: build_fat_tree(4), 2)
        pooled = k_shortest_paths_pooled(pnet.planes, "h0", "h15", 8)
        assert len(pooled) == 8
        planes_used = {idx for idx, __ in pooled}
        assert planes_used == {0, 1}

    def test_prefers_shorter_plane(self):
        # Build two planes where plane 1 has a direct ToR link.
        def plane_with_shortcut(seed):
            topo = build_jellyfish(8, 3, 2, seed=seed)
            return topo

        pnet = ParallelTopology.heterogeneous(plane_with_shortcut, 2)
        pooled = k_shortest_paths_pooled(pnet.planes, "h0", "h15", 4)
        lengths = [len(p) for __, p in pooled]
        assert lengths == sorted(lengths)


class TestEcmp:
    def test_flow_hash_stable_and_spread(self):
        a = flow_hash("h0", "h1", 0)
        assert a == flow_hash("h0", "h1", 0)
        values = {flow_hash("h0", "h1", i) % 4 for i in range(64)}
        assert values == {0, 1, 2, 3}

    def test_selector_pins_flow(self, ft4):
        policy = EcmpPolicy(PNet.serial(ft4))
        [(plane, path)] = policy.select("h0", "h15", 3)
        [(plane2, path2)] = policy.select("h0", "h15", 3)
        assert plane == plane2 == 0
        assert path == path2
        assert path in all_shortest_paths(ft4, "h0", "h15")

    def test_selector_uses_all_planes(self):
        pnet = ParallelTopology.homogeneous(lambda: build_fat_tree(4), 4)
        policy = EcmpPolicy(PNet(pnet))
        planes = {policy.select("h0", "h15", i)[0][0] for i in range(64)}
        assert planes == {0, 1, 2, 3}


class TestForwardingTable:
    def test_walk_reaches_destination(self, ft4):
        table = ForwardingTable(ft4, destinations=["h15"])
        path = table.walk("h0", "h15", flow_id=1)
        assert path is not None
        assert path[0] == "h0" and path[-1] == "h15"
        assert len(path) == 7  # shortest: 6 links

    def test_walk_matches_shortest_length(self, ft4):
        table = ForwardingTable(ft4, destinations=["h2"])
        path = table.walk("h0", "h2")
        assert len(path) - 1 == shortest_path_length(ft4, "h0", "h2")

    def test_missing_destination_raises(self, ft4):
        table = ForwardingTable(ft4, destinations=["h15"])
        with pytest.raises(KeyError):
            table.next_hops("h0", "h3")

    def test_reinstall_after_failure(self, ft4):
        topo = ft4.copy()
        table = ForwardingTable(topo, destinations=["h15"])
        # Fail every uplink of h0's ToR except via a0_1.
        topo.fail_link("t0_0", "a0_0")
        table.reinstall_all()
        path = table.walk("h0", "h15")
        assert path is not None
        assert "a0_0" not in path

    def test_dead_end_returns_none(self):
        topo = build_fat_tree(4)
        table = ForwardingTable(topo, destinations=["h15"])
        for link in list(topo.neighbor_links("t0_0")):
            if topo.kind(link.other("t0_0")) != HOST:
                topo.fail_link(link.u, link.v)
        table.reinstall_all()
        assert table.walk("h0", "h15") is None
