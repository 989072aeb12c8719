"""Tests for incremental Jellyfish/P-Net expansion (paper section 6.1)."""

import random

import pytest

from repro.core.pnet import PNet
from repro.routing.ksp import k_shortest_paths
from repro.routing.shortest import (
    all_shortest_paths,
    average_shortest_switch_hops,
)
from repro.topology import ParallelTopology, build_jellyfish
from repro.topology.expansion import expand_jellyfish, expand_pnet
from repro.topology.graph import HOST, TOR, link_key


def degree_profile(topo):
    return {
        sw: sum(1 for n in topo.neighbors(sw) if topo.kind(n) != HOST)
        for sw in topo.nodes_of_kind(TOR)
    }


class TestExpandJellyfish:
    def test_adds_switch_preserving_regularity(self):
        topo = build_jellyfish(12, 4, 2, seed=0)
        new = expand_jellyfish(topo, random.Random(1))
        assert new == "t12"
        degrees = degree_profile(topo)
        assert set(degrees.values()) == {4}
        assert topo.is_connected()

    def test_hosts_added_contiguously(self):
        topo = build_jellyfish(12, 4, 2, seed=0)
        before = len(topo.hosts)
        expand_jellyfish(topo, random.Random(1))
        hosts = sorted(topo.hosts, key=lambda h: int(h[1:]))
        assert len(hosts) == before + 2
        assert hosts[-1] == f"h{before + 1}"
        assert topo.tor_of(hosts[-1]) == "t12"

    def test_link_count_bookkeeping(self):
        topo = build_jellyfish(12, 4, 2, seed=0)
        switch_links_before = sum(
            1
            for l in topo.links
            if topo.kind(l.u) != HOST and topo.kind(l.v) != HOST
        )
        expand_jellyfish(topo, random.Random(1))
        switch_links_after = sum(
            1
            for l in topo.links
            if topo.kind(l.u) != HOST and topo.kind(l.v) != HOST
        )
        # r/2 links removed, r added: net +r/2.
        assert switch_links_after == switch_links_before + 2

    def test_repeated_expansion_keeps_short_paths(self):
        topo = build_jellyfish(12, 4, 2, seed=0)
        base = average_shortest_switch_hops(topo)
        rng = random.Random(5)
        for __ in range(4):
            expand_jellyfish(topo, rng)
        grown = average_shortest_switch_hops(topo)
        assert topo.is_connected()
        # Expander expansion keeps path lengths near the original.
        assert grown < base * 1.3

    def test_odd_degree_rejected(self):
        topo = build_jellyfish(12, 5, 2, seed=0)
        with pytest.raises(ValueError):
            expand_jellyfish(topo, random.Random(0))

    def test_custom_host_count(self):
        topo = build_jellyfish(12, 4, 2, seed=0)
        before = len(topo.hosts)
        expand_jellyfish(topo, random.Random(1), hosts_per_switch=5)
        assert len(topo.hosts) == before + 5


class TestExpandPnet:
    def test_all_planes_grow_together(self):
        pnet = ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(12, 4, 2, seed=s), 3
        )
        hosts_before = set(pnet.hosts)
        added = expand_pnet(pnet, seed=7)
        assert added == ["t12", "t12", "t12"]
        for plane in pnet.planes:
            assert set(plane.hosts) > hosts_before
            assert plane.is_connected()

    def test_heterogeneity_preserved(self):
        pnet = ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(12, 4, 2, seed=s), 2
        )
        expand_pnet(pnet, seed=7)
        edges = [
            {l.key for l in plane.links} for plane in pnet.planes
        ]
        assert edges[0] != edges[1]

    def test_expanded_pnet_still_routes(self):
        pnet = ParallelTopology.homogeneous(
            lambda: build_jellyfish(12, 4, 2, seed=0), 2
        )
        expand_pnet(pnet, seed=3)
        net = PNet(pnet)
        new_host = sorted(net.hosts, key=lambda h: int(h[1:]))[-1]
        lengths = net.plane_lengths("h0", new_host)
        assert all(l is not None for l in lengths)

    def test_routing_never_uses_a_removed_link(self):
        pnet = ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(12, 4, 2, seed=s), 3
        )
        pairs = [("h0", "h23"), ("h4", "h17"), ("h9", "t3"), ("t1", "t10")]
        # Queries before the expansion build every plane's routing view.
        for plane in pnet.planes:
            for src, dst in pairs:
                k_shortest_paths(plane, src, dst, 8)
                all_shortest_paths(plane, src, dst)
        before = [{l.key for l in plane.links} for plane in pnet.planes]
        expand_pnet(pnet, seed=7)
        pairs += [("h0", "h24"), ("h25", "h11"), ("t12", "h3")]
        for plane, old in zip(pnet.planes, before):
            removed = old - {l.key for l in plane.links}
            assert len(removed) == 2
            fresh = plane.copy()
            for src, dst in pairs:
                for k in (1, 4, 16):
                    paths = k_shortest_paths(plane, src, dst, k)
                    assert paths == k_shortest_paths(fresh, src, dst, k)
                    for path in paths:
                        assert not removed & {
                            link_key(u, v) for u, v in zip(path, path[1:])
                        }
                equal = all_shortest_paths(plane, src, dst)
                assert equal == all_shortest_paths(fresh, src, dst)
                for path in equal:
                    assert not removed & {
                        link_key(u, v) for u, v in zip(path, path[1:])
                    }

