"""Final coverage batch: KSP cache semantics, chassis edges, RPC details."""

import pytest

from repro.core.path_selection import KspMultipathPolicy
from repro.core.pnet import PNet
from repro.exp.common import JellyfishFamily
from repro.routing.ksp import k_shortest_paths
from repro.routing.shortest import all_shortest_paths
from repro.sim.network import PacketNetwork
from repro.sim.rpc import RpcClient
from repro.topology import build_fat_tree, build_jellyfish
from repro.topology.chassis import (
    agg_chassis_spec,
    build_chassis_fat_tree,
    spine_chassis_spec,
)
from repro.units import MTU


class TestKspCacheSemantics:
    """The k-slicing cache must return exactly what a fresh Yen would."""

    @pytest.fixture(scope="class")
    def pnet(self):
        return PNet.serial(build_jellyfish(10, 4, 2, seed=2))

    def test_large_then_small_matches_fresh(self, pnet):
        big = pnet.ksp(0, "h0", "h15", 8)
        small_cached = pnet.ksp(0, "h0", "h15", 3)
        fresh = k_shortest_paths(pnet.plane(0), "h0", "h15", 3)
        assert small_cached == fresh == big[:3]

    def test_small_then_large_recomputes(self, pnet):
        first = pnet.ksp(0, "h1", "h14", 2)
        larger = pnet.ksp(0, "h1", "h14", 6)
        assert larger[:2] == first
        assert len(larger) >= len(first)

    def test_exhausted_result_serves_any_k(self):
        # Tiny graph: fewer simple paths than requested.
        pnet = PNet.serial(build_jellyfish(4, 2, 1, seed=0))
        few = pnet.ksp(0, "h0", "h3", 3)
        more = pnet.ksp(0, "h0", "h3", 50)
        assert more[: len(few)] == few

    def test_invalidate_clears_ksp_cache(self, pnet):
        before = pnet.ksp(0, "h0", "h15", 4)
        link = before[0][1:3]
        pnet.plane(0).fail_link(link[0], link[1])
        pnet.invalidate_routing()
        after = pnet.ksp(0, "h0", "h15", 4)
        pnet.plane(0).restore_link(link[0], link[1])
        pnet.invalidate_routing()
        for path in after:
            assert (link[0], link[1]) not in list(zip(path, path[1:]))
            assert (link[1], link[0]) not in list(zip(path, path[1:]))


class TestShortestPathsCacheSemantics:
    """The equal-cost cache must answer every limit like a fresh search."""

    # Six, eight and seven equal-cost paths in plane 0, then single ones.
    PAIRS = [
        ("h0", "h12"), ("h5", "h16"), ("h5", "h92"), ("h3", "h40"),
        ("h7", "h77"),
    ]
    LIMITS = (1, 2, 3, 64, None)

    @pytest.fixture
    def pnet(self):
        # The packet-permutation benchmark's fabric.
        return JellyfishFamily(32, 6, 4).parallel_heterogeneous(4, seed=0)

    def test_small_then_large_limit(self, pnet):
        assert len(pnet.shortest_paths(0, "h0", "h12", limit=2)) == 2
        fresh = all_shortest_paths(pnet.plane(0), "h0", "h12", limit=64)
        assert len(fresh) == 6
        assert pnet.shortest_paths(0, "h0", "h12", limit=64) == fresh

    def test_any_order_matches_fresh(self, pnet):
        for limits in (self.LIMITS, self.LIMITS[::-1]):
            pnet.invalidate_routing()
            for limit in limits:
                for src, dst in self.PAIRS:
                    assert pnet.shortest_paths(0, src, dst, limit=limit) == (
                        all_shortest_paths(pnet.plane(0), src, dst, limit)
                    )

    def test_policy_pools_do_not_interfere(self, pnet):
        fresh = JellyfishFamily(32, 6, 4).parallel_heterogeneous(4, seed=0)
        small = KspMultipathPolicy(pnet, k=8, path_pool=2)
        large = KspMultipathPolicy(pnet, k=8, path_pool=64)
        alone = KspMultipathPolicy(fresh, k=8, path_pool=64)
        for src, dst in self.PAIRS:
            small.select(src, dst)
            assert large.select(src, dst) == alone.select(src, dst)

    def test_repair_and_invalidate_stay_exact(self, pnet):
        plane = pnet.plane(0)
        for i, (src, dst) in enumerate(self.PAIRS):
            pnet.shortest_paths(0, src, dst, limit=(2, None)[i % 2])
        # Kill a middle link of one cached path per pair.
        dead = []
        for src, dst in self.PAIRS:
            path = pnet.shortest_paths(0, src, dst, limit=1)[0]
            dead.append((path[2], path[3]))
        for u, v in dead:
            plane.fail_link(u, v)
        stats = pnet.repair_after_failure(0, dead)
        # Limited and complete entries both lose some paths and keep some.
        assert stats.repaired >= 2 and stats.reenumerated > 0
        for limit in self.LIMITS:
            for src, dst in self.PAIRS:
                assert pnet.shortest_paths(0, src, dst, limit=limit) == (
                    all_shortest_paths(plane, src, dst, limit)
                )
        for u, v in dead:
            plane.restore_link(u, v)
        pnet.invalidate_plane(0)
        for limit in self.LIMITS:
            for src, dst in self.PAIRS:
                assert pnet.shortest_paths(0, src, dst, limit=limit) == (
                    all_shortest_paths(plane, src, dst, limit)
                )


class TestChassisEdges:
    def test_spec_scaling_with_radix(self):
        for k in (4, 8, 16, 32):
            spine = spine_chassis_spec(k)
            agg = agg_chassis_spec(k)
            assert spine.external_ports == k * k // 2
            assert spine.chips == k + k // 2
            assert agg.chips == k
            assert spine.internal_hops == 3 and agg.internal_hops == 2

    def test_invalid_radix(self):
        with pytest.raises(ValueError):
            spine_chassis_spec(3)
        with pytest.raises(ValueError):
            agg_chassis_spec(2)

    def test_logical_network_host_count(self):
        # chip radix 4 -> 8-port chassis -> 8^2/2 = 32 hosts.
        topo = build_chassis_fat_tree(4)
        assert len(topo.hosts) == 32
        assert topo.is_connected()


class TestRpcDetails:
    def make_net(self):
        topo = build_fat_tree(4)
        return PNet.serial(topo), PacketNetwork([topo])

    def select_for(self, pnet):
        def select(src, dst, flow_id):
            options = pnet.shortest_paths(0, src, dst)
            return [(0, options[flow_id % len(options)])]

        return select

    def test_request_and_response_sizes_differ(self):
        pnet, net = self.make_net()
        client = RpcClient(
            net, self.select_for(pnet), "h0", ["h15"],
            request_bytes=10 * MTU, response_bytes=MTU,
        )
        client.start()
        net.run()
        tags = {r.tag: r.size for r in net.records}
        assert tags["rpc-request"] == 10 * MTU
        assert tags["rpc-response"] == MTU

    def test_flow_id_base_changes_paths(self):
        """Different chains hash to different ECMP paths."""
        pnet, net = self.make_net()
        seen = set()

        def select(src, dst, flow_id):
            options = pnet.shortest_paths(0, src, dst)
            choice = options[flow_id % len(options)]
            seen.add(tuple(choice))
            return [(0, choice)]

        for base in (0, 1, 2, 3):
            RpcClient(
                net, select, "h0", ["h15"], MTU, MTU, flow_id_base=base
            ).start()
        net.run()
        assert len(seen) >= 2

    def test_delayed_start(self):
        pnet, net = self.make_net()
        client = RpcClient(
            net, self.select_for(pnet), "h0", ["h15"], MTU, MTU
        )
        client.start(at=1e-3)
        net.run()
        assert net.records[0].start >= 1e-3
