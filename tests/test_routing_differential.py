"""Differential test: routing on the integer view against the name reference.

:func:`repro.routing.shortest.all_shortest_paths` and
:func:`repro.routing.ksp.k_shortest_paths` run on a topology's
:class:`~repro.topology.graph.RoutingView`: node indices in name order,
banned links turned into banned first hops, leaves never queued, and a
spur search that stops once the target is discovered.  The reference
below is the name-based code they replaced: a full BFS over
``Topology.neighbors`` in sorted order for every spur search and for the
shortest-path DAG.  Both must return identical path lists on seeded
Jellyfish, fat-tree and Xpander planes with up to half the switch links
failed, for host and switch endpoints (disconnected pairs included),
every ``k`` from 1 to 32 and the limits None, 1, 3 and 64 -- also when
links fail, come back or are removed between queries on one topology.
The lists must also pickle to the same bytes, so route sets sent to
workers or saved in checkpoints do not change either.

Both searches run between the endpoints' attachment nodes (a leaf
stands for its one neighbour) and the view memoises them, so one
sequence of queries over every host pair of a plane -- memo hits
included, with names the caller built itself -- must pickle to the
reference's bytes as a whole, and the edge cases of the attachment rule
(hosts on one switch, a host and its switch, a host with two links, an
isolated edge, a host losing its link, fail and restore after warm-up)
must match it too.
"""

from __future__ import annotations

import heapq
import pickle
import random
from collections import deque

import pytest

from repro.obs import Registry, use_registry
from repro.routing.ksp import k_shortest_paths
from repro.routing.shortest import all_shortest_paths
from repro.topology import (
    ParallelTopology, build_fat_tree, build_jellyfish, build_xpander,
)
from repro.topology.graph import link_key

LIMITS = (None, 1, 3, 64)


# --- the name-based reference ------------------------------------------------


def _ref_distances(topo, source):
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for nbr in topo.neighbors(node):
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                frontier.append(nbr)
    return dist


def _ref_all_shortest_paths(topo, src, dst, limit=None):
    if src == dst:
        return [[src]]
    dist_to_dst = _ref_distances(topo, dst)
    if src not in dist_to_dst:
        return []
    paths = []
    stack = [src]

    def walk(node):
        if node == dst:
            paths.append(list(stack))
            return limit is None or len(paths) < limit
        next_hops = sorted(
            nbr
            for nbr in topo.neighbors(node)
            if dist_to_dst.get(nbr, -1) == dist_to_dst[node] - 1
        )
        for nbr in next_hops:
            stack.append(nbr)
            keep_going = walk(nbr)
            stack.pop()
            if not keep_going:
                return False
        return True

    walk(src)
    return paths


def _ref_bfs_path_excluding(topo, src, dst, banned_nodes, banned_links):
    if src in banned_nodes or dst in banned_nodes:
        return None
    parent = {src: None}
    frontier = deque([src])
    while frontier:
        node = frontier.popleft()
        if node == dst:
            break
        for nbr in sorted(topo.neighbors(node)):
            if nbr in banned_nodes or nbr in parent:
                continue
            if link_key(node, nbr) in banned_links:
                continue
            parent[nbr] = node
            frontier.append(nbr)
    if dst not in parent:
        return None
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _ref_k_shortest_paths(topo, src, dst, k):
    if src == dst:
        return [[src]]
    shortest = _ref_all_shortest_paths(topo, src, dst, limit=k)
    if not shortest:
        return []
    if len(shortest) >= k:
        return sorted(shortest[:k], key=lambda p: (len(p), p))
    found = sorted(shortest, key=lambda p: (len(p), p))
    seen = {tuple(p) for p in found}
    candidates = []
    candidate_set = set()
    while len(found) < k:
        last = found[-1]
        for i in range(len(last) - 1):
            spur_node = last[i]
            root = last[: i + 1]
            banned_links = set()
            for path in found:
                if path[: i + 1] == root and len(path) > i + 1:
                    banned_links.add(link_key(path[i], path[i + 1]))
            spur = _ref_bfs_path_excluding(
                topo, spur_node, dst, set(root[:-1]), banned_links
            )
            if spur is None:
                continue
            candidate = root[:-1] + spur
            key = tuple(candidate)
            if key in seen or key in candidate_set:
                continue
            candidate_set.add(key)
            heapq.heappush(candidates, (len(candidate), candidate))
        if not candidates:
            break
        __, best = heapq.heappop(candidates)
        candidate_set.discard(tuple(best))
        found.append(best)
        seen.add(tuple(best))
    return found


# --- fixtures -----------------------------------------------------------------


def _plane(family, seed):
    if family == "jellyfish":
        return build_jellyfish(12, 4, 2, seed=seed)
    if family == "fat-tree":
        return build_fat_tree(4)
    return build_xpander(4, 1, 4, 1, seed=seed)


def _switch_links(topo):
    switches = set(topo.switches)
    return [
        (l.u, l.v) for l in topo.links
        if l.u in switches and l.v in switches
    ]


def _pickled(paths):
    # Pickle shares repeated string objects, so equal bytes also mean the
    # paths hold the same name objects as the reference's.
    return pickle.dumps(paths, protocol=pickle.HIGHEST_PROTOCOL)


def _assert_same(topo, rng, pairs, counts):
    """Every query on ``pairs`` matches the reference on ``topo`` now."""
    for src, dst in pairs:
        k = rng.choice((1, 2, 3, 5, 8, 13, 21, 32))
        ref = _ref_k_shortest_paths(topo, src, dst, k)
        ours = k_shortest_paths(topo, src, dst, k)
        assert ours == ref, (src, dst, k)
        assert _pickled(ours) == _pickled(ref), (src, dst, k)
        for limit in LIMITS:
            ours = all_shortest_paths(topo, src, dst, limit)
            ref_equal = _ref_all_shortest_paths(topo, src, dst, limit)
            assert ours == ref_equal, (src, dst, limit)
            assert _pickled(ours) == _pickled(ref_equal), (src, dst, limit)
        counts["disconnected"] += not ref
        counts["short"] += 0 < len(ref) < k


def _pairs(topo, rng, n):
    nodes = sorted(topo.nodes)
    hosts = sorted(topo.hosts)
    switches = sorted(topo.switches)
    pairs = [tuple(rng.sample(hosts, 2)) for __ in range(n)]
    pairs += [(rng.choice(hosts), rng.choice(switches)) for __ in range(2)]
    pairs += [(rng.choice(switches), rng.choice(hosts)) for __ in range(2)]
    pairs += [tuple(rng.sample(nodes, 2)) for __ in range(2)]
    return pairs


# --- tests ----------------------------------------------------------------------


class TestAgainstReference:
    @pytest.mark.parametrize("family", ["jellyfish", "fat-tree", "xpander"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_failure_sweep(self, family, seed):
        counts = {"disconnected": 0, "short": 0}
        for fraction in (0.0, 0.1, 0.3, 0.5):
            topo = _plane(family, seed)
            rng = random.Random(f"{family}-{seed}-{fraction}")
            topo.fail_random_links(fraction, rng)
            _assert_same(topo, rng, _pairs(topo, rng, 8), counts)
        # k runs past the available paths on some pair of every family.
        assert counts["short"] > 0

    def test_leaf_switches_and_disconnected_pairs(self):
        topo = build_fat_tree(4)
        topo.fail_random_links(0.5, random.Random(0))
        leaves = [
            s for s in sorted(topo.switches)
            if sum(1 for __ in topo.neighbors(s)) == 1
        ]
        assert leaves
        counts = {"disconnected": 0, "short": 0}
        pairs = [
            (a, b)
            for a in sorted(topo.nodes)
            for b in ["h0", "h15"] + leaves[:2]
        ]
        _assert_same(topo, random.Random(0), pairs, counts)
        assert counts["disconnected"] > 0

    def test_every_k(self):
        topo = build_jellyfish(12, 4, 2, seed=5)
        topo.fail_random_links(0.2, random.Random(5))
        for k in range(1, 33):
            for src, dst in (("h0", "h23"), ("h3", "t7"), ("t2", "t9")):
                ours = k_shortest_paths(topo, src, dst, k)
                ref = _ref_k_shortest_paths(topo, src, dst, k)
                assert ours == ref, (src, dst, k)
                assert _pickled(ours) == _pickled(ref), (src, dst, k)

    def test_unknown_endpoints(self):
        topo = build_fat_tree(4)
        assert all_shortest_paths(topo, "nowhere", "h1") == []
        assert k_shortest_paths(topo, "nowhere", "h1", 4) == []
        with pytest.raises(KeyError):
            all_shortest_paths(topo, "h1", "nowhere")
        with pytest.raises(KeyError):
            k_shortest_paths(topo, "h1", "nowhere", 4)


class TestStaleView:
    @pytest.mark.parametrize("family", ["jellyfish", "fat-tree", "xpander"])
    def test_mutations_between_queries(self, family):
        topo = _plane(family, 2)
        rng = random.Random(f"stale-{family}")
        pairs = _pairs(topo, rng, 6)
        counts = {"disconnected": 0, "short": 0}
        links = _switch_links(topo)
        _assert_same(topo, rng, pairs, counts)
        failed = rng.sample(links, len(links) // 3)
        for u, v in failed:
            topo.fail_link(u, v)
        _assert_same(topo, rng, pairs, counts)
        for u, v in failed[::2]:
            topo.restore_link(u, v)
        _assert_same(topo, rng, pairs, counts)
        for u, v in rng.sample(links, 3):
            topo.remove_link(u, v)
        _assert_same(topo, rng, pairs, counts)
        topo.fail_random_links(0.2, rng)
        _assert_same(topo, rng, pairs, counts)
        topo.restore_all()
        _assert_same(topo, rng, pairs, counts)

    def test_growth_between_queries(self):
        topo = build_jellyfish(12, 4, 2, seed=4)
        before = k_shortest_paths(topo, "h0", "h1", 4)
        topo.add_node("h99", "host")
        topo.add_link("h99", "t0", 1e9)
        topo.add_link("h99", "t1", 1e9)
        assert k_shortest_paths(topo, "h0", "h1", 8) == (
            _ref_k_shortest_paths(topo, "h0", "h1", 8)
        )
        assert all_shortest_paths(topo, "h99", "h1") == (
            _ref_all_shortest_paths(topo, "h99", "h1")
        )
        assert before == _ref_k_shortest_paths(
            build_jellyfish(12, 4, 2, seed=4), "h0", "h1", 4
        )


class TestPickleAndCopy:
    def test_pickle_bytes_unchanged_by_queries(self):
        topo = build_jellyfish(12, 4, 2, seed=0)
        topo.fail_link(*_switch_links(topo)[0])
        before = pickle.dumps(topo, protocol=pickle.HIGHEST_PROTOCOL)
        k_shortest_paths(topo, "h0", "h23", 16)
        all_shortest_paths(topo, "h1", "h2")
        assert pickle.dumps(topo, protocol=pickle.HIGHEST_PROTOCOL) == before
        clone = pickle.loads(before)
        assert k_shortest_paths(clone, "h0", "h23", 16) == (
            k_shortest_paths(topo, "h0", "h23", 16)
        )

    def test_copy_does_not_share_the_view(self):
        topo = build_jellyfish(12, 4, 2, seed=1)
        answers = k_shortest_paths(topo, "h0", "h23", 8)
        equal = all_shortest_paths(topo, "h0", "h23")
        dup = topo.copy()
        k_shortest_paths(dup, "h0", "h23", 8)
        path = answers[0]
        dup.fail_link(path[1], path[2])
        assert k_shortest_paths(dup, "h0", "h23", 8) != answers
        assert k_shortest_paths(topo, "h0", "h23", 8) == answers
        assert all_shortest_paths(topo, "h0", "h23") == equal


def _fresh(name):
    """An equal name that is not the topology's object, as a caller that
    formats its own names holds: a spur path must end with this one."""
    return "".join([name[:1], name[1:]])


def _query(topo, src, dst, k, limit):
    """Both searches on ``topo``, each checked against the reference."""
    ours = k_shortest_paths(topo, src, dst, k)
    ref = _ref_k_shortest_paths(topo, src, dst, k)
    assert ours == ref, (src, dst, k)
    assert _pickled(ours) == _pickled(ref), (src, dst, k)
    equal = all_shortest_paths(topo, src, dst, limit)
    ref_equal = _ref_all_shortest_paths(topo, src, dst, limit)
    assert equal == ref_equal, (src, dst, limit)
    assert _pickled(equal) == _pickled(ref_equal), (src, dst, limit)
    return (ours, equal), (ref, ref_equal)


class TestAttachmentMemo:
    @pytest.mark.parametrize("family", ["jellyfish", "fat-tree", "xpander"])
    def test_every_host_pair_in_one_sequence(self, family):
        topo = _plane(family, 3)
        hosts = sorted(topo.hosts)
        pairs = [(a, b) for a in hosts for b in hosts if a != b]
        ours, ref = [], []
        # Hosts on one rack pair are adjacent in this order, so the memo
        # answers repeats under changing k and limits; the second pass
        # asks every question again.
        for repeat in range(2):
            for i, (src, dst) in enumerate(pairs):
                if i % 2:
                    src, dst = _fresh(src), _fresh(dst)
                answer, want = _query(
                    topo, src, dst, (1, 3, 8, 20)[i % 4], LIMITS[i % 4]
                )
                ours.append(answer)
                ref.append(want)
            if not repeat:
                view = topo.routing_view()
                searched = dict(view.memo)
        assert _pickled(ours) == _pickled(ref)
        assert topo.routing_view() is view
        assert view.memo == searched

    def test_hosts_on_one_switch(self):
        topo = build_jellyfish(12, 4, 2, seed=0)
        assert topo.tor_of("h0") == topo.tor_of("h1") == "t0"
        for k in (1, 2, 8):
            (paths, equal), __ = _query(topo, "h0", _fresh("h1"), k, None)
            assert paths == equal == [["h0", "t0", "h1"]]
        assert not topo.routing_view().memo

    def test_host_and_its_own_switch(self):
        topo = build_jellyfish(12, 4, 2, seed=0)
        for src, dst in (("h0", "t0"), ("t0", "h0"), ("h0", "t1")):
            for k in (1, 4, 16):
                _query(topo, src, _fresh(dst), k, 3)
        (paths, __), __ = _query(topo, "h0", "t0", 4, None)
        assert paths == [["h0", "t0"]]

    def test_host_with_two_links_takes_no_shortcut(self):
        topo = build_jellyfish(12, 4, 2, seed=0)
        topo.add_link("h0", "t5", 1e9)
        view = topo.routing_view()
        assert view.attachment(view.index["h0"], view.index["h7"]) == (
            view.index["h0"]
        )
        for dst in ("h1", "h7", "h11", "t0", "t5"):
            for k in (2, 8, 24):
                _query(topo, "h0", dst, k, None)
                _query(topo, dst, "h0", k, 1)

    def test_isolated_two_node_edge(self):
        topo = build_jellyfish(12, 4, 2, seed=0)
        topo.add_node("x0", "tor")
        topo.add_node("x1", "host")
        topo.add_link("x0", "x1", 1e9)
        for src, dst in (("x0", "x1"), ("x1", "x0")):
            (paths, equal), __ = _query(topo, src, dst, 4, None)
            assert paths == equal == [[src, dst]]
        for src, dst in (("x1", "h3"), ("h3", "x1"), ("x0", "t2")):
            (paths, equal), __ = _query(topo, src, dst, 4, None)
            assert paths == equal == []

    def test_host_losing_its_only_link(self):
        topo = build_jellyfish(12, 4, 2, seed=1)
        pairs = [("h0", "h9"), ("h9", "h0"), ("h1", "h9"), ("h0", "t0")]
        for src, dst in pairs:
            _query(topo, src, dst, 8, 3)
        topo.fail_link("h0", "t0")
        for src, dst in pairs:
            (paths, equal), __ = _query(topo, src, dst, 8, 3)
            assert bool(paths) == bool(equal) == (src == "h1")
        topo.restore_link("h0", "t0")
        for src, dst in pairs:
            _query(topo, src, dst, 8, 3)

    @pytest.mark.parametrize("family", ["jellyfish", "fat-tree", "xpander"])
    def test_fail_and_restore_on_a_warmed_memo(self, family):
        topo = _plane(family, 4)
        hosts = sorted(topo.hosts)
        pairs = [(a, b) for a in hosts[:6] for b in hosts[-6:] if a != b]
        warm = [_query(topo, a, b, 6, None)[0] for a, b in pairs]
        links = _switch_links(topo)
        failed = random.Random(family).sample(links, len(links) // 4)
        for u, v in failed:
            topo.fail_link(u, v)
        for a, b in pairs:
            _query(topo, a, b, 6, None)
        topo.restore_all()
        again = [_query(topo, a, b, 6, None)[0] for a, b in pairs]
        assert _pickled(again) == _pickled(warm)


class TestSearchCount:
    def test_one_search_per_plane_and_switch_pair(self):
        planes = ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(12, 4, 2, seed=s), 2
        ).planes
        hosts = sorted(planes[0].hosts)[:10]
        pairs = [
            (plane, src, dst)
            for plane in range(len(planes))
            for src in hosts
            for dst in hosts
            if planes[plane].tor_of(src) != planes[plane].tor_of(dst)
        ]
        rack_pairs = {
            (plane, planes[plane].tor_of(src), planes[plane].tor_of(dst))
            for plane, src, dst in pairs
        }
        obs = Registry(enabled=True)
        with use_registry(obs):
            for plane, src, dst in pairs:
                k_shortest_paths(planes[plane], src, dst, 8)
            for plane, src, dst in pairs:
                k_shortest_paths(planes[plane], src, dst, 8)
        assert obs.value("ksp.enumerations") == 2 * len(pairs)
        assert obs.value("ksp.searches") == len(rack_pairs)
        assert len(rack_pairs) < len(pairs)
