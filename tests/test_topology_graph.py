"""Unit tests for the Topology container."""

import random

import pytest

from repro.topology.graph import AGG, HOST, TOR, Link, Topology, link_key


@pytest.fixture
def tiny():
    """h0 - t0 - t1 - h1 line with a t0-t2-t1 detour."""
    topo = Topology("tiny")
    for h in ("h0", "h1"):
        topo.add_node(h, HOST)
    for t in ("t0", "t1", "t2"):
        topo.add_node(t, TOR)
    topo.add_link("h0", "t0", 1e9)
    topo.add_link("h1", "t1", 1e9)
    topo.add_link("t0", "t1", 1e9)
    topo.add_link("t0", "t2", 1e9)
    topo.add_link("t2", "t1", 1e9)
    return topo


def test_link_key_canonical():
    assert link_key("b", "a") == ("a", "b")
    assert link_key("a", "b") == ("a", "b")


def test_link_other_endpoint():
    link = Link("a", "b", 1.0, 1e-6)
    assert link.other("a") == "b"
    assert link.other("b") == "a"
    with pytest.raises(ValueError):
        link.other("c")


def test_add_node_idempotent_same_kind(tiny):
    tiny.add_node("h0", HOST)  # no-op
    with pytest.raises(ValueError):
        tiny.add_node("h0", TOR)


def test_add_link_validations(tiny):
    with pytest.raises(ValueError):
        tiny.add_link("t0", "t0", 1e9)  # self loop
    with pytest.raises(KeyError):
        tiny.add_link("t0", "nope", 1e9)
    with pytest.raises(ValueError):
        tiny.add_link("t1", "t0", 1e9)  # duplicate (reversed)
    with pytest.raises(ValueError):
        tiny.add_node("x", AGG) or tiny.add_link("x", "t0", 0.0)


def test_kinds_and_listings(tiny):
    assert sorted(tiny.hosts) == ["h0", "h1"]
    assert sorted(tiny.switches) == ["t0", "t1", "t2"]
    assert tiny.kind("h0") == HOST
    assert len(tiny) == 5


def test_neighbors_and_degree(tiny):
    assert sorted(tiny.neighbors("t0")) == ["h0", "t1", "t2"]
    assert tiny.degree("t0") == 3


def test_tor_of(tiny):
    assert tiny.tor_of("h0") == "t0"
    with pytest.raises(ValueError):
        tiny.tor_of("t0")


def test_fail_and_restore(tiny):
    tiny.fail_link("t0", "t1")
    assert tiny.is_failed("t1", "t0")
    assert sorted(tiny.neighbors("t0")) == ["h0", "t2"]
    assert len(tiny.live_links) == len(tiny.links) - 1
    tiny.restore_link("t0", "t1")
    assert not tiny.is_failed("t0", "t1")
    assert tiny.degree("t0") == 3


def test_remove_link(tiny):
    tiny.fail_link("t0", "t1")
    link = tiny.remove_link("t1", "t0")
    assert (link.u, link.v) == ("t0", "t1")
    assert not tiny.has_link("t0", "t1")
    assert not tiny.failed_links
    assert sorted(tiny.neighbors("t0")) == ["h0", "t2"]
    assert len(tiny.links) == 4
    with pytest.raises(KeyError):
        tiny.remove_link("t0", "t1")


def test_fail_unknown_link_raises(tiny):
    with pytest.raises(KeyError):
        tiny.fail_link("h0", "h1")


def test_fail_random_links_switch_only(tiny):
    rng = random.Random(7)
    failed = tiny.fail_random_links(1.0, rng, switch_only=True)
    # Only the three switch-switch links are eligible.
    assert len(failed) == 3
    for u, v in failed:
        assert tiny.kind(u) != HOST and tiny.kind(v) != HOST


def test_fail_random_links_fraction_bounds(tiny):
    with pytest.raises(ValueError):
        tiny.fail_random_links(1.5, random.Random(0))


def test_connectivity(tiny):
    assert tiny.is_connected()
    tiny.fail_link("t0", "t1")
    assert tiny.is_connected()  # detour via t2 survives
    tiny.fail_link("t0", "t2")
    assert not tiny.is_connected()
    assert tiny.is_connected(among=["h1", "t1", "t2"])


def test_copy_is_independent(tiny):
    dup = tiny.copy("dup")
    dup.fail_link("t0", "t1")
    assert not tiny.is_failed("t0", "t1")
    assert dup.name == "dup"
    assert len(dup.links) == len(tiny.links)


def test_to_networkx(tiny):
    tiny.fail_link("t0", "t1")
    g_live = tiny.to_networkx(live_only=True)
    g_all = tiny.to_networkx(live_only=False)
    assert g_all.number_of_edges() == len(tiny.links)
    assert g_live.number_of_edges() == len(tiny.links) - 1
    assert g_all.nodes["h0"]["kind"] == HOST
    assert g_all.edges["h0", "t0"]["capacity"] == 1e9
