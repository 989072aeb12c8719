"""The members every engine answers for itself.

The facade, the control loop, fault injection and ``run_checkpointed``
never ask which engine they hold: they call the same few members on the
packet, fluid and hybrid engines (DESIGN.md §3).  These tests pin that
protocol on a tiny two-plane fabric, and an AST check keeps engine-type
``isinstance`` tests out of ``src/repro``.
"""

import ast
import math
import pickle
from pathlib import Path

import pytest

from repro import (
    FaultInjector,
    FaultSchedule,
    FlowSpec,
    build_network,
    run_trial,
)
from repro.core.path_selection import KspMultipathPolicy
from repro.core.pnet import PNet
from repro.topology import ParallelTopology, build_jellyfish

KINDS = ["packet", "fluid", "hybrid"]

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ENGINE_CLASSES = {"PacketNetwork", "FluidSimulator", "HybridSimulator"}


def make_pnet():
    return PNet(
        ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(8, 4, 1, seed=s), 2
        )
    )


def flows(pnet, kind, n=6, size=200_000):
    """Two-path flows; on the hybrid engine every other one is packet."""
    policy = KspMultipathPolicy(pnet, k=2, seed=0)
    hosts = pnet.hosts
    specs = []
    for i in range(n):
        src, dst = hosts[i], hosts[i + 1]
        fidelity = None
        if kind == "hybrid":
            fidelity = "packet" if i % 2 == 0 else "fluid"
        specs.append(FlowSpec(
            src=src, dst=dst, size=size, paths=policy.select(src, dst, i),
            fidelity=fidelity,
        ))
    return specs


def build(kind):
    pnet = make_pnet()
    net = build_network(pnet, kind=kind)
    for spec in flows(pnet, kind):
        net.add_flow(spec=spec)
    return pnet, net


def probe_at(net, t, fn):
    """Run ``fn()`` at simulated time ``t`` and the network to the end;
    returns what ``fn`` returned."""
    seen = []
    net.schedule(t, lambda: seen.append(fn()))
    net.run()
    assert len(seen) == 1
    return seen[0]


@pytest.mark.parametrize("kind", KINDS)
def test_kind(kind):
    __, net = build(kind)
    assert net.kind == type(net).kind == kind


@pytest.mark.parametrize("kind", KINDS)
def test_run_until_inf_is_run(kind):
    __, plain = build(kind)
    __, horizon = build(kind)
    plain.run()
    horizon.run(until=math.inf)
    assert len(plain.records) == 6
    assert pickle.dumps(horizon.records) == pickle.dumps(plain.records)
    assert horizon.now == plain.now


@pytest.mark.parametrize("kind", KINDS)
def test_control_rows_shape(kind):
    __, net = build(kind)
    plane_cum, rows = probe_at(net, 20e-6, net.control_rows)
    if kind == "fluid":
        assert plane_cum is None
    else:
        assert sorted(plane_cum) == [0, 1]
        assert all(isinstance(v, float) for v in plane_cum.values())
    assert rows
    for row in rows:
        assert {"gid", "src", "dst", "size", "paths", "transport",
                "tag"} <= set(row)
        engine = row["gid"][0] if kind == "hybrid" else kind
        counter = "acked" if engine == "packet" else "rate"
        assert len(row[counter]) == len(row["paths"])
    if kind == "hybrid":
        assert {row["gid"][0] for row in rows} == {"packet", "fluid"}


@pytest.mark.parametrize("kind", KINDS)
def test_control_rows_map_ids(kind):
    __, net = build(kind)
    __, rows = probe_at(
        net, 20e-6, lambda: net.control_rows(gid_of=lambda gid: ("g", gid))
    )
    assert all(row["gid"][0] == "g" for row in rows)


def swapped(paths):
    """The same subflows with their planes' paths in the other order."""
    return list(reversed(paths))


@pytest.mark.parametrize("kind", KINDS)
def test_resteer(kind):
    __, net = build(kind)

    def move_every_flow():
        moved = []
        for row in net.control_rows()[1]:
            gid, paths = row["gid"], swapped(row["paths"])
            moved.append((gid, net.resteer(gid, paths), paths))
        return moved

    moved = probe_at(net, 20e-6, move_every_flow)
    assert moved
    for gid, new, __ in moved:
        engine = gid[0] if kind == "hybrid" else kind
        if engine == "packet":
            assert new != gid  # aborted and relaunched under a fresh id
        else:
            assert new == gid  # migrated in place
        if kind == "hybrid":
            assert new[0] == gid[0]
    # Every flow still completes; a finished flow cannot be resteered.
    assert len(net.records) == 6
    for __, new, paths in moved:
        assert net.resteer(new, paths) is None


@pytest.mark.parametrize("kind", KINDS)
def test_queue_stats(kind):
    __, net = build(kind)
    net.run()
    stats = net.queue_stats()
    if kind == "fluid":
        assert stats == {}
    else:
        assert stats
        for forwarded, drops in stats.values():
            assert forwarded >= 0 and drops >= 0
    if kind == "hybrid":
        assert stats == net.packet.queue_stats()


@pytest.mark.parametrize("kind", KINDS)
def test_record_fidelity(kind):
    pnet = make_pnet()
    specs = flows(pnet, kind)
    result = run_trial(build_network(pnet, kind=kind), specs, control="off")
    assert result.engine == kind
    assert len(result.records) == len(specs)
    for record in result.records:
        want = specs[record.flow_id].fidelity or kind
        assert record.fidelity == want
        assert result.fidelity[record.flow_id] == want


@pytest.mark.parametrize("kind", KINDS)
def test_fault_injection_needs_plain_flow_ids(kind):
    pnet, net = build(kind)
    assert hasattr(net, "active_flow_paths") == (kind != "hybrid")
    injector = FaultInjector(pnet, FaultSchedule([]))
    if kind == "hybrid":
        # Hybrid ids are (engine, fid) pairs; selectors hash plain ids.
        with pytest.raises(TypeError):
            injector.attach(net)
    else:
        injector.attach(net)


def engine_isinstance_calls(path):
    """``isinstance`` calls in ``path`` that name an engine class."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        names = {
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node.args[1])
            if isinstance(sub, (ast.Name, ast.Attribute))
        }
        if names & ENGINE_CLASSES:
            found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return found


def test_no_engine_type_branches_in_src():
    found = [
        hit
        for path in sorted(SRC.rglob("*.py"))
        for hit in engine_isinstance_calls(path)
    ]
    assert found == []
