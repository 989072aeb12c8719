"""The control loop on the three serial engines.

``run_trial(control=...)`` must run the same deterministic loop on the
packet, fluid, and hybrid engines; with control off, results must stay
byte-identical to builds without the control plane (meta carries no
``control`` key at all); and an attached controller must ride
checkpoints so a resumed run replays the remaining decisions
byte-identically.
"""

import shutil

import pytest

from repro.api import build_network, resume_trial, run_trial
from repro.ckpt.store import list_checkpoints
from repro.control import (
    Controller,
    DardPolicy,
    EcmpReshufflePolicy,
    FlowletPolicy,
    LoadAwarePolicy,
    as_controller,
)
from repro.core.failures import FailureAwareSelector
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.core.pnet import PNet
from repro.faults import PLANE_DOWN, FaultEvent, FaultInjector, FaultSchedule
from repro.topology import ParallelTopology, build_jellyfish

INTERVAL = 5e-5


def make_pnet(n_planes=2, seed=0):
    return PNet(
        ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(8, 4, 1, seed=s + seed), n_planes
        )
    )


def flows_for(pnet, n=4, size=2_000_000, k=2):
    policy = KspMultipathPolicy(pnet, k=k, seed=0)
    hosts = pnet.hosts
    return [
        FlowSpec(
            src=hosts[i], dst=hosts[i + 1], size=size,
            paths=policy.select(hosts[i], hosts[i + 1], i),
        )
        for i in range(min(n, len(hosts) - 1))
    ]


def controller(policy=None):
    if policy is None:
        policy = LoadAwarePolicy(seed=0, hysteresis=1.2)
    return Controller(policy, interval=INTERVAL)


#: Policy name -> (policy factory, subflows per flow it steers):
#: load-aware moves subflows of MPTCP flows, DARD single-path flows.
STEERING = {
    "load-aware": (lambda: LoadAwarePolicy(seed=0, hysteresis=1.2), 2),
    "dard": (lambda: DardPolicy(seed=0), 1),
}


def cases(*kinds):
    """(kind, policy) params; the load-aware ids are the bare kinds."""
    return [pytest.param(kind, "load-aware", id=kind) for kind in kinds] + [
        pytest.param(kind, "dard", id=f"{kind}-dard") for kind in kinds
    ]


def steered(pnet, policy):
    """A fresh controller running ``policy`` and the flows it steers."""
    make, k = STEERING[policy]
    return controller(make()), flows_for(pnet, k=k)


class TestEveryEngine:
    @pytest.mark.parametrize("kind,policy", cases("packet", "fluid", "hybrid"))
    def test_trial_completes_with_control(self, kind, policy):
        pnet = make_pnet()
        kwargs = {"promotion": 1.0} if kind == "hybrid" else {}
        net = build_network(pnet.planes, kind=kind)
        control, specs = steered(pnet, policy)
        result = run_trial(net, specs, control=control, **kwargs)
        assert len(result.records) == 4
        meta = result.meta["control"]
        assert meta["fingerprint"]["policy"] == policy
        assert meta["fingerprint"]["interval"] == INTERVAL
        assert meta["stats"]["ticks"] > 0

    @pytest.mark.parametrize("kind", ["packet", "fluid"])
    def test_control_off_is_byte_identical(self, kind):
        pnet = make_pnet()

        def once(control):
            net = build_network(pnet.planes, kind=kind)
            return run_trial(net, flows_for(pnet), control=control)

        plain = once(None)
        assert "control" not in plain.meta
        assert once(None).to_json() == plain.to_json()
        # "off" is a spelling of None.
        assert once("off").to_json() == plain.to_json()

    def test_control_changes_are_observable_not_destructive(self):
        # The controlled run still completes every flow with correct
        # sizes -- resteering must never lose or duplicate bytes.
        pnet = make_pnet()
        net = build_network(pnet.planes, kind="packet")
        specs = flows_for(pnet, n=6)
        result = run_trial(
            net, specs, control=controller(FlowletPolicy(seed=0))
        )
        assert result.meta["control"]["stats"]["applied"] > 0
        assert sorted(r.flow_id for r in result.records) == list(
            range(len(specs))
        )
        for record in result.records:
            assert record.size == specs[record.flow_id].size
        assert net.delivered_bytes == sum(spec.size for spec in specs)


#: Every policy, as (factory, subflows per flow it steers).
POLICIES = {
    "ecmp-reshuffle": (lambda: EcmpReshufflePolicy(seed=0), 2),
    "flowlet": (lambda: FlowletPolicy(seed=0), 2),
    "load-aware": (lambda: LoadAwarePolicy(seed=0, hysteresis=1.2), 2),
    "dard": (lambda: DardPolicy(seed=0), 1),
}


def record_rows(records):
    """What a moved flow's record must agree on across engines."""
    return sorted(
        (r.flow_id, r.size, r.start, r.finish, r.retransmits,
         r.packets_sent)
        for r in records
    )


class TestOneIdPerFlow:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_hybrid_packet_limit_is_the_packet_engine(self, policy):
        """Every flow promoted, a controlled hybrid run is the packet
        engine's controlled run: a move keys the flow by the id its
        record carries on both."""
        make, k = POLICIES[policy]
        pnet = make_pnet()
        specs = flows_for(pnet, n=6, k=k)
        packet, hybrid = controller(make()), controller(make())
        want = run_trial(
            build_network(pnet.planes, kind="packet"), specs, control=packet
        )
        got = run_trial(
            build_network(pnet.planes, kind="hybrid"), specs,
            control=hybrid, promotion=1.0,
        )
        assert packet.stats.applied > 0
        assert hybrid.stats == packet.stats
        assert record_rows(got.records) == record_rows(want.records)


class TestDeterminismAndResume:
    @pytest.mark.parametrize("kind", ["packet", "fluid"])
    def test_controlled_run_is_deterministic(self, kind):
        pnet = make_pnet()

        def once():
            net = build_network(pnet.planes, kind=kind)
            return run_trial(
                net, flows_for(pnet), control=controller()
            ).to_json()

        assert once() == once()

    @pytest.mark.parametrize("kind,policy", cases("packet", "fluid"))
    def test_checkpoint_resume_replays_control(self, tmp_path, kind, policy):
        pnet = make_pnet()

        def plain(**checkpoints):
            net = build_network(pnet.planes, kind=kind)
            control, specs = steered(pnet, policy)
            return run_trial(net, specs, control=control, **checkpoints)

        # The fluid engine drains the same bytes ~15x sooner than the
        # packet one; snapshot often enough that both cross >= 2 cuts.
        every = 2e-4 if kind == "packet" else 2e-5
        want = plain()
        mid = plain(checkpoint_dir=tmp_path, checkpoint_every=every)
        assert mid.to_json() == want.to_json()

        ckpts = list_checkpoints(tmp_path, valid_only=True)
        assert len(ckpts) >= 2, "workload too small to exercise resume"
        for path in ckpts[1:]:
            shutil.rmtree(path)
        resumed = resume_trial(tmp_path)
        assert resumed.to_json() == want.to_json()
        assert (
            resumed.meta["control"]["stats"]
            == want.meta["control"]["stats"]
        )


class TestFaultedRoutingView:
    def test_controller_with_its_own_view_avoids_a_dead_plane(self):
        # The injector repairs its PNet when plane 2 goes down.  The
        # controller, built without pnet=, derives a second one whose
        # cached plane-2 paths (from a move onto the idle plane) still
        # cross dead links; its policy must skip them, not steer a
        # subflow back onto the dead plane.
        pnet = make_pnet(n_planes=4)

        def spec(src, dst, megabytes, planes):
            return FlowSpec(
                src=src, dst=dst, size=megabytes * 1_000_000,
                paths=[
                    (plane, pnet.shortest_paths(plane, src, dst)[0])
                    for plane in planes
                ],
            )

        specs = [
            spec("h3", "h0", 50, (0, 1)),
            spec("h2", "h5", 100, (0,)),
            spec("h5", "h6", 20, (0,)),
            spec("h4", "h0", 100, (1,)),
        ]
        outage_at = 20 * INTERVAL
        injector = FaultInjector(
            pnet,
            FaultSchedule([
                FaultEvent(at=outage_at, kind=PLANE_DOWN, plane=2),
            ]),
            selector=FailureAwareSelector(KspMultipathPolicy(pnet, k=2)),
        )
        net = build_network(pnet.planes, kind="fluid")
        injector.attach(net)
        result = run_trial(net, specs, control=controller())
        assert len(result.records) == len(specs)
        assert result.meta["control"]["stats"]["applied"] > 0
        # Every flow outlives the outage, and none ends on the dead plane.
        for record in result.records:
            assert record.completion > outage_at
            assert 2 not in record.planes


class TestSpellings:
    def test_policy_name_and_object_spellings(self):
        pnet = make_pnet()
        net = build_network(pnet.planes, kind="fluid")
        by_name = run_trial(net, flows_for(pnet), control="load-aware")
        assert by_name.meta["control"]["fingerprint"]["policy"] == (
            "load-aware"
        )
        net = build_network(pnet.planes, kind="fluid")
        by_obj = run_trial(
            net, flows_for(pnet), control=LoadAwarePolicy(seed=0)
        )
        assert "control" in by_obj.meta

    def test_bad_control_rejected(self):
        pnet = make_pnet()
        net = build_network(pnet.planes, kind="fluid")
        with pytest.raises(TypeError, match="control="):
            run_trial(net, flows_for(pnet), control=3.14)
        with pytest.raises(ValueError, match="unknown control policy"):
            run_trial(net, flows_for(pnet), control="bogus")

    def test_as_controller_passthrough(self):
        ctl = controller()
        assert as_controller(ctl) is ctl
        assert as_controller("flowlet").policy.name == "flowlet"

    def test_double_attach_rejected(self):
        pnet = make_pnet()
        ctl = controller()
        net = build_network(pnet.planes, kind="fluid")
        run_trial(net, flows_for(pnet), control=ctl)
        net = build_network(pnet.planes, kind="fluid")
        with pytest.raises(RuntimeError, match="already attached"):
            run_trial(net, flows_for(pnet), control=ctl)
