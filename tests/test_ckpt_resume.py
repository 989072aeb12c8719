"""The checkpoint/restore hard guarantee, engine by engine.

``run(T1) -> save -> restore -> run(T2)`` must produce records and
deterministic telemetry **byte-identical** to an uninterrupted
``run(T2)`` -- for the packet engine, the fluid engine, with telemetry
attached, and mid-fault-schedule (the injector's remaining events and
link refcounts ride in the same pickle).  "Close" is a failure: these
tests compare pickled bytes and exact floats, never approximations.
"""

import json
import pathlib
import pickle
import random
import re

import pytest

from repro import api
from repro.ckpt import (
    CheckpointError,
    RngBundle,
    restore,
    run_checkpointed,
    save,
)
from repro.ckpt.store import list_checkpoints, step_dir, write_checkpoint
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import JellyfishFamily
from repro.exp.degradation import resume_faulted, run_faulted
from repro.fluid.flowsim import FluidSimulator
from repro.obs import Registry
from repro.shard import run_packet_trial
from repro.sim.network import PacketNetwork
from repro.topology.graph import HOST, TOR, Topology
from repro.traffic.patterns import permutation
from repro.units import KB, Gbps, MB


def dumbbell(cap=100 * Gbps, prop=1e-6):
    topo = Topology("dumbbell")
    for i in range(4):
        topo.add_node(f"h{i}", HOST)
    topo.add_node("t0", TOR)
    topo.add_node("t1", TOR)
    topo.add_link("h0", "t0", cap, prop)
    topo.add_link("h1", "t0", cap, prop)
    topo.add_link("h2", "t1", cap, prop)
    topo.add_link("h3", "t1", cap, prop)
    topo.add_link("t0", "t1", cap, prop)
    return topo


PATH_02 = (0, ["h0", "t0", "t1", "h2"])
PATH_13 = (0, ["h1", "t0", "t1", "h3"])


def _flows():
    return [
        FlowSpec(src="h0", dst="h2", size=int(1 * MB), paths=[PATH_02]),
        FlowSpec(src="h1", dst="h3", size=int(2 * MB), paths=[PATH_13],
                 at=1e-5),
    ]


def _packet_net(obs=None):
    net = PacketNetwork([dumbbell()], obs=obs)
    for spec in _flows():
        net.add_flow(spec=spec)
    return net


def _fluid_net(obs=None):
    net = FluidSimulator([dumbbell()], slow_start=False, obs=obs)
    for spec in _flows():
        net.add_flow(spec=spec)
    return net


def _records(net):
    return pickle.dumps(net.records)


class TestPacketResume:
    def test_save_restore_run_matches_uninterrupted(self, tmp_path):
        golden = _packet_net()
        golden.run()

        net = _packet_net()
        net.run(until=4e-5)  # mid-flight: queues, cwnd, heap all live
        save(tmp_path, net)
        resumed = restore(tmp_path).network
        resumed.run()
        assert _records(resumed) == _records(golden)

    def test_run_checkpointed_matches_plain_run(self, tmp_path):
        golden = _packet_net()
        golden.run()

        net = _packet_net()
        run_checkpointed(net, tmp_path, every=5e-5, keep_last=3)
        assert _records(net) == _records(golden)
        assert list_checkpoints(tmp_path, valid_only=True)

    def test_every_checkpoint_resumes_identically(self, tmp_path):
        golden = _packet_net()
        golden.run()

        net = _packet_net()
        net.run(until=3e-5)
        save(tmp_path, net)
        net.run(until=9e-5)
        save(tmp_path, net)
        for directory in list_checkpoints(tmp_path, valid_only=True):
            resumed = restore(directory).network
            resumed.run()
            assert _records(resumed) == _records(golden)

    def test_telemetry_rides_along(self, tmp_path):
        golden_obs = Registry()
        golden = _packet_net(obs=golden_obs)
        golden.run()

        obs = Registry()
        net = _packet_net(obs=obs)
        net.run(until=4e-5)
        save(tmp_path, net)
        resumed = restore(tmp_path).network
        resumed.run()
        assert _records(resumed) == _records(golden)
        assert resumed.obs.snapshot(include_wallclock=False) == \
            golden_obs.snapshot(include_wallclock=False)


class TestFluidResume:
    def test_run_checkpointed_matches_plain_run(self, tmp_path):
        golden = _fluid_net()
        golden.run()

        net = _fluid_net()
        run_checkpointed(net, tmp_path, every=4e-5)
        assert _records(net) == _records(golden)
        assert list_checkpoints(tmp_path, valid_only=True)

    def test_restored_fluid_run_matches(self, tmp_path):
        golden = _fluid_net()
        golden.run()

        net = _fluid_net()
        run_checkpointed(net, tmp_path, every=4e-5)
        resumed = restore(tmp_path).network
        resumed.run()
        assert _records(resumed) == _records(golden)

    def test_horizon_run_matches(self, tmp_path):
        until = 1.2e-4
        golden = _fluid_net()
        golden.run(until=until)

        net = _fluid_net()
        run_checkpointed(net, tmp_path, every=4e-5, until=until)
        assert _records(net) == _records(golden)
        assert net.now == golden.now


class TestRestoreRejections:
    def test_empty_root_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            restore(tmp_path / "never-written")

    def test_wrong_kind_rejected(self, tmp_path):
        write_checkpoint(
            step_dir(tmp_path, 0), {"sweep.pkl": pickle.dumps({})},
            meta={"kind": "sweep"},
        )
        with pytest.raises(CheckpointError, match="'sweep' checkpoint"):
            restore(tmp_path)

    def test_corrupt_payload_rejected(self, tmp_path):
        net = _packet_net()
        net.run(until=3e-5)
        directory = save(tmp_path, net)
        blob = bytearray((directory / "state.pkl").read_bytes())
        blob[10] ^= 0xFF
        (directory / "state.pkl").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            restore(directory)
        # Via the root, the corrupt newest is skipped -> nothing valid.
        with pytest.raises(CheckpointError, match="nothing to resume"):
            restore(tmp_path)

    def test_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            run_checkpointed(_packet_net(), tmp_path, every=0)

    def test_v1_packet_snapshot_rejected(self, tmp_path):
        # v1 packet snapshots hold two-event queues and pipes that this
        # build cannot run; they must fail at load, not in the restored
        # simulation.
        net = _packet_net()
        net.run(until=3e-5)
        directory = save(tmp_path, net)
        manifest_path = directory / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="v1 .* not supported"):
            restore(directory)

    def test_v2_fluid_snapshot_rejected(self, tmp_path):
        # v2 fluid snapshots hold per-flow objects with their own rates
        # and delivered bits; this build keeps that state in arrays, so
        # a v2 snapshot must fail at load.
        net = _fluid_net()
        net.run(stop_after=4e-5)
        directory = save(tmp_path, net)
        manifest_path = directory / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="v2 .* not supported"):
            restore(directory)

    def test_v3_snapshot_rejected(self, tmp_path):
        # v3 snapshots pickle queues in place; this build writes them
        # as shells plus a flat state table, so v3 must fail at load.
        net = _packet_net()
        net.run(until=3e-5)
        directory = save(tmp_path, net)
        manifest_path = directory / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 3
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="v3 .* not supported"):
            restore(directory)


class TestMidFaultResume:
    #: The "tiny" degradation preset: one plane-down/plane-up outage.
    PARAMS = dict(
        k=4, n_planes=2, chaos_seed=7, outage_at=0.1, outage=0.2,
        duration=0.5, sample_period=0.025,
    )

    def test_preempted_mid_outage_resumes_exactly(self, tmp_path):
        golden = run_faulted(**self.PARAMS)

        # Abandon mid-outage (0.15 is inside [0.1, 0.3)): the restore
        # event is still *pending* in the checkpointed schedule.
        run_faulted(
            **self.PARAMS, checkpoint_dir=tmp_path, checkpoint_every=0.05,
            stop_after=0.15,
        )
        result = resume_faulted(tmp_path)
        assert result["samples"] == golden["samples"]
        assert result["stats"] == golden["stats"]
        # The outage really was mid-schedule at the cut.
        assert golden["stats"]["links_restored"] > 0

    def test_checkpointed_run_output_unperturbed(self, tmp_path):
        golden = run_faulted(**self.PARAMS)
        checked = run_faulted(
            **self.PARAMS, checkpoint_dir=tmp_path, checkpoint_every=0.1,
        )
        assert checked["samples"] == golden["samples"]
        assert checked["stats"] == golden["stats"]
        assert list_checkpoints(tmp_path, valid_only=True)


class TestApiFacade:
    def test_run_trial_checkpointed_and_resumed(self, tmp_path):
        golden = api.run_trial(PacketNetwork([dumbbell()]), _flows())

        result = api.run_trial(
            PacketNetwork([dumbbell()]), _flows(),
            checkpoint_dir=tmp_path, checkpoint_every=5e-5,
        )
        assert pickle.dumps(result.records) == pickle.dumps(golden.records)

        resumed = api.resume_trial(tmp_path)
        assert pickle.dumps(resumed.records) == pickle.dumps(golden.records)

    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(ValueError):
            api.run_trial(
                PacketNetwork([dumbbell()]), _flows(), checkpoint_every=1e-4
            )

    @pytest.mark.parametrize("kind", ["packet", "fluid"])
    def test_run_trial_checkpoint_args_need_every(self, tmp_path, kind):
        # Without checkpoint_every nothing would be written: refuse the
        # other arguments before any flow is submitted.
        net = api.build_network([dumbbell()], kind=kind)
        for kwargs in (
            {"checkpoint_dir": tmp_path},
            {"checkpoint_dir": tmp_path, "checkpoint_keep_last": 2},
            {"on_checkpoint": print},
        ):
            with pytest.raises(ValueError, match="checkpoint_every"):
                api.run_trial(net, _flows(), **kwargs)
        assert not net.has_pending()
        assert list(tmp_path.iterdir()) == []

    def test_resume_trial_checkpoint_args_need_every(self, tmp_path):
        api.run_trial(
            PacketNetwork([dumbbell()]), _flows(),
            checkpoint_dir=tmp_path, checkpoint_every=5e-5,
        )
        for kwargs in ({"checkpoint_keep_last": 1}, {"on_checkpoint": print}):
            with pytest.raises(ValueError, match="checkpoint_every"):
                api.resume_trial(tmp_path, **kwargs)


def _permutation_planes_and_flows():
    """The core benchmark's packet-permutation trial: 128 hosts, four
    heterogeneous Jellyfish planes, one 250 kB MPTCP flow per host."""
    pnet = JellyfishFamily(32, 6, 4).parallel_heterogeneous(4, seed=0)
    policy = KspMultipathPolicy(pnet, k=8, seed=0)
    pairs = permutation(pnet.hosts, random.Random("permutation-0"))
    return pnet.planes, [
        FlowSpec(
            src=src, dst=dst, size=250 * KB, at=0.0,
            paths=policy.select(src, dst, i),
        )
        for i, (src, dst) in enumerate(pairs)
    ]


@pytest.fixture(scope="module")
def permutation_trial():
    planes, specs = _permutation_planes_and_flows()
    golden = api.run_trial(
        api.build_network(planes, kind="packet"), specs, control="off"
    )
    return planes, specs, golden.records


class TestDeepQueueDrill:
    """Mid-run packet snapshots of a busy fabric.

    A plain pickle walks queue -> waiting packet's arrival event ->
    packet -> route -> next queue, depth first, and exceeds Python's
    recursion limit on this trial at each of these instants.
    """

    @pytest.mark.parametrize("every", [20e-6, 10e-6, 5e-6])
    def test_run_trial_drill(self, tmp_path, permutation_trial, every):
        planes, specs, golden = permutation_trial
        api.run_trial(
            api.build_network(planes, kind="packet"), specs, control="off",
            until=30e-6, checkpoint_dir=tmp_path, checkpoint_every=every,
        )
        snapshots = list_checkpoints(tmp_path, valid_only=True)
        assert len(snapshots) == int(round(25e-6 / every))
        for directory in snapshots:
            resumed = api.resume_trial(directory)
            assert pickle.dumps(resumed.records) == pickle.dumps(golden)

    def test_one_shard_drill(self, tmp_path, permutation_trial):
        planes, specs, golden = permutation_trial
        run_packet_trial(
            planes, specs, shards=1, until=30e-6,
            checkpoint_dir=tmp_path, checkpoint_every=20e-6,
        )
        assert len(list_checkpoints(tmp_path, valid_only=True)) == 1
        resumed = run_packet_trial(
            planes, specs, shards=1, checkpoint_dir=tmp_path, resume=True,
        )
        # The shard engine returns records in flow id order.
        want = sorted(golden, key=lambda record: record.flow_id)
        assert pickle.dumps(resumed.records) == pickle.dumps(want)


class TestRngBundle:
    def test_explicit_seed_is_byte_compatible(self):
        bundle = RngBundle(0)
        stream = bundle.stream("faults.chaos", seed=42)
        legacy = random.Random(42)
        assert [stream.random() for _ in range(5)] == \
            [legacy.random() for _ in range(5)]

    def test_derived_streams_are_order_independent(self):
        a = RngBundle(7)
        b = RngBundle(7)
        a.stream("x"), a.stream("y")
        b.stream("y"), b.stream("x")
        assert a.stream("x").random() == b.stream("x").random()
        assert a.stream("y").random() == b.stream("y").random()

    def test_streams_are_independent(self):
        bundle = RngBundle(7)
        assert bundle.stream("x").random() != bundle.stream("y").random()

    def test_first_call_seeds_later_calls_continue(self):
        bundle = RngBundle(0)
        first = bundle.stream("s", seed=1)
        first.random()
        # A later call -- even with a different seed -- must NOT rewind.
        again = bundle.stream("s", seed=999)
        assert again is first

    def test_position_round_trip_via_state(self):
        bundle = RngBundle(3)
        stream = bundle.stream("s")
        [stream.random() for _ in range(10)]
        frozen = bundle.state()
        tail = [stream.random() for _ in range(5)]
        thawed = RngBundle.from_state(frozen)
        assert thawed == RngBundle.from_state(frozen)
        assert [thawed.stream("s").random() for _ in range(5)] == tail

    def test_position_round_trip_via_pickle(self):
        bundle = RngBundle(3)
        stream = bundle.stream("s")
        [stream.random() for _ in range(10)]
        clone = pickle.loads(pickle.dumps(bundle))
        assert clone == bundle
        assert clone.stream("s").random() == stream.random()

    def test_save_restore_carries_positions(self, tmp_path):
        net = _packet_net()
        net.run(until=3e-5)
        bundle = RngBundle(11)
        stream = bundle.stream("workload")
        [stream.random() for _ in range(7)]
        save(tmp_path, net, rng=bundle)
        restored = restore(tmp_path).rng
        assert restored == bundle
        assert restored.stream("workload").random() == stream.random()


MID_RUN_RNG = re.compile(
    r"\bimport random\b|\bfrom random import\b|"
    r"\brandom\.Random\b|np\.random|numpy\.random"
)


class TestNoMidRunRandomness:
    def test_engines_draw_no_randomness(self):
        """Restore-path seeding audit: the simulation engines must hold
        *zero* RNG state outside the checkpointed RngBundle, so there is
        nothing a restore could silently re-seed."""
        src = pathlib.Path(__file__).parent.parent / "src" / "repro"
        offenders = []
        for package in ("sim", "fluid"):
            for path in sorted((src / package).rglob("*.py")):
                if MID_RUN_RNG.search(path.read_text()):
                    offenders.append(str(path))
        assert not offenders, (
            f"RNG use crept into the engines: {offenders}; route it "
            "through repro.ckpt.rng.RngBundle so restores stay exact"
        )
