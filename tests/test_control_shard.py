"""Shard-safe control: the driver at the epoch barriers.

A packet run on more than one shard must keep adaptive control on
its shards: the shard engine samples every worker at its barriers,
runs the same policy a serial run would, and applies per-shard
abort+relaunch batches with stable global flow ids.  Results must be
byte-identical across the local and shm channel backends, spanning
flows are skipped (not corrupted), cross-shard path sets are narrowed
to the owning shard, the driver state rides shard checkpoints, and a
controller drives one run only.
"""

import pickle
import random
import shutil
import time

import pytest

from repro.api import build_network, run_trial
from repro.ckpt.store import CheckpointError, list_checkpoints
from repro.control import Controller, DardPolicy, LoadAwarePolicy
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.core.pnet import PNet
from repro.obs import Registry
from repro.shard import run_packet_trial
from repro.topology import ParallelTopology, build_jellyfish

from tests.test_control_engines import POLICIES, record_rows

INTERVAL = 5e-5


def make_pnet(n_planes=4, seed=0):
    return PNet(
        ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(8, 4, 2, seed=s + seed), n_planes
        )
    )


def shard_local_specs(pnet, n=6, size=4_000_000, subflows=2):
    """MPTCP flows confined to planes {0, 1} -- one shard of two.

    Planes 2/3 idle, so load-aware wants to move subflows there and
    every decision exercises the narrowing path; nothing spans shards.
    ``subflows=1`` keeps each flow on plane 0 alone.
    """
    rng = random.Random("control-shard")
    hosts = list(pnet.hosts)
    rng.shuffle(hosts)
    specs = []
    for i in range(n):
        src, dst = hosts[2 * i], hosts[2 * i + 1]
        specs.append(FlowSpec(
            src=src, dst=dst, size=size,
            paths=[
                (0, pnet.shortest_paths(0, src, dst)[0]),
                (1, pnet.shortest_paths(1, src, dst)[0]),
            ][:subflows],
        ))
    return specs


def spanning_specs(pnet, n=4, size=1_000_000):
    """KSP flows whose subflows cross the shard boundary."""
    policy = KspMultipathPolicy(pnet, k=4, seed=0)
    hosts = pnet.hosts
    return [
        FlowSpec(
            src=hosts[i], dst=hosts[i + 1], size=size,
            paths=policy.select(hosts[i], hosts[i + 1], i),
        )
        for i in range(n)
    ]


def controller(policy=None):
    if policy is None:
        policy = LoadAwarePolicy(seed=0, hysteresis=1.2)
    return Controller(policy, interval=INTERVAL)


def run_sharded(
    pnet, specs, backend="local", shards=2, policy=None, **kwargs
):
    return run_packet_trial(
        pnet, specs, shards=shards, backend=backend,
        obs=Registry(enabled=True), control=controller(policy), **kwargs,
    )


class TestShardedControl:
    def test_two_shards_no_serial_fallback(self):
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        result = run_sharded(pnet, specs)
        assert result.n_shards == 2
        assert len(result.records) == len(specs)
        for record in result.records:
            assert record.size == specs[record.flow_id].size
        stats = result.control["stats"]
        assert stats["ticks"] > 0
        # Idle planes 2/3 pull decisions every tick; the owning-shard
        # narrowing keeps the flows on their shard.
        assert stats["applied"] > 0
        assert stats["narrowed"] > 0

    def test_backends_byte_identical(self):
        pnet = make_pnet()
        # The default load-aware policy on MPTCP flows, and DARD on
        # single-path ones; each run gets a fresh policy object.
        for fresh, subflows in (
            (lambda: None, 2), (lambda: DardPolicy(seed=0), 1),
        ):
            specs = shard_local_specs(pnet, subflows=subflows)
            local = run_sharded(pnet, specs, backend="local", policy=fresh())
            shm = run_sharded(pnet, specs, backend="shm", policy=fresh())
            assert pickle.dumps(shm.records) == pickle.dumps(local.records)
            assert shm.control["stats"] == local.control["stats"]
            assert local.control["stats"]["ticks"] > 0

    def test_spanning_flows_skipped_not_corrupted(self):
        pnet = make_pnet()
        specs = spanning_specs(pnet)
        result = run_sharded(pnet, specs)
        assert result.n_shards == 2
        assert len(result.records) == len(specs)
        assert result.control["stats"]["skipped_spanning"] > 0

    def test_serial_one_shard_path_keeps_gid_table(self):
        # shards=1 is one worker steered at barriers; its resteers keep
        # the flows' global ids, so records keep them too.
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        result = run_sharded(pnet, specs, shards=1)
        assert len(result.records) == len(specs)
        assert result.control["stats"]["applied"] > 0
        assert sorted(r.flow_id for r in result.records) == list(
            range(len(specs))
        )
        for record in result.records:
            assert record.size == specs[record.flow_id].size

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_attached_controller_equals_one_shard(self, policy):
        """A controller attached to a packet engine and the one-shard
        barrier loop move the same flows the same way: both keep a
        moved flow's id, so their records and counts agree."""
        make, subflows = POLICIES[policy]
        pnet = make_pnet()
        specs = shard_local_specs(pnet, n=8, subflows=subflows)
        attached = controller(make())
        want = run_trial(
            build_network(pnet.planes, kind="packet"), specs,
            control=attached,
        )
        one_shard = run_packet_trial(
            pnet, specs, shards=1, control=controller(make())
        )
        assert attached.stats.applied > 0
        assert one_shard.control["stats"]["applied"] == (
            attached.stats.applied
        )
        assert record_rows(one_shard.records) == record_rows(want.records)

    def test_control_off_unchanged(self):
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        obs = Registry(enabled=True)
        plain = run_packet_trial(
            pnet, specs, shards=2, backend="local", obs=obs
        )
        assert plain.control is None
        controlled = run_sharded(pnet, specs)
        assert len(controlled.records) == len(plain.records)


class TestControllerDrivesOneRun:
    def test_reuse_refused_before_any_worker_starts(self, monkeypatch):
        """A controller's policy, monitor and stats hold its run's
        state, so a second run with it -- sharded or one-shard, after
        either -- raises before a shard worker starts instead of
        carrying the first run's counts and decisions on."""
        import repro.shard.engine

        pnet = make_pnet()
        specs = shard_local_specs(pnet, n=2, size=500_000)
        sharded, serial = controller(), controller()
        run_packet_trial(
            pnet, specs, shards=2, backend="local", control=sharded
        )
        run_packet_trial(pnet, specs, shards=1, control=serial)
        started = []
        monkeypatch.setattr(
            repro.shard.engine, "ProcessChannel", started.append
        )
        for ctl in (sharded, serial):
            for shards in (2, 1):
                with pytest.raises(RuntimeError, match="already attached"):
                    run_packet_trial(
                        pnet, specs, shards=shards, backend="shm",
                        control=ctl,
                    )
        assert not started


class TestShardedControlResume:
    def test_checkpoint_resume_byte_identical(self, tmp_path):
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        want = run_sharded(pnet, specs)

        mid = run_sharded(
            pnet, specs, checkpoint_dir=tmp_path, checkpoint_every=2e-4
        )
        assert pickle.dumps(mid.records) == pickle.dumps(want.records)

        ckpts = list_checkpoints(tmp_path, valid_only=True)
        assert len(ckpts) >= 2, "workload too small to exercise resume"
        for path in ckpts[1:]:
            shutil.rmtree(path)
        resumed = run_sharded(
            pnet, specs,
            checkpoint_dir=tmp_path, checkpoint_every=2e-4, resume=True,
        )
        assert pickle.dumps(resumed.records) == pickle.dumps(want.records)
        assert resumed.control["stats"] == want.control["stats"]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_resume_hands_the_run_to_the_callers_controller(
        self, tmp_path, shards
    ):
        """The controller passed to a resumed run ends up holding the
        run's policy, monitor and stats, as the controller of a run that
        never stopped does, and it drives no second run."""
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        ctl = controller()
        kwargs = dict(
            shards=shards, backend="local", checkpoint_dir=tmp_path,
            checkpoint_every=2e-4,
        )
        run_packet_trial(pnet, specs, control=ctl, **kwargs)
        ckpts = list_checkpoints(tmp_path, valid_only=True)
        assert len(ckpts) >= 2, "workload too small to exercise resume"
        for path in ckpts[1:]:
            shutil.rmtree(path)

        ctl2 = controller()
        result = run_packet_trial(
            pnet, specs, control=ctl2, resume=True, **kwargs
        )
        assert result.control["stats"] == ctl.stats.as_dict()
        assert ctl2.stats.as_dict() == result.control["stats"]
        assert ctl2.stats.decisions > 0
        assert pickle.dumps(ctl2.monitor) == pickle.dumps(ctl.monitor)
        assert ctl2.policy._last_move == ctl.policy._last_move
        with pytest.raises(RuntimeError, match="already attached"):
            run_packet_trial(pnet, specs, shards=shards, control=ctl2)

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("written_with_control", [False, True])
    def test_resume_keeps_the_control_setting(
        self, monkeypatch, tmp_path, shards, written_with_control
    ):
        """Resuming with control= a checkpoint written without it would
        start control mid-run; resuming without control= one written
        with it would drop the loop.  Both raise before any worker
        starts."""
        import repro.shard.engine

        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        kwargs = dict(shards=shards, checkpoint_dir=tmp_path)
        run_packet_trial(
            pnet, specs, backend="local", checkpoint_every=2e-4,
            control=controller() if written_with_control else None,
            **kwargs,
        )
        started = []
        monkeypatch.setattr(
            repro.shard.engine, "ProcessChannel", started.append
        )
        had = "with" if written_with_control else "without"
        with pytest.raises(
            CheckpointError,
            match=f"by a run {had} control; resume it {had} control=",
        ):
            run_packet_trial(
                pnet, specs, backend="shm", resume=True,
                control=None if written_with_control else controller(),
                **kwargs,
            )
        assert not started


class TestControlTelemetry:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_merge_publishes_the_control_counters(self, tmp_path, shards):
        """``control.ticks``, ``control.decisions`` and
        ``control.flows_seen`` reach the caller's registry, as an
        attached loop's do, with the controller's counts; a resumed
        run reports the whole run's.  The horizon stops the run with
        flows live, so the last tick saw some."""
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        kwargs = dict(
            shards=shards, backend="local", checkpoint_dir=tmp_path,
            checkpoint_every=2e-4, until=1e-3,
        )
        whole = Registry()
        result = run_packet_trial(
            pnet, specs, obs=whole, control=controller(), **kwargs
        )
        stats = result.control["stats"]
        rows = {
            row["name"]: row["value"]
            for row in whole.snapshot(include_wallclock=False)
            if row["name"].startswith("control.")
        }
        assert set(rows) == {
            "control.ticks", "control.decisions", "control.flows_seen",
        }
        assert rows["control.ticks"] == stats["ticks"] > 0
        assert rows["control.decisions"] == stats["decisions"] > 0
        assert 0 < rows["control.flows_seen"] <= len(specs)

        ckpts = list_checkpoints(tmp_path, valid_only=True)
        assert len(ckpts) >= 2, "workload too small to exercise resume"
        for path in ckpts[1:]:
            shutil.rmtree(path)
        resumed = Registry()
        run_packet_trial(
            pnet, specs, obs=resumed, control=controller(), resume=True,
            **kwargs,
        )
        assert resumed.snapshot(include_wallclock=False) == \
            whole.snapshot(include_wallclock=False)


class TestPhaseSeconds:
    def test_every_phase_timed_within_the_call(self, tmp_path):
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        started = time.perf_counter()
        result = run_sharded(
            pnet, specs, checkpoint_dir=tmp_path, checkpoint_every=2e-4
        )
        wall = time.perf_counter() - started
        seconds = result.phase_seconds
        assert list(seconds) == [
            "plan", "control", "couple", "target", "exchange",
            "checkpoint", "merge",
        ]
        assert all(value >= 0 for value in seconds.values())
        assert seconds["checkpoint"] > 0
        assert sum(seconds.values()) <= wall

    def test_no_checkpoint_phase_without_checkpoint_every(self):
        pnet = make_pnet()
        result = run_sharded(pnet, shard_local_specs(pnet))
        assert result.phase_seconds["checkpoint"] == 0.0
        assert result.phase_seconds["control"] > 0
