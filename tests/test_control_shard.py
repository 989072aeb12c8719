"""Shard-safe control: the driver at the lookahead barriers.

A ``PNET_SHARDS>1`` packet run must keep adaptive control without
falling back to the serial path: the shard engine samples every worker
at its barriers, runs the same policy a serial run would, and applies
per-shard abort+relaunch batches with stable global flow ids.  Results
must be byte-identical across the local and shm channel backends,
spanning flows are skipped (not corrupted), cross-shard path sets are
narrowed to the owning shard, and the driver state rides shard
checkpoints.
"""

import pickle
import random
import shutil

from repro.ckpt.store import list_checkpoints
from repro.control import Controller, LoadAwarePolicy
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.core.pnet import PNet
from repro.obs import Registry
from repro.shard import run_packet_trial
from repro.topology import ParallelTopology, build_jellyfish

INTERVAL = 5e-5


def make_pnet(n_planes=4, seed=0):
    return PNet(
        ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(8, 4, 2, seed=s + seed), n_planes
        )
    )


def shard_local_specs(pnet, n=6, size=4_000_000):
    """MPTCP flows confined to planes {0, 1} -- one shard of two.

    Planes 2/3 idle, so load-aware wants to move subflows there and
    every decision exercises the narrowing path; nothing spans shards.
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
            ],
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


def controller():
    return Controller(
        LoadAwarePolicy(seed=0, hysteresis=1.2), interval=INTERVAL
    )


def fallback_count(obs):
    for row in obs.snapshot():
        if row.get("name") == "shard.serial_fallback":
            return row.get("value")
    return 0


def run_sharded(pnet, specs, backend="local", shards=2, **kwargs):
    obs = Registry(enabled=True)
    result = run_packet_trial(
        pnet, specs, shards=shards, backend=backend, obs=obs,
        control=controller(), **kwargs,
    )
    return result, fallback_count(obs)


class TestShardedControl:
    def test_two_shards_no_serial_fallback(self):
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        result, fallbacks = run_sharded(pnet, specs)
        assert fallbacks == 0
        assert len(result.records) == len(specs)
        stats = result.control["stats"]
        assert stats["ticks"] > 0
        # Idle planes 2/3 pull decisions every tick; the owning-shard
        # narrowing keeps the flows on their shard.
        assert stats["applied"] > 0
        assert stats["narrowed"] > 0

    def test_backends_byte_identical(self):
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        local, __ = run_sharded(pnet, specs, backend="local")
        shm, __ = run_sharded(pnet, specs, backend="shm")
        assert pickle.dumps(shm.records) == pickle.dumps(local.records)
        assert shm.control["stats"] == local.control["stats"]

    def test_spanning_flows_skipped_not_corrupted(self):
        pnet = make_pnet()
        specs = spanning_specs(pnet)
        result, fallbacks = run_sharded(pnet, specs)
        assert fallbacks == 0
        assert len(result.records) == len(specs)
        assert result.control["stats"]["skipped_spanning"] > 0

    def test_serial_one_shard_path_keeps_gid_table(self):
        # shards=1 routes through the serial worker; resteers re-key
        # the worker's gid table so records keep their global ids.
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        result, __ = run_sharded(pnet, specs, shards=1)
        assert len(result.records) == len(specs)
        assert result.control["stats"]["applied"] > 0
        assert sorted(r.flow_id for r in result.records) == list(
            range(len(specs))
        )

    def test_control_off_unchanged(self):
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        obs = Registry(enabled=True)
        plain = run_packet_trial(
            pnet, specs, shards=2, backend="local", obs=obs
        )
        assert plain.control is None
        controlled, __ = run_sharded(pnet, specs)
        assert len(controlled.records) == len(plain.records)


class TestShardedControlResume:
    def test_checkpoint_resume_byte_identical(self, tmp_path):
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        want, __ = run_sharded(pnet, specs)

        mid, __ = run_sharded(
            pnet, specs, checkpoint_dir=tmp_path, checkpoint_every=2e-4
        )
        assert pickle.dumps(mid.records) == pickle.dumps(want.records)

        ckpts = list_checkpoints(tmp_path, valid_only=True)
        assert len(ckpts) >= 2, "workload too small to exercise resume"
        for path in ckpts[1:]:
            shutil.rmtree(path)
        resumed, __ = run_sharded(
            pnet, specs,
            checkpoint_dir=tmp_path, checkpoint_every=2e-4, resume=True,
        )
        assert pickle.dumps(resumed.records) == pickle.dumps(want.records)
        assert resumed.control["stats"] == want.control["stats"]
