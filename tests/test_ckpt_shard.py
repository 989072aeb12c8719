"""Checkpoint/resume of the plane-sharded engine.

Shard checkpoints are taken at epoch barriers -- the only instants
where every worker is quiescent and the cross-plane coupling state is
globally consistent -- so a resumed run must replay the remaining
rounds byte-identically.  Partial checkpoint directories (a worker or
the engine killed mid-write) have no manifest and must be skipped, and
a checkpoint taken at one shard count must never be silently loaded
into a different decomposition.
"""

import pickle
import random
import shutil

import pytest

from repro.ckpt.store import CheckpointError, list_checkpoints, step_of
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import (
    JellyfishFamily,
    PARALLEL_HOMOGENEOUS,
    network_for_label,
)
from repro.shard import run_packet_trial
from repro.units import MB


def jellyfish_workload(n_flows=6, size=2 * MB):
    """Spanning MPTCP flows big enough to cross many epoch barriers."""
    family = JellyfishFamily(12, 5, 2)
    pnet = network_for_label(family, PARALLEL_HOMOGENEOUS, 4)
    pairs = permutation_pairs(pnet)[:n_flows]
    policy = KspMultipathPolicy(pnet, k=4, seed=0)
    specs = [
        FlowSpec(
            src=src, dst=dst, size=size,
            paths=policy.select(src, dst, flow_id),
        )
        for flow_id, (src, dst) in enumerate(pairs)
    ]
    return pnet, specs


def permutation_pairs(pnet):
    from repro.traffic.patterns import permutation

    return permutation(pnet.hosts, random.Random("fig9-pkt"))


EVERY = 2e-4  # simulated seconds between checkpoints (epoch is 1e-4)


def _run(pnet, specs, shards, **kwargs):
    return run_packet_trial(
        pnet.planes, specs, shards=shards, backend="local", **kwargs
    )


def _keep_only_earliest(root, min_ckpts=2):
    """Simulate preemption: throw away everything after the first
    checkpoint, as if the run died right after writing it."""
    ckpts = list_checkpoints(root, valid_only=True)
    assert len(ckpts) >= min_ckpts, "workload too small to test resume"
    for path in ckpts[1:]:
        shutil.rmtree(path)
    return ckpts[0]


class TestShardedResume:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_checkpointed_run_is_unperturbed(self, tmp_path, shards):
        pnet, specs = jellyfish_workload()
        want = _run(pnet, specs, shards).records
        got = _run(
            pnet, specs, shards,
            checkpoint_dir=tmp_path, checkpoint_every=EVERY,
        )
        assert pickle.dumps(got.records) == pickle.dumps(want)
        assert list_checkpoints(tmp_path, valid_only=True)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_resume_is_byte_identical(self, tmp_path, shards):
        pnet, specs = jellyfish_workload()
        want = _run(pnet, specs, shards).records
        _run(
            pnet, specs, shards,
            checkpoint_dir=tmp_path, checkpoint_every=EVERY,
        )
        _keep_only_earliest(tmp_path)
        resumed = _run(
            pnet, specs, shards, checkpoint_dir=tmp_path, resume=True,
        )
        assert pickle.dumps(resumed.records) == pickle.dumps(want)

    def test_resume_across_shm_backend(self, tmp_path):
        # Checkpoint with in-process channels, resume with real OS
        # processes: the snapshot blobs must be backend-agnostic.
        pnet, specs = jellyfish_workload(n_flows=4)
        want = _run(pnet, specs, shards=2).records
        _run(
            pnet, specs, shards=2,
            checkpoint_dir=tmp_path, checkpoint_every=EVERY,
        )
        _keep_only_earliest(tmp_path, min_ckpts=1)
        resumed = run_packet_trial(
            pnet.planes, specs, shards=2, backend="shm",
            checkpoint_dir=tmp_path, resume=True,
        )
        assert pickle.dumps(resumed.records) == pickle.dumps(want)

    def test_resume_from_empty_root_runs_fresh(self, tmp_path):
        pnet, specs = jellyfish_workload(n_flows=4)
        want = _run(pnet, specs, shards=2).records
        resumed = _run(
            pnet, specs, shards=2,
            checkpoint_dir=tmp_path / "never-written", resume=True,
        )
        assert pickle.dumps(resumed.records) == pickle.dumps(want)


class TestLookaheadCheckpoints:
    """Checkpoints taken while barriers are lookahead-batched.

    With ``epoch`` well below the minimum spanning-path RTT the engine
    covers several epochs per digest exchange; checkpoints then land on
    *batched* barriers.  A resume from such a checkpoint must replay
    the remaining batched rounds byte-identically -- the stride must
    neither shift nor reset across the cut.
    """

    EPOCH = 1e-6  # fixture's min spanning RTT is 6e-6 -> stride 6
    #: Tighter than the module-wide EVERY: the 4-flow workload drains
    #: quickly and must still cross two checkpoints for the
    #: kill-after-first resume below.
    CKPT_EVERY = 1e-4

    def test_run_is_batched_under_small_epoch(self):
        pnet, specs = jellyfish_workload(n_flows=4)
        result = _run(pnet, specs, 2, epoch=self.EPOCH)
        assert result.stride > 1  # the premise of this class

    def test_checkpointed_batched_run_is_unperturbed(self, tmp_path):
        pnet, specs = jellyfish_workload(n_flows=4)
        want = _run(pnet, specs, 2, epoch=self.EPOCH).records
        got = _run(
            pnet, specs, 2, epoch=self.EPOCH,
            checkpoint_dir=tmp_path, checkpoint_every=self.CKPT_EVERY,
        )
        assert pickle.dumps(got.records) == pickle.dumps(want)
        assert list_checkpoints(tmp_path, valid_only=True)

    def test_resume_mid_lookahead_is_byte_identical(self, tmp_path):
        pnet, specs = jellyfish_workload(n_flows=4)
        want = _run(pnet, specs, 2, epoch=self.EPOCH).records
        _run(
            pnet, specs, 2, epoch=self.EPOCH,
            checkpoint_dir=tmp_path, checkpoint_every=self.CKPT_EVERY,
        )
        _keep_only_earliest(tmp_path)
        resumed = _run(
            pnet, specs, 2, epoch=self.EPOCH,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert resumed.stride > 1
        assert pickle.dumps(resumed.records) == pickle.dumps(want)

    def test_resume_batched_across_shm_backend(self, tmp_path):
        # Batched checkpoint taken in-process, resumed over shared
        # memory: snapshots and stride derivation are backend-agnostic.
        pnet, specs = jellyfish_workload(n_flows=4)
        want = _run(pnet, specs, 2, epoch=self.EPOCH).records
        _run(
            pnet, specs, 2, epoch=self.EPOCH,
            checkpoint_dir=tmp_path, checkpoint_every=self.CKPT_EVERY,
        )
        _keep_only_earliest(tmp_path, min_ckpts=1)
        resumed = run_packet_trial(
            pnet.planes, specs, shards=2, backend="shm",
            epoch=self.EPOCH, checkpoint_dir=tmp_path, resume=True,
        )
        assert pickle.dumps(resumed.records) == pickle.dumps(want)


class TestShardedRejections:
    def test_shard_count_mismatch_rejected(self, tmp_path):
        pnet, specs = jellyfish_workload(n_flows=4)
        _run(
            pnet, specs, shards=2,
            checkpoint_dir=tmp_path, checkpoint_every=EVERY,
        )
        _keep_only_earliest(tmp_path, min_ckpts=1)
        with pytest.raises(CheckpointError, match="shard"):
            _run(
                pnet, specs, shards=1,
                checkpoint_dir=tmp_path, resume=True,
            )

    def test_every_requires_dir(self):
        pnet, specs = jellyfish_workload(n_flows=2)
        with pytest.raises(ValueError):
            _run(pnet, specs, shards=2, checkpoint_every=EVERY)

    def test_partial_checkpoint_skipped_on_resume(self, tmp_path):
        pnet, specs = jellyfish_workload()
        want = _run(pnet, specs, shards=2).records
        _run(
            pnet, specs, shards=2,
            checkpoint_dir=tmp_path, checkpoint_every=EVERY,
        )
        first = _keep_only_earliest(tmp_path)
        # A newer directory without a manifest: the engine died between
        # writing worker payloads and sealing the checkpoint.
        partial = tmp_path / f"ckpt-{step_of(first) + 1:08d}"
        partial.mkdir()
        (partial / "shard-00.pkl").write_bytes(b"half-written garbage")
        resumed = _run(
            pnet, specs, shards=2, checkpoint_dir=tmp_path, resume=True,
        )
        assert pickle.dumps(resumed.records) == pickle.dumps(want)
