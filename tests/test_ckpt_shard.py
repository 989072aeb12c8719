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

from repro.ckpt.store import (
    CheckpointError, list_checkpoints, read_manifest, step_of,
)
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import (
    JellyfishFamily,
    PARALLEL_HOMOGENEOUS,
    network_for_label,
)
from repro.obs import Registry
from repro.shard import run_packet_trial
from repro.units import MB
from tests.test_control_shard import make_pnet, shard_local_specs


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

    @pytest.mark.parametrize("shards", [1, 2])
    def test_resume_reports_the_whole_runs_telemetry(self, tmp_path, shards):
        # A restored worker continues on its checkpointed registry,
        # which holds the first segment's counters; the caller's
        # registry absorbs it, so it reads what an uninterrupted run's
        # does -- on one shard, where the first segment wrote straight
        # into the caller's registry, too.
        pnet = make_pnet()
        specs = shard_local_specs(pnet)
        kwargs = dict(
            shards=shards, backend="local", checkpoint_dir=tmp_path,
            checkpoint_every=EVERY,
        )
        whole = Registry()
        run_packet_trial(pnet, specs, obs=whole, **kwargs)
        _keep_only_earliest(tmp_path)
        resumed = Registry()
        run_packet_trial(pnet, specs, obs=resumed, resume=True, **kwargs)
        want = whole.snapshot(include_wallclock=False)
        assert want  # the comparison below is not vacuous
        assert resumed.snapshot(include_wallclock=False) == want

    def test_resumed_call_traces_its_own_barriers(self, tmp_path):
        # A resumed call's barrier trace starts past the checkpoint and
        # is the uninterrupted run's tail; the trace takes no part in
        # equality, so the two results still compare equal.
        pnet, specs = jellyfish_workload(n_flows=4)
        whole = _run(
            pnet, specs, shards=2,
            checkpoint_dir=tmp_path, checkpoint_every=EVERY,
        )
        earliest = _keep_only_earliest(tmp_path, min_ckpts=1)
        meta = read_manifest(earliest)["meta"]
        resumed = _run(
            pnet, specs, shards=2, checkpoint_dir=tmp_path, resume=True,
        )
        assert len(whole.barriers) == whole.rounds
        assert len(resumed.barriers) == resumed.rounds - meta["rounds"]
        assert resumed.barriers[0][0] > meta["t"]
        assert resumed.barriers == whole.barriers[meta["rounds"]:]
        assert resumed == whole

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

    def test_epoch_mismatch_rejected(self, monkeypatch, tmp_path):
        """The epoch places every barrier, so a resume with another one
        continues a run that neither epoch produces: refused, naming
        both epochs, before any worker starts."""
        import repro.shard.engine

        pnet, specs = jellyfish_workload(n_flows=2)
        _run(
            pnet, specs, shards=2, epoch=1e-4, until=3 * EVERY,
            checkpoint_dir=tmp_path, checkpoint_every=EVERY,
        )
        started = []
        monkeypatch.setattr(
            repro.shard.engine, "ProcessChannel", started.append
        )
        with pytest.raises(
            CheckpointError,
            match=r"epoch=0\.0001; this run has epoch=5e-05",
        ):
            run_packet_trial(
                pnet.planes, specs, shards=2, backend="shm", epoch=5e-5,
                checkpoint_dir=tmp_path, resume=True,
            )
        assert not started

    def test_simulator_checkpoint_rejected(self, tmp_path):
        # A run_trial snapshot is a 'sim' checkpoint: it holds no shard
        # workers to continue, at any shard count.
        from repro import api

        pnet, specs = jellyfish_workload(n_flows=2)
        api.run_trial(
            api.build_network(pnet.planes, kind="packet"), specs,
            control="off", until=2 * EVERY,
            checkpoint_dir=tmp_path, checkpoint_every=EVERY,
        )
        with pytest.raises(
            CheckpointError, match="'sim' checkpoint, not a shard-engine one"
        ):
            _run(pnet, specs, shards=1, checkpoint_dir=tmp_path, resume=True)

    def test_every_requires_dir(self):
        pnet, specs = jellyfish_workload(n_flows=2)
        with pytest.raises(ValueError):
            _run(pnet, specs, shards=2, checkpoint_every=EVERY)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_checkpoint_args_need_every(self, tmp_path, shards):
        # Without checkpoint_every (or resume) nothing would be written:
        # refuse at entry, as run_trial does.
        pnet, specs = jellyfish_workload(n_flows=2)
        with pytest.raises(ValueError, match="requires checkpoint_every"):
            _run(pnet, specs, shards, checkpoint_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

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
