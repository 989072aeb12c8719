"""Unit tests for the plane-partitioning layer of :mod:`repro.shard`."""

import inspect

import pytest

from repro.config import ConfigError, RunConfig
from repro.core.flowspec import FlowSpec
from repro.shard import DEFAULT_EPOCH, ShardPlan, classify, run_packet_trial
from tests.test_shard_engine import jellyfish_workload


def spanning_spec(planes, src="h0", dst="h1", size=1000):
    return FlowSpec(
        src=src, dst=dst, size=size,
        paths=[(p, [src, f"s{p}", dst]) for p in planes],
    )


class TestShardPlan:
    def test_balanced_contiguous_blocks(self):
        plan = ShardPlan.build(4, 2)
        assert plan.planes_of_shard == ((0, 1), (2, 3))

    def test_uneven_split_front_loads(self):
        plan = ShardPlan.build(5, 2)
        assert plan.planes_of_shard == ((0, 1, 2), (3, 4))

    def test_clamps_to_plane_count(self):
        plan = ShardPlan.build(2, 8)
        assert plan.n_shards == 2
        assert plan.planes_of_shard == ((0,), (1,))

    @pytest.mark.parametrize("planes,shards", [(0, 1), (1, 0)])
    def test_rejects_degenerate(self, planes, shards):
        with pytest.raises(ValueError):
            ShardPlan.build(planes, shards)

    def test_shard_of_covers_all_planes(self):
        plan = ShardPlan.build(7, 3)
        owners = [plan.shard_of(p) for p in range(7)]
        assert owners == sorted(owners)  # contiguous blocks
        assert set(owners) == {0, 1, 2}

    def test_shard_of_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ShardPlan.build(4, 2).shard_of(4)

    def test_spanning_detection(self):
        plan = ShardPlan.build(4, 2)
        assert not plan.is_spanning(spanning_spec([0, 1]))
        assert plan.is_spanning(spanning_spec([1, 2]))
        assert plan.shards_of(spanning_spec([0, 3])) == (0, 1)

    def test_local_paths_keep_subflow_indices(self):
        plan = ShardPlan.build(4, 2)
        spec = spanning_spec([2, 0, 3])
        assert plan.local_paths(spec, 0) == [(1, spec.paths[1])]
        assert plan.local_paths(spec, 1) == [
            (0, spec.paths[0]), (2, spec.paths[2]),
        ]


class TestClassify:
    def test_splits_local_and_spanning_in_order(self):
        plan = ShardPlan.build(4, 2)
        specs = [
            spanning_spec([0]),        # local to shard 0
            spanning_spec([1, 2]),     # spanning
            spanning_spec([2, 3]),     # local to shard 1
            spanning_spec([0, 1]),     # local to shard 0
            spanning_spec([0, 3]),     # spanning
        ]
        local, spanning = classify(specs, plan)
        assert local == {0: [0, 3], 1: [2]}
        assert spanning == [1, 4]


class TestEnvKnobs:
    """The shard count and epoch are ``run_packet_trial`` arguments,
    checked at entry; the variables that once set them fail at entry."""

    def test_shards_default(self):
        shards = inspect.signature(run_packet_trial).parameters["shards"]
        assert shards.default == 1

    def test_shards_env(self, monkeypatch):
        monkeypatch.setenv("PNET_SHARDS", "4")
        with pytest.raises(ConfigError, match="PNET_SHARDS='4'"):
            RunConfig.from_env()
        # A direct call fails on the stale variable too, at entry.
        with pytest.raises(ConfigError, match="PNET_SHARDS='4'"):
            run_packet_trial([], [])

    def test_shards_invalid(self):
        for bad in (0, "two", 1.5, None):
            with pytest.raises(ConfigError, match="shards must be"):
                run_packet_trial([], [], shards=bad)

    def test_epoch_default(self):
        epoch = inspect.signature(run_packet_trial).parameters["epoch"]
        assert epoch.default == DEFAULT_EPOCH

    def test_epoch_env_and_zero(self, monkeypatch):
        import repro.shard.engine

        monkeypatch.setenv("PNET_EPOCH", "5e-4")
        with pytest.raises(ConfigError, match="PNET_EPOCH='5e-4'"):
            RunConfig.from_env()
        monkeypatch.delenv("PNET_EPOCH")
        # Epoch 0 is no barrier spacing, not a second way to write
        # shards=1: it is refused before any worker starts.
        started = []
        monkeypatch.setattr(
            repro.shard.engine, "ProcessChannel", started.append
        )
        pnet, specs = jellyfish_workload(n_flows=2)
        with pytest.raises(ConfigError, match="epoch must be .*, got 0"):
            run_packet_trial(
                pnet.planes, specs, shards=2, backend="shm", epoch=0
            )
        assert not started

    def test_epoch_invalid(self):
        # Zero is no barrier spacing: shards=1 is how to ask for one
        # worker.
        for bad in (0, 0.0, -1.0, "soon", float("nan"), None):
            with pytest.raises(ConfigError, match="epoch must be"):
                run_packet_trial([], [], epoch=bad)
