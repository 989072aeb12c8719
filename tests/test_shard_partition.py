"""Unit tests for the plane-partitioning layer of :mod:`repro.shard`."""

import pytest

from repro.config import ConfigError, RunConfig
from repro.core.flowspec import FlowSpec
from repro.obs import Registry
from repro.shard import DEFAULT_EPOCH, ShardPlan, classify, serial_fallback


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
    def test_shards_default(self, monkeypatch):
        monkeypatch.delenv("PNET_SHARDS", raising=False)
        assert RunConfig.from_env().shards == 1

    def test_shards_env(self, monkeypatch):
        monkeypatch.setenv("PNET_SHARDS", "4")
        assert RunConfig.from_env().shards == 4

    def test_shards_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("PNET_SHARDS", "4")
        assert RunConfig.from_env(shards=2).shards == 2

    def test_shards_invalid(self, monkeypatch):
        monkeypatch.setenv("PNET_SHARDS", "many")
        with pytest.raises(ConfigError, match="PNET_SHARDS"):
            RunConfig.from_env()
        with pytest.raises(ConfigError, match="shards"):
            RunConfig.from_env(shards=0)

    def test_epoch_default(self, monkeypatch):
        monkeypatch.delenv("PNET_EPOCH", raising=False)
        assert RunConfig.from_env().epoch == DEFAULT_EPOCH

    def test_epoch_env_and_zero(self, monkeypatch):
        monkeypatch.setenv("PNET_EPOCH", "5e-4")
        assert RunConfig.from_env().epoch == 5e-4
        assert RunConfig.from_env(epoch=0.0).epoch == 0.0

    def test_epoch_invalid(self, monkeypatch):
        monkeypatch.setenv("PNET_EPOCH", "soon")
        with pytest.raises(ConfigError, match="PNET_EPOCH"):
            RunConfig.from_env()
        with pytest.raises(ConfigError, match="epoch"):
            RunConfig.from_env(epoch=-1.0)


class TestSerialFallback:
    def test_returns_one_and_counts_when_sharded(self, monkeypatch):
        monkeypatch.setenv("PNET_SHARDS", "2")
        obs = Registry()
        assert serial_fallback("unit-test", obs=obs) == 1
        assert obs.counter(
            "shard.serial_fallback", feature="unit-test"
        ).value == 1

    def test_silent_when_serial(self, monkeypatch):
        monkeypatch.delenv("PNET_SHARDS", raising=False)
        obs = Registry()
        assert serial_fallback("unit-test", obs=obs) == 1
        assert obs.counter(
            "shard.serial_fallback", feature="unit-test"
        ).value == 0
