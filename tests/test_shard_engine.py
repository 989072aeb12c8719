"""Engine-level guarantees of the plane-sharded simulation.

The hard invariants (ISSUE acceptance criteria):

* one shard -- or ``epoch=0`` -- is **byte-identical** to a plain
  serial simulator run of the same workload (records and telemetry);
* multi-shard results are identical across the ``local`` and ``shm``
  channel backends and across repeat runs;
* unshardable workloads (completion callbacks, fractional spanning
  sizes) are refused loudly, never silently approximated, and
  ``serial_fallback=True`` runs them serial and counts the downgrade;
* fault schedules route per plane and replay identically on both
  backends;
* ``PNET_JOBS`` budgets the *total* process count: trial workers
  shrink to ``jobs // shards``, and sharded trial results get their
  own cache identity.
"""

import pickle
import random

import pytest

from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import (
    JellyfishFamily,
    PARALLEL_HOMOGENEOUS,
    network_for_label,
)
from repro.exp.runner import TrialSpec, last_stats, run_trials
from repro.faults.schedule import FaultEvent
from repro.obs import Registry
from repro.shard import ShardPlan, ShardSafetyError, run_packet_trial
from repro.sim.network import PacketNetwork
from repro.traffic.patterns import permutation
from repro.units import KB, MB


def jellyfish_workload(n_flows=8, size=200 * KB):
    family = JellyfishFamily(12, 5, 2)
    pnet = network_for_label(family, PARALLEL_HOMOGENEOUS, 4)
    pairs = permutation(pnet.hosts, random.Random("fig9-pkt"))[:n_flows]
    policy = KspMultipathPolicy(pnet, k=4, seed=0)
    specs = [
        FlowSpec(
            src=src, dst=dst, size=size,
            paths=policy.select(src, dst, flow_id),
        )
        for flow_id, (src, dst) in enumerate(pairs)
    ]
    return pnet, specs


class TestSerialByteIdentity:
    def test_one_shard_matches_plain_packet_network(self):
        pnet, specs = jellyfish_workload()
        plain = PacketNetwork(pnet.planes)
        for spec in specs:
            plain.add_flow(spec=spec)
        plain.run()
        want = sorted(plain.records, key=lambda r: r.flow_id)

        result = run_packet_trial(pnet.planes, specs, shards=1)
        assert result.n_shards == 1
        assert result.backend == "local"
        assert pickle.dumps(result.records) == pickle.dumps(want)

    def test_one_shard_telemetry_matches_plain(self):
        pnet, specs = jellyfish_workload(n_flows=4)
        plain_obs = Registry()
        plain = PacketNetwork(pnet.planes, obs=plain_obs)
        for spec in specs:
            plain.add_flow(spec=spec)
        plain.run()

        shard_obs = Registry()
        run_packet_trial(pnet.planes, specs, shards=1, obs=shard_obs)
        flows = [m for m in plain_obs.metrics() if m.name == "net.flows"]
        assert flows  # the comparison below is not vacuous
        # Wallclock timers aside, the serial shard path must drive the
        # caller's registry exactly as a plain run does.
        assert plain_obs.snapshot(
            include_wallclock=False
        ) == shard_obs.snapshot(include_wallclock=False)

    def test_one_shard_keeps_completion_callbacks(self):
        pnet, specs = jellyfish_workload(n_flows=2)
        done = []
        specs[0] = specs[0].replace(on_complete=done.append)
        run_packet_trial(pnet.planes, specs, shards=1)
        assert len(done) == 1 and done[0].flow_id == 0


class TestMultiShardDeterminism:
    def test_all_backends_byte_identical(self):
        # local is the reference; the shared-memory transport must
        # reproduce it byte-for-byte (it swaps pickled digests for
        # fixed-layout numpy blocks, so this also pins the codec's
        # exactness end to end).
        pnet, specs = jellyfish_workload()
        local, shm = (
            run_packet_trial(pnet.planes, specs, shards=2, backend=backend)
            for backend in ("local", "shm")
        )
        assert shm.backend == "shm"
        assert pickle.dumps(shm.records) == pickle.dumps(local.records)
        assert shm.plane_totals == local.plane_totals

    def test_repeat_runs_identical(self):
        pnet, specs = jellyfish_workload()
        blobs = [
            pickle.dumps(
                run_packet_trial(
                    pnet.planes, specs, shards=4, backend="local"
                ).records
            )
            for __ in range(2)
        ]
        assert blobs[0] == blobs[1]

    def test_records_sorted_by_submission_order(self):
        pnet, specs = jellyfish_workload()
        result = run_packet_trial(
            pnet.planes, specs, shards=2, backend="local"
        )
        assert [r.flow_id for r in result.records] == list(range(len(specs)))
        assert all(
            rec.size == spec.size
            for rec, spec in zip(result.records, specs)
        )

    def test_telemetry_covers_every_flow_once(self):
        pnet, specs = jellyfish_workload(n_flows=4)
        obs = Registry()
        run_packet_trial(
            pnet.planes, specs, shards=2, backend="local", obs=obs
        )
        total_flows = sum(
            m.value for m in obs.metrics() if m.name == "net.flows"
        )
        # Each flow counts once per plane it uses (4 subflows each).
        assert total_flows == sum(len(s.paths) for s in specs)


class TestShardSafety:
    def test_callbacks_refused_when_sharded(self):
        pnet, specs = jellyfish_workload(n_flows=2)
        specs[0] = specs[0].replace(on_complete=lambda record: None)
        with pytest.raises(ShardSafetyError, match="callback"):
            run_packet_trial(pnet.planes, specs, shards=2)

    def test_non_integer_spanning_size_refused(self):
        pnet, specs = jellyfish_workload(n_flows=2)
        specs[0] = specs[0].replace(size=1000.5)
        with pytest.raises(ShardSafetyError, match="non-integer"):
            run_packet_trial(pnet.planes, specs, shards=2)

    def test_refusals_name_flow_and_endpoints(self):
        # A refusal the user can act on names the offending flow id and
        # its endpoints -- not just the rule it broke.
        pnet, specs = jellyfish_workload(n_flows=3)
        specs[1] = specs[1].replace(on_complete=lambda record: None)
        with pytest.raises(
            ShardSafetyError,
            match=rf"flow 1 \({specs[1].src}->{specs[1].dst}\)",
        ):
            run_packet_trial(pnet.planes, specs, shards=2)

    def test_non_integer_refusal_names_planes_and_shards(self):
        pnet, specs = jellyfish_workload(n_flows=3)
        specs[2] = specs[2].replace(size=1000.5)
        planes_used = sorted({p for p, __ in specs[2].paths})
        message = (
            rf"flow 2 \({specs[2].src}->{specs[2].dst}\).*"
            rf"plane\(s\) {', '.join(map(str, planes_used))}.*"
            r"spanning shard\(s\)"
        )
        with pytest.raises(ShardSafetyError, match=message):
            run_packet_trial(pnet.planes, specs, shards=2)
        # The message also carries the bad size itself.
        with pytest.raises(ShardSafetyError, match="1000.5"):
            run_packet_trial(pnet.planes, specs, shards=2)

    def test_schedule_naming_missing_plane_refused(self):
        pnet, specs = jellyfish_workload(n_flows=2)
        event = FaultEvent(at=1e-5, kind="plane_down", plane=9)
        with pytest.raises(ValueError, match="plane 9"):
            run_packet_trial(
                pnet.planes, specs, shards=2, schedule=[event]
            )

    def test_unknown_backend_refused_before_workers_start(
        self, monkeypatch
    ):
        import repro.shard.engine

        started = []
        monkeypatch.setattr(repro.shard.engine, "ShmChannel", started.append)
        monkeypatch.setenv("PNET_SHARD_BACKEND", "process")
        pnet, specs = jellyfish_workload(n_flows=2)
        with pytest.raises(
            ValueError, match=r"one of local/shm, got 'process'"
        ):
            run_packet_trial(pnet.planes, specs, shards=2)
        assert not started


def unshardable_workload(feature):
    """A workload the engine must refuse (or downgrade) at 2 shards."""
    pnet, specs = jellyfish_workload(n_flows=3)
    if feature == "packet.on_complete":
        specs[1] = specs[1].replace(on_complete=lambda record: None)
    else:
        assert ShardPlan.build(len(pnet.planes), 2).is_spanning(specs[1])
        specs[1] = specs[1].replace(size=specs[1].size + 0.5)
    return pnet, specs


class TestSerialFallback:
    """``serial_fallback=True`` downgrades instead of refusing.

    The downgrade must be the literal serial run, and it must be
    counted on ``shard.serial_fallback`` however the shard count was
    requested: by argument or by ``PNET_SHARDS``.
    """

    @pytest.mark.parametrize(
        "feature", ["packet.on_complete", "packet.fractional_spanning"]
    )
    def test_runs_serial_and_counts_the_downgrade(
        self, feature, monkeypatch
    ):
        pnet, specs = unshardable_workload(feature)
        want = pickle.dumps(
            run_packet_trial(pnet.planes, specs, shards=1).records
        )
        monkeypatch.delenv("PNET_SHARDS", raising=False)
        for shards, env in ((2, None), (None, "2")):
            if env is not None:
                monkeypatch.setenv("PNET_SHARDS", env)
            obs = Registry(enabled=True)
            result = run_packet_trial(
                pnet.planes, specs, shards=shards,
                serial_fallback=True, obs=obs,
            )
            assert result.n_shards == 1
            assert pickle.dumps(result.records) == want
            assert obs.value("shard.serial_fallback", feature=feature) == 1


class TestFaultRouting:
    def test_plane_outage_replays_identically_on_both_backends(self):
        # Outage plus restore: a *permanent* plane loss leaves spanning
        # MPTCP flows unable to complete (bytes already pulled into the
        # dead subflow's buffer are stuck until the plane returns) in
        # the serial simulator and the sharded engine alike.
        pnet, specs = jellyfish_workload(size=1 * MB)
        schedule = [
            FaultEvent(at=2e-5, kind="plane_down", plane=0),
            FaultEvent(at=2e-4, kind="plane_up", plane=0),
        ]
        runs = {
            backend: run_packet_trial(
                pnet.planes, specs, shards=2, backend=backend,
                schedule=schedule,
            )
            for backend in ("local", "shm")
        }
        assert pickle.dumps(runs["shm"].records) == pickle.dumps(
            runs["local"].records
        )
        # The outage actually bit: same workload without it differs.
        healthy = run_packet_trial(
            pnet.planes, specs, shards=2, backend="local"
        )
        assert pickle.dumps(healthy.records) != pickle.dumps(
            runs["local"].records
        )


def shard_probe_trial():
    """Module-level so pool workers can resolve it by name."""
    return 42


class TestRunnerBudgeting:
    def test_jobs_budget_is_divided_by_shards(self, monkeypatch):
        monkeypatch.setenv("PNET_JOBS", "4")
        monkeypatch.setenv("PNET_SHARDS", "2")
        run_trials([
            TrialSpec(
                fn="tests.test_shard_engine:shard_probe_trial", key=(i,)
            )
            for i in range(3)
        ])
        stats = last_stats()
        assert stats.jobs == 4
        assert stats.shards == 2
        assert stats.trial_workers == 2
        assert "2 trial" in stats.summary()

    def test_epoch_zero_restores_full_parallelism(self, monkeypatch):
        monkeypatch.setenv("PNET_JOBS", "4")
        monkeypatch.setenv("PNET_SHARDS", "2")
        monkeypatch.setenv("PNET_EPOCH", "0")
        run_trials([
            TrialSpec(
                fn="tests.test_shard_engine:shard_probe_trial", key=("z",)
            )
        ])
        stats = last_stats()
        assert stats.shards == 1
        assert stats.trial_workers == 4

    def test_cache_key_tags_sharded_runs_only(self, monkeypatch):
        from repro.config import RunConfig
        from repro.exp.runner import _trial_cache_key

        spec = TrialSpec(
            fn="tests.test_shard_engine:shard_probe_trial", key=("k",)
        )

        def key():
            return _trial_cache_key(spec, RunConfig.from_env())

        monkeypatch.delenv("PNET_SHARDS", raising=False)
        monkeypatch.delenv("PNET_EPOCH", raising=False)
        serial_key = key()
        monkeypatch.setenv("PNET_SHARDS", "2")
        sharded_key = key()
        assert serial_key != sharded_key
        assert ("PNET_SHARDS", 2) in sharded_key[-2:]
        # epoch 0 runs the byte-identical serial path: untagged key, so
        # existing golden caches stay valid.
        monkeypatch.setenv("PNET_EPOCH", "0")
        assert key() == serial_key
