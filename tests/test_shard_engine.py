"""Engine-level guarantees of the plane-sharded simulation.

The hard invariants (ISSUE acceptance criteria):

* one shard is **byte-identical** to a plain serial simulator run of
  the same workload (records, telemetry and trace events), runs in the
  calling process whatever the backend, and keeps completion
  callbacks;
* multi-shard results are identical across the ``local`` and ``shm``
  channel backends and across repeat runs;
* unshardable workloads (completion callbacks, fractional spanning
  sizes) are refused loudly, never silently approximated, and the
  refusal points to ``shards=1``;
* while coupling is live, barriers are at most one epoch apart except
  for exact idle jumps, and uncoupled workers free-run with no
  barrier at all;
* a trial run in one of the runner's pool workers may start its own
  shard worker processes.
"""

import multiprocessing
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ConfigError
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import (
    JellyfishFamily,
    PARALLEL_HOMOGENEOUS,
    network_for_label,
)
from repro.exp.runner import TrialSpec, last_stats, run_trials
from repro.obs import Registry, Tracer
from repro.shard import ShardSafetyError, run_packet_trial
from repro.sim.network import PacketNetwork
from repro.topology.graph import HOST, TOR, Topology
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
        assert list(result.phase_seconds) == [
            "plan", "control", "couple", "target", "exchange",
            "checkpoint", "merge",
        ]
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

    @pytest.mark.parametrize("backend", ["local", "shm"])
    def test_one_shard_runs_in_process_like_plain(
        self, monkeypatch, backend
    ):
        """One shard is every plane in one worker in this process,
        whatever the backend, writing straight into the caller's
        registry -- so its trace events are a plain run's (absorbing a
        worker registry would carry none)."""
        import repro.shard.engine

        pnet, specs = jellyfish_workload(n_flows=4)
        plain_obs = Registry(tracer=Tracer())
        plain = PacketNetwork(pnet.planes, obs=plain_obs)
        for spec in specs:
            plain.add_flow(spec=spec)
        plain.run()

        started = []
        monkeypatch.setattr(
            repro.shard.engine, "ProcessChannel", started.append
        )
        shard_obs = Registry(tracer=Tracer())
        result = run_packet_trial(
            pnet.planes, specs, shards=1, backend=backend, obs=shard_obs
        )
        assert not started
        assert multiprocessing.active_children() == []
        assert result.backend == "local"
        want = [event.as_dict() for event in plain_obs.tracer.events()]
        assert want  # the comparison below is not vacuous
        assert [
            event.as_dict() for event in shard_obs.tracer.events()
        ] == want

    def test_one_shard_keeps_completion_callbacks(self):
        pnet, specs = jellyfish_workload(n_flows=2)
        done = []
        specs[0] = specs[0].replace(on_complete=done.append)
        run_packet_trial(pnet.planes, specs, shards=1)
        assert len(done) == 1 and done[0].flow_id == 0


class TestMultiShardDeterminism:
    def test_all_backends_byte_identical(self):
        # local is the reference; the process backend must reproduce
        # it byte-for-byte (every message crosses a process boundary
        # as a pickled frame on a pipe).
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
        with pytest.raises(ShardSafetyError, match="callback.*pass shards=1"):
            run_packet_trial(pnet.planes, specs, shards=2)

    def test_non_integer_spanning_size_refused(self):
        pnet, specs = jellyfish_workload(n_flows=2)
        specs[0] = specs[0].replace(size=1000.5)
        with pytest.raises(
            ShardSafetyError, match="non-integer.*pass shards=1"
        ):
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

    def test_unknown_keyword_refused_before_workers_start(self, monkeypatch):
        # A keyword neither the engine nor PacketNetwork takes -- here
        # a fault schedule, which sharded runs do not take -- is a
        # TypeError at entry, not a ShardWorkerError from a worker.
        import repro.shard.engine

        started = []
        monkeypatch.setattr(
            repro.shard.engine, "ProcessChannel", started.append
        )
        pnet, specs = jellyfish_workload(n_flows=2)
        with pytest.raises(TypeError, match="'schedule'"):
            run_packet_trial(
                pnet.planes, specs, shards=2, backend="shm", schedule=[],
            )
        assert not started

    def test_unknown_backend_refused_before_workers_start(
        self, monkeypatch
    ):
        import repro.shard.engine

        started = []
        monkeypatch.setattr(
            repro.shard.engine, "ProcessChannel", started.append
        )
        pnet, specs = jellyfish_workload(n_flows=2)
        with pytest.raises(
            ConfigError, match=r"one of local/shm, got 'process'"
        ):
            run_packet_trial(pnet.planes, specs, shards=2, backend="process")
        assert not started


def two_plane_pnet(delays):
    """Two h0--s--h1 planes; ``delays[i]`` = per-link propagation."""
    planes = []
    for i, delay in enumerate(delays):
        plane = Topology(name=f"plane{i}")
        plane.add_node("h0", HOST)
        plane.add_node("h1", HOST)
        plane.add_node("s", TOR)
        plane.add_link("h0", "s", capacity=10e9, propagation=delay)
        plane.add_link("s", "h1", capacity=10e9, propagation=delay)
        planes.append(plane)
    return planes


class TestBarrierSpacing:
    @settings(max_examples=8, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=1e-6, max_value=2e-5), min_size=2,
            max_size=2,
        ),
    )
    def test_randomized_ping_no_causality_violation(self, delays):
        """While coupling is live, consecutive barriers are at most one
        epoch apart, and the answer stays in the serial envelope."""
        planes = two_plane_pnet(delays)
        spec = FlowSpec(
            src="h0", dst="h1", size=200 * KB,
            paths=[(i, ["h0", "s", "h1"]) for i in range(2)],
        )
        epoch = min(delays) / 2  # several barriers per round trip
        result = run_packet_trial(
            planes, [spec], shards=2, backend="local", epoch=epoch,
        )
        trace = result.barriers
        assert trace, "the run recorded no barriers"
        assert len(trace) == result.rounds
        for (t0, __), (t1, jumped) in zip(trace, trace[1:]):
            assert t1 > t0  # simulated time advances monotonically
            if not jumped:  # idle jumps are exact: every worker idle
                assert t1 - t0 <= epoch * (1 + 1e-9)
        serial = run_packet_trial(planes, [spec], shards=1)
        fct_serial = serial.records[0].fct
        assert abs(result.records[0].fct - fct_serial) / fct_serial < 0.5

    def test_plane_local_ping_free_runs_with_zero_rounds(self):
        # No spanning flow: every worker gets one unbounded run grant,
        # and the result is exact.
        planes = two_plane_pnet([2e-6, 2e-6])
        specs = [
            FlowSpec(
                src="h0", dst="h1", size=200 * KB,
                paths=[(i, ["h0", "s", "h1"])],
            )
            for i in range(2)
        ]
        sharded = run_packet_trial(planes, specs, shards=2, backend="local")
        assert sharded.rounds == 0
        assert sharded.barriers == []
        serial = run_packet_trial(planes, specs, shards=1)
        assert pickle.dumps(sharded.records) == pickle.dumps(serial.records)


def sharded_trial(n_flows):
    """A trial that shards on shm: each shard is one more process."""
    pnet, specs = jellyfish_workload(n_flows=n_flows, size=50 * KB)
    result = run_packet_trial(pnet.planes, specs, shards=2, backend="shm")
    return result.n_shards, pickle.dumps(result.records)


class TestRunnerBudgeting:
    """Sharded trials inside the runner's process pool."""

    def test_sharded_trials_run_in_pool_workers(self, monkeypatch):
        # Pool workers start the trial's shard processes: the values are
        # the serial run's, and no worker dies for being daemonic.
        monkeypatch.setenv("PNET_CACHE", "0")
        specs = [
            TrialSpec(
                fn="tests.test_shard_engine:sharded_trial", key=(n,),
                kwargs={"n_flows": n},
            )
            for n in (2, 3)
        ]
        serial = run_trials(specs, jobs=1)
        pooled = run_trials(specs, jobs=4)
        assert last_stats().trial_workers == 4
        assert pooled == serial
        assert [n_shards for n_shards, __ in pooled.values()] == [2, 2]
