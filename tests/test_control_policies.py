"""Unit tests for the control plane's measurement and policy layers.

The monitor turns raw engine snapshots (cumulative ACK counters, fluid
rates) into per-tick progress; the policies are pure deterministic
state machines over those samples.  Both are exercised here on
synthetic inputs -- no simulator in the loop -- so every decision rule
(overload threshold, idle-gap trigger, hysteresis, cooldown) is pinned
at the boundary where it flips.
"""

import pickle

import pytest

from repro.control import (
    ControlMonitor,
    ControlSample,
    Controller,
    EcmpReshufflePolicy,
    FlowView,
    FlowletPolicy,
    LoadAwarePolicy,
    make_policy,
)
from repro.control.controller import DEFAULT_INTERVAL
from repro.control.policy import DEFAULT_COOLDOWN, DEFAULT_HYSTERESIS
from repro.core.flowspec import FlowSpec, clamp_transport, same_paths
from repro.core.pnet import PNet
from repro.topology import ParallelTopology, build_jellyfish


def make_pnet(n_planes=4, seed=0):
    return PNet(
        ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(8, 4, 1, seed=s + seed), n_planes
        )
    )


def acked_row(gid, src, dst, acked, paths, size=1_000_000):
    return {
        "gid": gid, "src": src, "dst": dst, "size": size,
        "paths": paths, "transport": "mptcp", "tag": None,
        "acked": acked,
    }


def rate_row(gid, src, dst, rate, paths, size=1_000_000):
    return {
        "gid": gid, "src": src, "dst": dst, "size": size,
        "paths": paths, "transport": "tcp", "tag": None,
        "rate": rate,
    }


def sample_of(plane_load, flows, now=1e-3, interval=1e-3):
    return ControlSample(
        now=now, interval=interval, n_planes=len(plane_load),
        plane_load=plane_load, flows=flows,
    )


def view(gid, src, dst, paths, progress, acked=None, transport="mptcp"):
    return FlowView(
        gid=gid, src=src, dst=dst, size=1_000_000, paths=paths,
        transport=transport, tag=None, acked=acked, progress=progress,
        rates=[p * 8.0 / 1e-3 for p in progress],
    )


class TestMonitor:
    def test_acked_rows_difference_between_ticks(self):
        mon = ControlMonitor()
        paths = [(0, ["a", "s", "b"]), (1, ["a", "t", "b"])]
        s1 = mon.ingest(1e-3, 1e-3, 2, [
            acked_row(7, "a", "b", [100, 50], paths)
        ])
        assert s1.flows[0].progress == [100.0, 50.0]
        s2 = mon.ingest(2e-3, 1e-3, 2, [
            acked_row(7, "a", "b", [250, 50], paths)
        ])
        assert s2.flows[0].progress == [150.0, 0.0]
        assert s2.flows[0].rates == [150.0 * 8.0 / 1e-3, 0.0]
        assert s2.flows[0].total_acked == 300

    def test_counter_regression_restarts_baseline(self):
        mon = ControlMonitor()
        paths = [(0, ["a", "s", "b"])]
        mon.ingest(1e-3, 1e-3, 1, [acked_row(7, "a", "b", [500], paths)])
        # A relaunch restarted the counters: progress is the new
        # absolute value, not a negative delta.
        s = mon.ingest(2e-3, 1e-3, 1, [acked_row(7, "a", "b", [80], paths)])
        assert s.flows[0].progress == [80.0]

    def test_subflow_count_change_restarts_baseline(self):
        mon = ControlMonitor()
        two = [(0, ["a", "s", "b"]), (1, ["a", "t", "b"])]
        one = [(0, ["a", "s", "b"])]
        mon.ingest(1e-3, 1e-3, 2, [acked_row(7, "a", "b", [10, 10], two)])
        s = mon.ingest(2e-3, 1e-3, 2, [acked_row(7, "a", "b", [30], one)])
        assert s.flows[0].progress == [30.0]

    def test_plane_load_from_cumulative_counters(self):
        mon = ControlMonitor()
        s1 = mon.ingest(1e-3, 1e-3, 2, [], plane_cum={0: 1000.0, 1: 0.0})
        assert s1.plane_load == {0: 1000.0, 1: 0.0}
        s2 = mon.ingest(2e-3, 1e-3, 2, [], plane_cum={0: 1800.0, 1: 40.0})
        assert s2.plane_load == {0: 800.0, 1: 40.0}

    def test_rate_rows_project_bytes_and_feed_plane_load(self):
        mon = ControlMonitor()
        paths = [(0, ["a", "s", "b"]), (1, ["a", "t", "b"])]
        s = mon.ingest(1e-3, 1e-3, 2, [
            rate_row(3, "a", "b", [8e9, 4e9], paths)
        ])
        assert s.flows[0].progress == [1e6, 5e5]
        assert s.flows[0].rates == [8e9, 4e9]
        assert s.flows[0].acked is None
        assert s.plane_load == {0: 1e6, 1: 5e5}

    def test_departed_flow_state_is_pruned(self):
        mon = ControlMonitor()
        paths = [(0, ["a", "s", "b"])]
        mon.ingest(1e-3, 1e-3, 1, [acked_row(7, "a", "b", [500], paths)])
        mon.ingest(2e-3, 1e-3, 1, [])
        assert mon._prev_acked == {}

    def test_move_restarts_baseline_even_when_counters_grew(self):
        # A move relaunches the flow under the same id, on new paths,
        # with fresh counters; its first interval can ACK more than the
        # old leg had.  Its progress is the new counters, not the
        # difference to the old leg's.
        mon = ControlMonitor()
        before = [(0, ["a", "s", "b"])]
        after = [(1, ["a", "t", "b"])]
        mon.ingest(
            1e-3, 1e-3, 2, [acked_row(5, "a", "b", [292_000], before)]
        )
        s = mon.ingest(
            2e-3, 1e-3, 2, [acked_row(5, "a", "b", [401_500], after)]
        )
        assert s.flows[0].progress == [401_500.0]

    def test_mean_load(self):
        s = sample_of({0: 10.0, 1: 30.0}, [])
        assert s.mean_load() == 20.0
        assert sample_of({}, []).mean_load() == 0.0


class TestActions:
    def test_relaunch_spec_preserves_identity_fields(self):
        spec = FlowSpec(
            src="a", dst="b", size=1000,
            paths=[(0, ["a", "s", "b"])], tag="x", transport="tcp",
        )
        new = spec.relaunch(400, [(1, ["a", "t", "b"])], 2.5)
        assert (new.src, new.dst, new.size, new.at) == ("a", "b", 400, 2.5)
        assert new.tag == "x" and new.transport == "tcp"
        assert new.paths == [(1, ["a", "t", "b"])]

    def test_clamp_transport_single_path_transports(self):
        paths = [(0, ["a", "s", "b"]), (1, ["a", "t", "b"])]
        assert clamp_transport("dctcp", paths) == paths[:1]
        assert clamp_transport("mptcp", paths) == paths

    def test_same_paths(self):
        p = [(0, ["a", "s", "b"])]
        assert same_paths(p, [(0, ["a", "s", "b"])])
        assert not same_paths(p, [(1, ["a", "s", "b"])])


class TestArgumentDefaults:
    """``Controller`` and ``LoadAwarePolicy`` default to constants, and
    range-check what they are given."""

    def test_interval_default_and_validation(self):
        assert Controller("flowlet").interval == DEFAULT_INTERVAL == 1e-3
        assert Controller("flowlet", interval=2e-3).interval == 2e-3
        for bad in (0, -1e-3, float("nan")):
            with pytest.raises(ValueError, match="interval"):
                Controller("flowlet", interval=bad)

    def test_hysteresis_and_cooldown_validation(self):
        policy = LoadAwarePolicy()
        assert policy.hysteresis == DEFAULT_HYSTERESIS == 2.0
        assert policy.cooldown == DEFAULT_COOLDOWN == 0.0
        assert LoadAwarePolicy(hysteresis=1, cooldown=0.25).hysteresis == 1.0
        with pytest.raises(ValueError, match="hysteresis"):
            LoadAwarePolicy(hysteresis=0.5)
        with pytest.raises(ValueError, match="cooldown"):
            LoadAwarePolicy(cooldown=-1.0)


class TestRegistry:
    def test_make_policy_names(self):
        for name in ("ecmp-reshuffle", "flowlet", "load-aware"):
            policy = make_policy(name, seed=3)
            assert policy.name == name
            assert policy.fingerprint()["seed"] == 3

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="load-aware"):
            make_policy("bogus")

    def test_policies_pickle(self):
        pnet = make_pnet(2)
        for name in ("ecmp-reshuffle", "flowlet", "load-aware"):
            policy = make_policy(name, pnet=pnet, seed=1)
            clone = pickle.loads(pickle.dumps(policy))
            assert clone.fingerprint() == policy.fingerprint()


class TestEcmpReshuffle:
    def test_moves_flows_off_hot_plane(self):
        pnet = make_pnet(4)
        policy = EcmpReshufflePolicy(pnet=pnet, seed=0, overload=1.5)
        a, b = pnet.hosts[0], pnet.hosts[3]
        paths = [(0, pnet.shortest_paths(0, a, b)[0])]
        s = sample_of(
            {0: 1000.0, 1: 10.0, 2: 10.0, 3: 10.0},
            [view(1, a, b, paths, [1000.0], transport="tcp")],
        )
        decisions = policy.decide(s)
        assert len(decisions) == 1
        assert not same_paths(decisions[0].paths, paths)

    def test_quiet_when_balanced(self):
        pnet = make_pnet(4)
        policy = EcmpReshufflePolicy(pnet=pnet, seed=0)
        a, b = pnet.hosts[0], pnet.hosts[3]
        paths = [(0, pnet.shortest_paths(0, a, b)[0])]
        s = sample_of(
            {0: 100.0, 1: 100.0, 2: 100.0, 3: 100.0},
            [view(1, a, b, paths, [100.0])],
        )
        assert policy.decide(s) == []

    def test_max_moves_bounds_churn(self):
        pnet = make_pnet(4)
        policy = EcmpReshufflePolicy(pnet=pnet, seed=0, max_moves=2)
        a, b = pnet.hosts[0], pnet.hosts[3]
        paths = [(0, pnet.shortest_paths(0, a, b)[0])]
        flows = [view(i, a, b, paths, [500.0]) for i in range(6)]
        s = sample_of({0: 3000.0, 1: 0.0, 2: 0.0, 3: 0.0}, flows)
        assert len(policy.decide(s)) == 2

    def test_overload_factor_validated(self):
        with pytest.raises(ValueError):
            EcmpReshufflePolicy(overload=1.0)


class TestFlowlet:
    def test_idle_flow_rehashes_after_gap(self):
        pnet = make_pnet(4)
        policy = FlowletPolicy(pnet=pnet, seed=0, idle_ticks=2)
        a, b = pnet.hosts[0], pnet.hosts[3]
        paths = [(0, pnet.shortest_paths(0, a, b)[0])]
        idle = lambda: sample_of({0: 0.0}, [view(5, a, b, paths, [0.0])])
        assert policy.decide(idle()) == []        # 1 idle tick < 2
        # From the second consecutive idle tick on, the flow re-hashes;
        # the per-flow bump counter retries until the hash lands on a
        # different path, so a decision appears within a few ticks.
        decisions = []
        for __ in range(6):
            decisions = policy.decide(idle())
            if decisions:
                break
        assert len(decisions) == 1
        assert decisions[0].reason == "flowlet-idle"

    def test_progress_resets_idle_counter(self):
        pnet = make_pnet(4)
        policy = FlowletPolicy(pnet=pnet, seed=0, idle_ticks=2)
        a, b = pnet.hosts[0], pnet.hosts[3]
        paths = [(0, pnet.shortest_paths(0, a, b)[0])]
        policy.decide(sample_of({0: 0.0}, [view(5, a, b, paths, [0.0])]))
        policy.decide(sample_of({0: 9.0}, [view(5, a, b, paths, [9.0])]))
        assert policy.decide(
            sample_of({0: 0.0}, [view(5, a, b, paths, [0.0])])
        ) == []

    def test_idle_ticks_validated(self):
        with pytest.raises(ValueError):
            FlowletPolicy(idle_ticks=0)


class TestLoadAware:
    def _imbalanced(self, pnet, gid=1):
        a, b = pnet.hosts[0], pnet.hosts[3]
        paths = [
            (0, pnet.shortest_paths(0, a, b)[0]),
            (1, pnet.shortest_paths(1, a, b)[0]),
        ]
        # Subflow on plane 0 starves while plane 0 runs hot and planes
        # 2/3 idle: the canonical resteer-me situation.
        return view(gid, a, b, paths, [5.0, 500.0])

    def test_moves_worst_subflow_to_idle_plane(self):
        pnet = make_pnet(4)
        policy = LoadAwarePolicy(pnet=pnet, seed=0, hysteresis=2.0)
        s = sample_of(
            {0: 1000.0, 1: 500.0, 2: 0.0, 3: 0.0}, [self._imbalanced(pnet)]
        )
        decisions = policy.decide(s)
        assert len(decisions) == 1
        target_planes = [plane for plane, __ in decisions[0].paths]
        assert target_planes[0] in (2, 3)     # worst subflow moved
        assert target_planes[1] == 1          # healthy subflow untouched

    def test_hysteresis_blocks_marginal_moves(self):
        pnet = make_pnet(4)
        policy = LoadAwarePolicy(pnet=pnet, seed=0, hysteresis=2.0)
        s = sample_of(
            {0: 100.0, 1: 90.0, 2: 80.0, 3: 70.0}, [self._imbalanced(pnet)]
        )
        assert policy.decide(s) == []

    def test_cooldown_blocks_repeat_moves(self):
        pnet = make_pnet(4)
        policy = LoadAwarePolicy(
            pnet=pnet, seed=0, hysteresis=2.0, cooldown=1.0
        )
        hot = {0: 1000.0, 1: 500.0, 2: 0.0, 3: 0.0}
        assert len(policy.decide(
            sample_of(hot, [self._imbalanced(pnet)], now=1e-3)
        )) == 1
        # Within the cooldown window the same flow stays put ...
        assert policy.decide(
            sample_of(hot, [self._imbalanced(pnet)], now=2e-3)
        ) == []
        # ... and is eligible again after it.
        assert len(policy.decide(
            sample_of(hot, [self._imbalanced(pnet)], now=1.5)
        )) == 1

    def test_single_path_flows_ignored(self):
        pnet = make_pnet(4)
        policy = LoadAwarePolicy(pnet=pnet, seed=0)
        a, b = pnet.hosts[0], pnet.hosts[3]
        paths = [(0, pnet.shortest_paths(0, a, b)[0])]
        s = sample_of(
            {0: 1000.0, 1: 0.0, 2: 0.0, 3: 0.0},
            [view(1, a, b, paths, [1000.0], transport="tcp")],
        )
        assert policy.decide(s) == []

    def test_fingerprints_distinguish_configurations(self):
        a = LoadAwarePolicy(hysteresis=1.5).fingerprint()
        b = LoadAwarePolicy(hysteresis=2.0).fingerprint()
        assert a != b
        assert a["policy"] == b["policy"] == "load-aware"
