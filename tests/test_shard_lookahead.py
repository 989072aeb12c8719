"""Lookahead correctness: the conservative-PDES bound and its stride.

The shard engine batches barrier rounds up to the minimum spanning-path
RTT (the soonest any cross-plane coupling influence can materialise).
These tests pin the three layers of that claim:

* the arithmetic -- ``derive_lookahead`` matches a brute-force minimum
  and ``epochs_per_sync`` never admits a window past the lookahead
  (property-tested with hypothesis over random propagation delays);
* the knob -- ``PNET_LOOKAHEAD`` parsing, including the ``auto`` and
  ``0`` sentinels;
* the engine -- on randomized two-plane ping workloads, traced barriers
  never drift apart by more than ``stride * epoch`` (no causality
  window is skipped) and batched results stay in the serial envelope.
"""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RunConfig
from repro.core.flowspec import FlowSpec
from repro.shard import derive_lookahead, epochs_per_sync, run_packet_trial
from repro.shard.lookahead import path_rtt, spanning_rtts
from repro.topology.graph import HOST, TOR, Topology
from repro.units import KB


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


def ping_spec(n_planes=2, size=200 * KB):
    """One MPTCP connection spanning every plane (the coupled 'ping')."""
    return FlowSpec(
        src="h0", dst="h1", size=size,
        paths=[(i, ["h0", "s", "h1"]) for i in range(n_planes)],
    )


class TestArithmetic:
    def test_path_rtt_is_twice_one_way_sum(self):
        plane = two_plane_pnet([3e-6])[0]
        assert path_rtt(plane, ["h0", "s", "h1"]) == pytest.approx(12e-6)

    def test_no_spanning_means_infinite_lookahead(self):
        planes = two_plane_pnet([1e-6, 1e-6])
        assert derive_lookahead(planes, [ping_spec()], []) == math.inf

    @given(
        delays=st.lists(
            st.floats(min_value=1e-7, max_value=1e-4),
            min_size=2, max_size=6,
        )
    )
    def test_derive_matches_brute_force(self, delays):
        planes = two_plane_pnet(delays)
        # One spanning connection per adjacent plane pair, plus the
        # all-planes ping: lookahead is the global minimum path RTT.
        specs = [ping_spec(n_planes=len(delays))] + [
            FlowSpec(
                src="h0", dst="h1", size=100 * KB,
                paths=[(i, ["h0", "s", "h1"]), (i + 1, ["h0", "s", "h1"])],
            )
            for i in range(len(delays) - 1)
        ]
        gids = list(range(len(specs)))
        want = min(
            path_rtt(planes[p], path)
            for spec in specs
            for p, path in spec.paths
        )
        assert derive_lookahead(planes, specs, gids) == pytest.approx(want)
        assert min(r for __, r in spanning_rtts(planes, specs, gids)) == (
            pytest.approx(want)
        )

    @given(
        lookahead=st.one_of(
            st.just(math.inf),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        epoch=st.floats(min_value=1e-9, max_value=1e-2),
    )
    def test_stride_never_admits_more_than_the_lookahead(
        self, lookahead, epoch
    ):
        stride = epochs_per_sync(lookahead, epoch)
        assert stride >= 1  # effective window never below the epoch
        if math.isfinite(lookahead):
            # The batched window stays inside the causality bound, up
            # to the epoch staleness the caller already accepted.
            assert stride * epoch <= max(epoch, lookahead) * (1 + 1e-9)

    def test_stride_edge_cases(self):
        assert epochs_per_sync(math.inf, 1e-4) == 1  # nothing couples
        assert epochs_per_sync(0.0, 1e-4) == 1  # batching disabled
        # Binary-exact values so the floor division is not at the mercy
        # of decimal rounding (5e-4 // 1e-4 is 4.0 in floats -- still
        # conservative, so still safe).
        assert epochs_per_sync(5 * 2**-13, 2**-13) == 5
        assert epochs_per_sync(5e-4, 1e-4) in (4, 5)  # conservative floor
        assert epochs_per_sync(5e-4, 0.0) == 1  # serial path anyway
        assert epochs_per_sync(0.99e-4, 1e-4) == 1  # sub-epoch RTT


class TestKnob:
    def test_unset_and_auto_mean_derive(self, monkeypatch):
        monkeypatch.delenv("PNET_LOOKAHEAD", raising=False)
        assert RunConfig.from_env().lookahead is None
        monkeypatch.setenv("PNET_LOOKAHEAD", "auto")
        assert RunConfig.from_env().lookahead is None
        monkeypatch.setenv("PNET_LOOKAHEAD", "")
        assert RunConfig.from_env().lookahead is None

    def test_explicit_values(self, monkeypatch):
        monkeypatch.setenv("PNET_LOOKAHEAD", "2.5e-4")
        assert RunConfig.from_env().lookahead == 2.5e-4
        monkeypatch.setenv("PNET_LOOKAHEAD", "0")
        assert RunConfig.from_env().lookahead == 0.0  # 0 disables batching
        # An argument beats the environment, "auto" included.
        assert RunConfig.from_env(lookahead=3e-4).lookahead == 3e-4
        assert RunConfig.from_env(lookahead="auto").lookahead is None

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("PNET_LOOKAHEAD", "-1e-4")
        with pytest.raises(ValueError, match=">= 0"):
            RunConfig.from_env()
        monkeypatch.setenv("PNET_LOOKAHEAD", "soon")
        with pytest.raises(ValueError, match="PNET_LOOKAHEAD"):
            RunConfig.from_env()
        monkeypatch.delenv("PNET_LOOKAHEAD", raising=False)
        with pytest.raises(ValueError, match=">= 0"):
            RunConfig.from_env(lookahead=-1.0)


def run_ping(planes, spec, *, epoch, lookahead=None, shards=2):
    return run_packet_trial(
        planes, [spec], shards=shards, backend="local",
        epoch=epoch, lookahead=lookahead, trace_barriers=True,
    )


class TestEngineCausality:
    @settings(max_examples=8, deadline=None)
    @given(
        delay=st.floats(min_value=1e-6, max_value=2e-5),
        data=st.data(),
    )
    def test_randomized_ping_no_causality_violation(self, delay, data):
        """Batched barriers never skip past the coupling window, and
        batching never moves the answer outside the serial envelope."""
        delays = [delay, data.draw(
            st.floats(min_value=1e-6, max_value=2e-5)
        )]
        planes = two_plane_pnet(delays)
        spec = ping_spec()
        epoch = min(delays) / 2  # force stride > 1
        result = run_ping(planes, spec, epoch=epoch)

        want_la = 4.0 * min(delays)  # 2 links * 2 (round trip) * min
        assert result.lookahead == pytest.approx(want_la)
        assert result.stride == epochs_per_sync(want_la, epoch)
        assert result.stride >= 2

        # Causality: while coupling is live, consecutive barriers are
        # at most stride*epoch apart -- idle jumps (exact: all coupled
        # workers quiescent) are flagged and exempt.
        trace = result.barriers
        assert trace, "traced run recorded no barriers"
        sync_dt = result.stride * epoch
        for (t0, __), (t1, jumped) in zip(trace, trace[1:]):
            assert t1 > t0  # simulated time advances monotonically
            if not jumped:
                assert t1 - t0 <= sync_dt * (1 + 1e-9)

        serial = run_packet_trial(
            planes, [spec], shards=1, epoch=epoch
        )
        fct_serial = serial.records[0].fct
        fct_sharded = result.records[0].fct
        assert abs(fct_sharded - fct_serial) / fct_serial < 0.5

    def test_batched_and_unbatched_converge_and_are_deterministic(self):
        planes = two_plane_pnet([2e-6, 3e-6])
        spec = ping_spec()
        epoch = 1e-6
        batched = run_ping(planes, spec, epoch=epoch)
        unbatched = run_ping(planes, spec, epoch=epoch, lookahead=0)
        assert batched.stride > 1 and unbatched.stride == 1
        # Batching exchanges strictly fewer digests...
        assert batched.rounds < unbatched.rounds
        # ...and both stay in the serial envelope.
        serial = run_packet_trial(planes, [spec], shards=1, epoch=epoch)
        for result in (batched, unbatched):
            assert abs(
                result.records[0].fct - serial.records[0].fct
            ) / serial.records[0].fct < 0.5
        # Repeat-determinism with batching on.
        again = run_ping(planes, spec, epoch=epoch)
        assert pickle.dumps(again.records) == pickle.dumps(batched.records)
        assert again.barriers == batched.barriers

    def test_plane_local_ping_free_runs_with_zero_rounds(self):
        # No spanning flow -> infinite lookahead -> every worker gets
        # one unbounded run grant and the result is exact.
        planes = two_plane_pnet([2e-6, 2e-6])
        specs = [
            FlowSpec(
                src="h0", dst="h1", size=200 * KB,
                paths=[(i, ["h0", "s", "h1"])],
            )
            for i in range(2)
        ]
        sharded = run_packet_trial(
            planes, specs, shards=2, backend="local", trace_barriers=True
        )
        assert sharded.lookahead == math.inf
        assert sharded.rounds == 0
        serial = run_packet_trial(planes, specs, shards=1)
        assert pickle.dumps(sharded.records) == pickle.dumps(serial.records)
