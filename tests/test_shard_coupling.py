"""Epoch-coupling properties: staleness is bounded and converges.

The shard engine's contract for spanning MPTCP connections is that the
epoch length is a *tunable staleness bound*:

* ``epoch = 0`` (or one shard) is byte-identical to the serial
  simulator -- the exact endpoint of the convergence;
* at the default epoch, per-flow FCT deviation from serial stays
  within a documented bound (loose for bulk flows whose placement is
  committed during slow-start overshoot, tight for small flows);
* shrinking the epoch moves the mean deviation *toward* serial.

The arithmetic underneath -- integer largest-remainder pool splits and
the LIA digest terms -- is pinned with hypothesis properties: splits
conserve bytes exactly and deterministically, and a digest computed
remotely reproduces the serial source's coupling terms.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import (
    JellyfishFamily,
    PARALLEL_HOMOGENEOUS,
    network_for_label,
)
from repro.shard import DEFAULT_EPOCH, run_packet_trial
from repro.shard.coupling import (
    largest_remainder,
    lia_terms,
    split_bytes,
)
from repro.sim.mptcp import _DEFAULT_RTT
from repro.traffic.patterns import permutation
from repro.units import KB, MB

#: Coarse -> fine epoch ladder for the convergence property.
EPOCHS = (1e-3, 1e-4, 1e-5)

#: Documented staleness bound at DEFAULT_EPOCH on bulk spanning flows:
#: byte placement is committed while slow start overshoots the pool
#: (pulled bytes never move back), so individual FCTs can deviate up to
#: ~30% while the mean stays within a few percent.  Measured on the
#: fixture workload: max 27%, mean 3.4% (2 shards).
BULK_MAX_BOUND = 0.40
BULK_MEAN_BOUND = 0.10
#: Small flows finish inside the first window ramp where placement is
#: near-symmetric; measured max deviation is ~1.5% (2 shards) / ~3.5%
#: (4 shards).
SMALL_MAX_BOUND = 0.08


def _workload(n_flows: int, size: int):
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


def _deviations(fcts, base):
    return [abs(fct - b) / b for fct, b in zip(fcts, base)]


@pytest.fixture(scope="module")
def bulk_sweep():
    """Serial FCTs plus the 2-shard epoch ladder on bulk flows."""
    pnet, specs = _workload(n_flows=8, size=5 * MB)
    serial = run_packet_trial(pnet.planes, specs, shards=1)
    sharded = {
        epoch: run_packet_trial(
            pnet.planes, specs, shards=2, epoch=epoch, backend="local"
        )
        for epoch in EPOCHS
    }
    return pnet, specs, serial, sharded


class TestEpochConvergence:
    def test_mean_deviation_shrinks_with_epoch(self, bulk_sweep):
        __, __, serial, sharded = bulk_sweep
        means = [
            sum(_deviations(sharded[e].fcts, serial.fcts)) / len(serial.fcts)
            for e in EPOCHS
        ]
        # Coarse -> fine must not drift away from serial, and the finest
        # epoch must be strictly closer than the coarsest.
        for coarse, fine in zip(means, means[1:]):
            assert fine <= coarse * 1.05
        assert means[-1] < means[0]

    def test_bulk_bound_at_default_epoch(self, bulk_sweep):
        pnet, specs, serial, sharded = bulk_sweep
        assert DEFAULT_EPOCH in EPOCHS
        devs = _deviations(sharded[DEFAULT_EPOCH].fcts, serial.fcts)
        assert max(devs) <= BULK_MAX_BOUND
        assert sum(devs) / len(devs) <= BULK_MEAN_BOUND

    def test_small_flows_tight_at_default_epoch(self):
        pnet, specs = _workload(n_flows=24, size=200 * KB)
        serial = run_packet_trial(pnet.planes, specs, shards=1)
        for shards in (2, 4):
            result = run_packet_trial(
                pnet.planes, specs, shards=shards, epoch=DEFAULT_EPOCH,
                backend="local",
            )
            devs = _deviations(result.fcts, serial.fcts)
            assert max(devs) <= SMALL_MAX_BOUND, (shards, max(devs))


class TestLargestRemainder:
    @settings(max_examples=200, deadline=None)
    @given(
        total=st.integers(min_value=0, max_value=10**9),
        weights=st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=1, max_size=8,
        ),
    )
    def test_conserves_total(self, total, weights):
        shares = largest_remainder(total, weights)
        assert sum(shares) == total
        assert all(share >= 0 for share in shares)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=1, max_size=8,
        ).filter(lambda ws: sum(ws) > 0),
        data=st.data(),
    )
    def test_never_exceeds_weight_when_scarce(self, weights, data):
        total = data.draw(
            st.integers(min_value=0, max_value=sum(weights))
        )
        shares = largest_remainder(total, weights)
        assert all(s <= w for s, w in zip(shares, weights))

    @settings(max_examples=100, deadline=None)
    @given(
        total=st.integers(min_value=0, max_value=10**6),
        weights=st.lists(
            st.integers(min_value=0, max_value=1000),
            min_size=1, max_size=6,
        ),
    )
    def test_deterministic(self, total, weights):
        assert largest_remainder(total, weights) == largest_remainder(
            total, list(weights)
        )

    def test_zero_weights_split_evenly(self):
        assert largest_remainder(10, [0, 0, 0, 0]) == [3, 3, 2, 2]

    def test_ties_break_to_lowest_index(self):
        assert largest_remainder(1, [1, 1]) == [1, 0]

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            largest_remainder(5, [2, -1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            largest_remainder(5, [])

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(min_value=0, max_value=10**8),
        counts=st.lists(
            st.integers(min_value=1, max_value=4), min_size=2, max_size=4
        ),
    )
    def test_split_bytes_conserves(self, size, counts):
        split = split_bytes(size, counts)
        assert sum(split) == size
        assert len(split) == len(counts)


class TestLiaTerms:
    @settings(max_examples=100, deadline=None)
    @given(
        subflows=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e7),
                st.one_of(
                    st.none(),
                    st.floats(min_value=1e-6, max_value=1.0),
                ),
            ),
            min_size=1, max_size=6,
        )
    )
    def test_matches_serial_arithmetic(self, subflows):
        """Digest terms == the serial source's accumulation, exactly."""
        total, max_term, sum_term = lia_terms(subflows)
        want_total = 0.0
        want_max = 0.0
        want_sum = 0.0
        for cwnd, srtt in subflows:
            rtt = srtt or _DEFAULT_RTT
            want_total += cwnd
            want_max = max(want_max, cwnd / rtt ** 2)
            want_sum += cwnd / rtt
        assert total == want_total
        assert max_term == want_max
        assert sum_term == want_sum
