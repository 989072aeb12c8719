"""Promotion policies: units, parsing, determinism.

The load-bearing property is that :class:`~repro.hybrid.promotion.
Sampled` is a *pure function* of ``(p, seed, flow index)``: each
``decide()`` builds a fresh seeded :class:`~repro.ckpt.rng.RngBundle`
stream keyed by the index, so decisions are idempotent, independent of
call order and process boundaries (``PNET_JOBS``), and survive pickling
(checkpoint resume re-decides identically).
"""

import importlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flowspec import FlowSpec
from repro.hybrid import (
    CrossingFaultedPlane,
    PromoteAll,
    PromoteNone,
    Sampled,
    Tagged,
    parse_policy,
    resolve_policy,
)

PATHS = [(0, ["h0", "s0", "h1"]), (2, ["h0", "s1", "h1"])]


def spec(tag=None, paths=PATHS):
    return FlowSpec(src="h0", dst="h1", size=1000, paths=paths, tag=tag)


class TestPolicies:
    def test_all_none(self):
        assert PromoteAll().decide(spec(), 0)
        assert not PromoteNone().decide(spec(), 0)

    def test_tagged(self):
        assert Tagged().decide(spec(tag="x"), 0)
        assert not Tagged().decide(spec(), 0)
        assert Tagged("probe").decide(spec(tag="probe"), 0)
        assert not Tagged("probe").decide(spec(tag="bulk"), 0)

    def test_sampled_validates_probability(self):
        with pytest.raises(ValueError):
            Sampled(-0.1)
        with pytest.raises(ValueError):
            Sampled(1.1)
        assert not Sampled(0.0).decide(spec(), 5)
        assert Sampled(1.0).decide(spec(), 5)

    def test_crossing_faulted_plane(self):
        policy = CrossingFaultedPlane([2, 7])
        assert policy.decide(spec(), 0)  # paths touch plane 2
        assert not CrossingFaultedPlane([1]).decide(spec(), 0)


class TestParsing:
    def test_terms(self):
        assert isinstance(parse_policy("all"), PromoteAll)
        assert isinstance(parse_policy("none"), PromoteNone)
        assert isinstance(parse_policy("tagged:probe"), Tagged)
        sampled = parse_policy("sampled:0.25:7")
        assert sampled.p == 0.25 and sampled.seed == 7
        bare = parse_policy("0.25")
        assert isinstance(bare, Sampled) and bare.p == 0.25
        faulted = parse_policy("faulted:0,2")
        assert faulted.decide(spec(), 0)
        # Each policy prints the term that builds it.
        for term in (
            "all", "none", "tagged", "tagged:bulk,probe", "sampled:0.25:7",
            "faulted:0,2", "tagged:probe+sampled:0.05:0",
        ):
            assert repr(parse_policy(term)) == term
        assert repr(parse_policy("0.25")) == "sampled:0.25:0"

    def test_or_join(self):
        policy = parse_policy("tagged:probe+sampled:0.0")
        assert policy.decide(spec(tag="probe"), 0)
        assert not policy.decide(spec(), 0)

    @pytest.mark.parametrize(
        "bad", [
            "", "quantum", "sampled", "faulted", "sampled:2.0",
            # More fields than the name takes.
            "sampled:0.1:7:9", "all:5", "none:x",
        ]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match=repr(bad) if bad else None):
            parse_policy(bad)

    def test_resolve(self):
        assert isinstance(resolve_policy(None), PromoteNone)
        assert isinstance(resolve_policy(0.3), Sampled)
        assert isinstance(resolve_policy("all"), PromoteAll)
        policy = Tagged("x")
        assert resolve_policy(policy) is policy
        with pytest.raises(TypeError):
            resolve_policy(object())
        with pytest.raises(TypeError):
            resolve_policy(True)


class TestSampledDeterminism:
    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
        index=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_pure_function_of_p_seed_index(self, p, seed, index):
        policy = Sampled(p, seed=seed)
        first = policy.decide(spec(), index)
        # idempotent: repeat calls agree
        assert policy.decide(spec(), index) == first
        # independent instances agree (no hidden stream position)
        assert Sampled(p, seed=seed).decide(spec(), index) == first
        # pickling (checkpoint resume) re-decides identically
        thawed = pickle.loads(pickle.dumps(policy))
        assert thawed.decide(spec(), index) == first

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        order=st.permutations(list(range(12))),
    )
    @settings(max_examples=25, deadline=None)
    def test_call_order_irrelevant(self, seed, order):
        policy = Sampled(0.5, seed=seed)
        in_order = {i: policy.decide(spec(), i) for i in range(12)}
        shuffled = {i: policy.decide(spec(), i) for i in order}
        assert shuffled == in_order

    def test_seed_changes_sample(self):
        picks = {
            seed: [
                i for i in range(64)
                if Sampled(0.5, seed=seed).decide(spec(), i)
            ]
            for seed in (0, 1)
        }
        assert picks[0] != picks[1]


class TestJobCountDeterminism:
    def test_hybrid_experiment_byte_identical_across_job_counts(
        self, tmp_path, monkeypatch
    ):
        """Promotion decisions must not depend on the worker pool."""
        module = importlib.import_module("repro.exp.hybrid")
        blobs = []
        for jobs in (1, 4):
            monkeypatch.setenv(
                "PNET_CACHE_DIR", str(tmp_path / f"cache-jobs{jobs}")
            )
            monkeypatch.setenv("PNET_JOBS", str(jobs))
            blobs.append(pickle.dumps(module.run(scale="tiny")))
        assert blobs[0] == blobs[1]
