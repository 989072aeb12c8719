"""Tests for the incast and ablation extension experiments (tiny scale)."""

import pytest

from repro.exp import ablation, incast
from repro.exp.common import (
    PARALLEL_HOMOGENEOUS,
    SERIAL_HIGH,
    SERIAL_LOW,
)


class TestIncast:
    @pytest.fixture(scope="class")
    def result(self):
        return incast.run(scale="tiny")

    def test_all_grid_points_present(self, result):
        labels = {label for label, __ in result.stats}
        assert SERIAL_LOW in labels and PARALLEL_HOMOGENEOUS in labels

    def test_serial_low_suffers_most(self, result):
        top = max(f for __, f in result.stats)
        serial = result.stats[(SERIAL_LOW, top)]
        homo = result.stats[(PARALLEL_HOMOGENEOUS, top)]
        assert homo.maximum <= serial.maximum

    def test_losses_nonnegative_and_attributed(self, result):
        for (label, fan_in), (drops, retx) in result.losses.items():
            assert drops >= 0 and retx >= 0

    def test_fct_grows_with_fan_in(self, result):
        fans = sorted({f for __, f in result.stats})
        lo, hi = fans[0], fans[-1]
        for label in (SERIAL_LOW, SERIAL_HIGH):
            assert (
                result.stats[(label, hi)].median
                >= result.stats[(label, lo)].median * 0.9
            )


class TestAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation.run(scale="tiny")

    def test_pooling_is_load_bearing(self, result):
        paper = result.throughput["pooled-randomised (paper)"]
        pinned = result.throughput["pinned-plane"]
        assert paper >= 0.95 * result.n_planes
        assert pinned <= 1.05
        assert paper > 1.5 * pinned

    def test_randomised_ties_beat_lexicographic(self, result):
        rand = next(
            v for k, v in result.throughput.items()
            if k.startswith("randomised-ties")
        )
        lex = next(
            v for k, v in result.throughput.items()
            if k.startswith("lexicographic-ties")
        )
        assert rand > lex

    def test_objectives_agree_at_saturation(self, result):
        # With K large enough to saturate, fairness costs nothing.
        total = result.throughput["pooled-randomised (paper)"]
        fair = result.throughput["concurrent-objective"]
        assert fair == pytest.approx(total, rel=0.05)

    def test_pinned_policy_uses_single_plane_per_flow(self):
        from repro.exp.ablation import PinnedPlaneKspPolicy
        from repro.exp.common import FatTreeFamily

        pnet = FatTreeFamily(4).parallel(2)
        policy = PinnedPlaneKspPolicy(pnet, k=4)
        for flow_id in range(4):
            planes = {p for p, __ in policy.select("h0", "h15", flow_id)}
            assert planes == {flow_id % 2}


class TestAdaptiveRoutingExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.exp import adaptive_routing

        return adaptive_routing.run(scale="tiny")

    def test_all_variants_present(self, result):
        assert set(result.mean_fct) == {
            "static-ecmp", "ecmp+adaptive", "mptcp-ksp"
        }

    def test_adaptation_never_hurts(self, result):
        assert (
            result.mean_fct["ecmp+adaptive"]
            <= result.mean_fct["static-ecmp"] * 1.02
        )

    def test_mptcp_is_best(self, result):
        assert (
            result.mean_fct["mptcp-ksp"]
            <= result.mean_fct["ecmp+adaptive"]
        )

    def test_speedup_helper(self, result):
        assert result.speedup("static-ecmp") == pytest.approx(1.0)
        assert result.speedup("mptcp-ksp") >= 1.0


class TestControlExperiment:
    def test_outage_arm_completes_at_small_scale(self):
        # Controller and fault injector share the experiment's PNet.
        # With a private copy, load-aware kept cached pre-outage paths
        # and steered a subflow onto the dead plane.
        from repro.exp import control

        result = control.run(scale="small")
        assert result.stats["load-aware+outage"]["applied"] > 0
        assert result.mean_fct["load-aware+outage"] > 0


class TestExpanderFamilies:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.exp import expander_families

        return expander_families.run(scale="tiny")

    def test_both_families_measured(self, result):
        assert set(result.hop_count) == {"jellyfish", "xpander"}

    def test_heterogeneity_benefit_family_agnostic(self, result):
        for name in ("jellyfish", "xpander"):
            assert result.throughput_ratio[name] > 1.0

    def test_hop_counts_short(self, result):
        # Expanders at this size: average best path well under 4 switches.
        for value in result.hop_count.values():
            assert 1.0 < value < 4.0

    def test_failure_resilience(self, result):
        for value in result.hop_inflation.values():
            assert 0.0 <= value < 0.5


class TestQueueSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.exp import queue_sensitivity

        return queue_sensitivity.run(scale="tiny")

    def test_grid_complete(self, result):
        labels = {l for l, __ in result.stats}
        depths = {d for __, d in result.stats}
        assert SERIAL_LOW in labels and len(depths) >= 2

    def test_serial_low_worst_at_every_depth(self, result):
        depths = sorted({d for __, d in result.stats})
        for depth in depths:
            serial = result.stats[(SERIAL_LOW, depth)].median
            homo = result.stats[(PARALLEL_HOMOGENEOUS, depth)].median
            assert serial > homo

    def test_deeper_buffers_reduce_drops(self, result):
        depths = sorted({d for __, d in result.stats})
        lo, hi = depths[0], depths[-1]
        for label in (SERIAL_LOW, PARALLEL_HOMOGENEOUS):
            assert (
                result.losses[(label, hi)][0]
                <= result.losses[(label, lo)][0]
            )
