"""Integration tests: every experiment reproduces its paper shape (tiny).

These run each exp module at the "tiny" scale and assert the *qualitative*
claims of the corresponding table/figure -- who wins, in which direction,
with sensible magnitudes -- not exact numbers.
"""

import pytest

from repro.exp import fig6, fig7, fig9, fig10, fig11, fig12, fig13, fig14, table1
from repro.exp.common import (
    PARALLEL_HETEROGENEOUS,
    PARALLEL_HOMOGENEOUS,
    SERIAL_HIGH,
    SERIAL_LOW,
)
from repro.units import GB, KB


class TestTable1:
    def test_exact_match_with_paper(self):
        assert all(table1.verify_against_paper().values())

    def test_custom_scale_consistency(self):
        rows = table1.run(n_hosts=8192, chip_radix=16, n_planes=2)
        serial, chassis, parallel = rows
        assert parallel.chips <= serial.chips
        assert parallel.hops < serial.hops


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run(scale="tiny")

    def test_all_to_all_scales_with_planes(self, result):
        """6a: dense traffic saturates added planes (within 25%)."""
        for n, value in result.ecmp_all_to_all.items():
            assert value >= 0.75 * n
            assert value <= n * 1.01

    def test_permutation_barely_improves(self, result):
        """6b: sparse traffic under ECMP wastes parallel capacity."""
        planes = sorted(result.ecmp_permutation)
        top = planes[-1]
        assert result.ecmp_permutation[top] < 0.5 * top

    def test_multipath_recovers_capacity(self, result):
        """6c: enough subflows saturate every P-Net."""
        for n, series in result.multipath.items():
            assert max(series.values()) >= 0.95 * n

    def test_saturation_k_grows_with_planes(self, result):
        ks = [result.saturation_k[n] for n in sorted(result.saturation_k)]
        assert all(k is not None for k in ks)
        assert ks == sorted(ks)
        assert ks[-1] > ks[0]

    def test_throughput_monotone_in_k(self, result):
        for series in result.multipath.values():
            values = [series[k] for k in sorted(series)]
            assert all(
                b >= a - 1e-6 for a, b in zip(values, values[1:])
            )


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run(scale="tiny")

    def test_heterogeneous_beats_serial_high(self, result):
        for n in result.heterogeneous:
            if n == 1:
                continue
            assert result.heterogeneous[n] > result.serial_high[n]

    def test_advantage_bounded(self, result):
        """Paper: 'up to 60% higher'; allow a wide but sane band."""
        for n in result.heterogeneous:
            if n == 1:
                continue
            ratio = result.heterogeneous[n] / result.serial_high[n]
            assert 1.0 < ratio < 2.0

    def test_homogeneous_is_exactly_linear(self, result):
        assert result.homogeneous_check == pytest.approx(2.0, rel=1e-9)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9.run(scale="tiny")

    def test_parallel_beats_serial_low_everywhere(self, result):
        base = result.mean_fct[SERIAL_LOW]
        for label in (PARALLEL_HOMOGENEOUS, PARALLEL_HETEROGENEOUS):
            for size, fct in result.mean_fct[label].items():
                assert fct < base[size]

    def test_small_flows_beat_serial_high(self, result):
        """The paper's surprise: slow start across planes wins small."""
        small = 100 * KB
        high = result.mean_fct[SERIAL_HIGH][small]
        assert result.mean_fct[PARALLEL_HOMOGENEOUS][small] < high

    def test_bulk_flows_near_serial_high(self, result):
        bulk = 1 * GB
        high = result.mean_fct[SERIAL_HIGH][bulk]
        homo = result.mean_fct[PARALLEL_HOMOGENEOUS][bulk]
        assert homo < 2.0 * high


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run(scale="tiny")

    def test_heterogeneous_wins_median(self, result):
        table2 = result.table2()
        assert table2[PARALLEL_HETEROGENEOUS]["median"] < 0.95
        assert table2[PARALLEL_HETEROGENEOUS]["median"] < table2[SERIAL_HIGH]["median"]

    def test_homogeneous_matches_serial_low(self, result):
        table2 = result.table2()
        assert table2[PARALLEL_HOMOGENEOUS]["median"] == pytest.approx(1.0, abs=0.05)

    def test_serial_high_gains_only_serialisation(self, result):
        table2 = result.table2()
        assert 0.9 < table2[SERIAL_HIGH]["median"] <= 1.0


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11.run(scale="tiny")

    def test_serial_low_degrades_most_at_tail(self, result):
        concs = sorted({c for __, c in result.stats})
        top = concs[-1]
        serial_p99 = result.stats[(SERIAL_LOW, top)].p99
        homo_p99 = result.stats[(PARALLEL_HOMOGENEOUS, top)].p99
        assert serial_p99 > homo_p99

    def test_parallel_has_fewer_retransmits(self, result):
        concs = sorted({c for __, c in result.stats})
        top = concs[-1]
        assert (
            result.retransmits[(PARALLEL_HOMOGENEOUS, top)]
            <= result.retransmits[(SERIAL_LOW, top)]
        )

    def test_completion_grows_with_concurrency(self, result):
        concs = sorted({c for __, c in result.stats})
        lo, hi = concs[0], concs[-1]
        assert (
            result.stats[(SERIAL_LOW, hi)].median
            >= result.stats[(SERIAL_LOW, lo)].median
        )


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12.run(scale="tiny")

    def test_all_stages_present(self, result):
        for stages in result.worker_times.values():
            assert set(stages) == {"read_input", "shuffle", "write_output"}

    def test_parallel_beats_serial_low_per_stage(self, result):
        for stage in ("read_input", "shuffle", "write_output"):
            serial = result.worker_times[SERIAL_LOW][stage]
            homo = result.worker_times[PARALLEL_HOMOGENEOUS][stage]
            assert max(homo) < max(serial)

    def test_serial_high_is_fastest(self, result):
        for stage in ("read_input", "shuffle", "write_output"):
            high = max(result.worker_times[SERIAL_HIGH][stage])
            for label in (SERIAL_LOW, PARALLEL_HOMOGENEOUS):
                assert high <= max(result.worker_times[label][stage]) + 1e-9


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13.run(scale="tiny")

    def test_all_chains_complete(self, result):
        for nets in result.fcts.values():
            counts = {label: len(v) for label, v in nets.items()}
            assert len(set(counts.values())) == 1  # same budget everywhere

    def test_parallel_beats_serial_low_median(self, result):
        from repro.analysis.stats import percentile

        for trace, nets in result.fcts.items():
            serial = percentile(nets[SERIAL_LOW], 50)
            hetero = percentile(nets[PARALLEL_HETEROGENEOUS], 50)
            assert hetero <= serial * 1.05

    def test_cdf_points_exported(self):
        cdfs = fig13.flow_size_cdfs()
        assert set(cdfs) == {
            "websearch", "datamining", "webserver", "cache", "hadoop"
        }


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14.run(scale="tiny")

    def test_serial_inflates_most(self, result):
        serial = result.relative_increase(SERIAL_LOW)
        homo = result.relative_increase(PARALLEL_HOMOGENEOUS)
        assert serial > 0.10
        assert homo < 0.10
        assert serial > homo

    def test_heterogeneous_always_lowest_hop_count(self, result):
        fractions = sorted(result.hop_counts[SERIAL_LOW])
        for fraction in fractions:
            hetero = result.hop_counts[PARALLEL_HETEROGENEOUS][fraction]
            for other in (SERIAL_LOW, PARALLEL_HOMOGENEOUS):
                assert hetero <= result.hop_counts[other][fraction]

    def test_hop_count_monotone_under_failures(self, result):
        for series in result.hop_counts.values():
            fractions = sorted(series)
            values = [series[f] for f in fractions]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestFig9PacketValidation:
    def test_simulators_agree_on_small_flow_ordering(self):
        """Fluid and packet simulators agree: small flows favour P-Nets."""
        means = fig9.packet_sim_validation(scale="tiny")
        assert means[PARALLEL_HOMOGENEOUS] < means[SERIAL_LOW]
        assert means[PARALLEL_HOMOGENEOUS] < means[SERIAL_HIGH]
        assert means[PARALLEL_HETEROGENEOUS] < means[SERIAL_HIGH]
