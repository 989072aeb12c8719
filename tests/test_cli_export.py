"""Tests for the CLI and CSV export layer."""

import csv
import dataclasses

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.exp.export import flatten, write_csv
from repro.analysis.stats import summarize


@dataclasses.dataclass
class _Result:
    n_hosts: int
    series: dict
    summary: object


class TestFlatten:
    def test_scalar_field(self):
        rows = flatten(_Result(5, {}, None))
        assert ("n_hosts", 5) in rows

    def test_nested_dict_with_tuple_keys(self):
        result = _Result(1, {("a", 2): {0.5: 7.0}}, None)
        rows = flatten(result)
        assert ("series", "a", 2, 0.5, 7.0) in rows

    def test_summary_expansion(self):
        result = _Result(1, {}, summarize([1.0, 2.0, 3.0]))
        rows = flatten(result)
        assert ("summary", "median", 2.0) in rows
        assert ("summary", "count", 3) in rows

    def test_none_leaf_kept(self):
        rows = flatten(_Result(1, {"x": None}, None))
        assert ("series", "x", None) in rows

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            flatten({"not": "a dataclass"})


class TestWriteCsv:
    def test_rectangular_output(self, tmp_path):
        result = _Result(3, {"a": 1.0, ("b", "c"): 2.0}, None)
        path = tmp_path / "out.csv"
        count = write_csv(path, result)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == count
        widths = {len(r) for r in rows}
        assert len(widths) == 1  # padded rectangular

    def test_header(self, tmp_path):
        path = tmp_path / "h.csv"
        write_csv(path, _Result(1, {}, None), header=["field", "value"])
        with open(path) as handle:
            first = next(csv.reader(handle))
        assert first == ["field", "value"]

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "out.csv"
        write_csv(path, _Result(1, {}, None))
        assert path.exists()


class TestCli:
    def test_registry_complete(self):
        # Every table/figure of the paper plus the extensions.
        for name in ("table1", "fig6", "fig7", "fig8", "fig9", "fig10",
                     "fig11", "fig12", "fig13", "fig14", "appendix",
                     "incast", "ablation", "adaptive"):
            assert name in EXPERIMENTS

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "adaptive" in out

    def test_run_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "3584" in out

    def test_run_with_csv(self, tmp_path, capsys, monkeypatch):
        """``--csv`` writes the result the experiment printed: it runs
        once, and the CSV holds that result's rows."""
        from repro.exp import fig14

        want = tmp_path / "want.csv"
        write_csv(want, fig14.run(scale="tiny"))
        run = fig14.run
        calls = []

        def counted(*args, **kwargs):
            calls.append(args or kwargs)
            return run(*args, **kwargs)

        monkeypatch.setattr(fig14, "run", counted)
        out_dir = tmp_path / "out"
        assert main(["fig14", "--scale", "tiny", "--csv", str(out_dir)]) == 0
        assert len(calls) == 1
        assert (out_dir / "fig14.csv").read_bytes() == want.read_bytes()

    def test_stats_line_only_after_trials_ran(self, capsys):
        """An experiment that runs no trial prints no stats line, not
        the previous experiment's."""
        assert main(["fig14", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "[fig14] 18 trials" in out
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "[table1] done in" in out
        assert "trials" not in out

    def test_scale_flag_applied(self, capsys, monkeypatch):
        monkeypatch.delenv("PNET_SCALE", raising=False)
        assert main(["fig14", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "32 hosts" in out  # tiny preset size


class TestExperimentFlags:
    """Flags that belong to one experiment fail at entry, exit 2."""

    def test_hybrid_flags_refused_elsewhere(self, capsys):
        for flag, value in (("--fidelity", "packet"), ("--promote", "0.5")):
            with pytest.raises(SystemExit) as info:
                main(["table1", flag, value])
            assert info.value.code == 2
            assert "hybrid" in capsys.readouterr().err

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["workloads", "--scenario", "bogus"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--scenario" in err and "PNET_SCENARIO" not in err

    @pytest.mark.parametrize("argv", [
        ["--load", "2"], ["--tenants", "0"],
    ])
    def test_bad_diurnal_shape_fails_before_any_trial(
        self, argv, monkeypatch, capsys
    ):
        import repro.exp.workloads

        def no_trials(specs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(repro.exp.workloads, "run_trials", no_trials)
        with pytest.raises(SystemExit) as info:
            main(["workloads", "--scale", "tiny", *argv])
        assert info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["hybrid", "all"])
    def test_bad_promote_fails_before_any_trial(
        self, experiment, monkeypatch, capsys
    ):
        import repro.exp.hybrid
        import repro.exp.runner

        def no_trials(specs, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(repro.exp.hybrid, "run_trials", no_trials)
        monkeypatch.setattr(repro.exp.runner, "run_trials", no_trials)
        with pytest.raises(SystemExit) as info:
            main([experiment, "--scale", "tiny", "--promote", "bogus"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--promote" in err and "Traceback" not in err
        with pytest.raises(ValueError, match="bogus"):
            repro.exp.hybrid.run("tiny", promote="bogus")

    def test_workloads_run_takes_its_knobs_as_arguments(self):
        from repro.exp import workloads
        from repro.workloads import WorkloadError

        with pytest.raises(ValueError, match="scenario"):
            workloads.run("tiny", scenario="bogus")
        with pytest.raises(ValueError, match="engine"):
            workloads.run("tiny", engine="bogus")
        with pytest.raises(WorkloadError, match="load"):
            workloads.run("tiny", load=2.0)


class TestExportRealResults:
    def test_fig14_roundtrip(self, tmp_path):
        from repro.exp import fig14

        result = fig14.run(scale="tiny")
        path = tmp_path / "fig14.csv"
        count = write_csv(path, result)
        assert count > 5
        text = path.read_text()
        assert "serial-low" in text
        assert "hop_counts" in text

    def test_incast_summaries_flatten(self, tmp_path):
        from repro.exp import incast

        result = incast.run(scale="tiny")
        rows = flatten(result)
        # Summary objects expand into named statistics.
        assert any("median" in row for row in rows)
        assert any("serial-low" in row for row in rows)
