"""Tests for the process-pool experiment runner."""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.config import ConfigError, RunConfig
from repro.exp import runner
from repro.exp.runner import TrialSpec, last_stats, resolve_fn, run_trials


def echo_trial(value):
    """Module-level so worker processes can resolve it by name."""
    return value * value


def failing_trial():
    raise RuntimeError("boom")


def control_trial(value):
    """The control policy ``run_trial(control=None)`` would attach here."""
    from repro.config import current

    return value, current().control_policy


#: A trial that must never run: a bad knob fails before it.
_FAILING = [TrialSpec(fn="tests.test_runner:failing_trial", key=("f",))]


class TestGetJobs:
    """``run_trials`` resolves its worker count once, at entry."""

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("PNET_JOBS", raising=False)
        run_trials(_specs([1]))
        assert last_stats().jobs == 1

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("PNET_JOBS", "6")
        run_trials(_specs([1]))
        assert last_stats().jobs == 6

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("PNET_JOBS", "6")
        run_trials(_specs([1]), jobs=2)
        assert last_stats().jobs == 2

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("PNET_JOBS", "many")
        with pytest.raises(ConfigError, match="PNET_JOBS"):
            run_trials(_FAILING)

    def test_zero_rejected(self):
        with pytest.raises(ConfigError, match="jobs"):
            run_trials(_FAILING, jobs=0)


class TestResolveFn:
    def test_resolves(self):
        assert resolve_fn("tests.test_runner:echo_trial") is echo_trial

    @pytest.mark.parametrize(
        "ref", ["tests.test_runner", "tests.test_runner:missing", "no-colon"]
    )
    def test_bad_refs(self, ref):
        with pytest.raises(ValueError):
            resolve_fn(ref)


def _specs(values):
    return [
        TrialSpec(
            fn="tests.test_runner:echo_trial",
            key=(v,),
            kwargs={"value": v},
        )
        for v in values
    ]


class TestRunTrials:
    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_trials(_specs([1, 1]))

    def test_merge_is_spec_order_not_completion_order(self, monkeypatch):
        values = [9, 2, 7, 1, 5]
        for jobs in (1, 4):
            out = run_trials(_specs(values), jobs=jobs)
            assert list(out) == [(v,) for v in values]
            assert out == {(v,): v * v for v in values}

    def test_serial_and_parallel_agree(self):
        assert run_trials(_specs([3, 4]), jobs=1) == run_trials(
            _specs([3, 4]), jobs=4
        )

    def test_whole_trial_cache_hit_on_rerun(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path))
        specs = _specs([10, 11, 12])
        run_trials(specs, jobs=1)
        assert last_stats().trial_cache_hits == 0
        out = run_trials(specs, jobs=1)
        assert last_stats().trial_cache_hits == 3
        assert out == {(v,): v * v for v in (10, 11, 12)}

    def test_cache_disabled_never_hits(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("PNET_CACHE", "0")
        specs = _specs([20, 21])
        run_trials(specs, jobs=1)
        run_trials(specs, jobs=1)
        assert last_stats().trial_cache_hits == 0

    def test_trial_exception_propagates(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path))
        specs = [
            TrialSpec(fn="tests.test_runner:failing_trial", key=("f",))
        ]
        with pytest.raises(RuntimeError, match="boom"):
            run_trials(specs, jobs=1)

    def test_stats_recorded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path))
        run_trials(_specs([30, 31]), jobs=2)
        stats = last_stats()
        assert stats.n_trials == 2
        assert stats.jobs == 2
        assert stats.wall_seconds >= 0.0
        assert "2 trials" in stats.summary()


#: Every knob the control-key tests touch; each test starts without them.
_CONTROL_KNOBS = (
    "PNET_CONTROL_POLICY", "PNET_CONTROL_INTERVAL",
    "PNET_CONTROL_HYSTERESIS", "PNET_CONTROL_COOLDOWN",
    "PNET_JOBS", "PNET_SHARD_BACKEND",
)


def _control_specs(values):
    return [
        TrialSpec(
            fn="tests.test_runner:control_trial", key=(v,),
            kwargs={"value": v},
        )
        for v in values
    ]


class TestControlKnobsKeyTheCache:
    """``PNET_CONTROL_*`` knobs change results inside trial functions,
    so a warm cache must not answer for a different setting."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path))
        for name in _CONTROL_KNOBS:
            monkeypatch.delenv(name, raising=False)

    def test_policy_misses_a_warm_cache_and_off_hits(self, monkeypatch):
        specs = _control_specs([1, 2])
        assert run_trials(specs) == {(1,): (1, None), (2,): (2, None)}
        monkeypatch.setenv("PNET_CONTROL_POLICY", "load-aware")
        assert run_trials(specs)[(1,)] == (1, "load-aware")
        assert last_stats().trial_cache_hits == 0
        # "off" is the unset key: the first run's entries answer.
        monkeypatch.setenv("PNET_CONTROL_POLICY", "off")
        assert run_trials(specs)[(1,)] == (1, None)
        assert last_stats().trial_cache_hits == 2

    @pytest.mark.parametrize("name,value", [
        ("PNET_CONTROL_INTERVAL", "1e-5"),
        ("PNET_CONTROL_HYSTERESIS", "1.5"),
        ("PNET_CONTROL_COOLDOWN", "0.001"),
    ])
    def test_each_set_knob_is_stamped(self, monkeypatch, name, value):
        spec = _control_specs([1])[0]
        unset = runner._trial_cache_key(spec, RunConfig.from_env())
        monkeypatch.setenv(name, value)
        assert runner._trial_cache_key(spec, RunConfig.from_env()) == (
            unset + ((name, float(value)),)
        )
        monkeypatch.setenv(name, "-1")
        with pytest.raises(ValueError):
            RunConfig.from_env()

    def test_unknown_policy_fails_before_any_trial(self, monkeypatch):
        warm = _control_specs([1])
        run_trials(warm)
        monkeypatch.setenv("PNET_CONTROL_POLICY", "bogus")
        # Warm: the cache must not answer.  Cold: the trial, which
        # would raise RuntimeError, must not run.
        for specs in (warm, _FAILING):
            with pytest.raises(ValueError, match="unknown control policy"):
                run_trials(specs)

    def test_jobs_and_shard_backend_hit(self, monkeypatch):
        specs = _control_specs([1, 2])
        run_trials(specs)
        monkeypatch.setenv("PNET_JOBS", "2")
        run_trials(specs)
        assert last_stats().trial_cache_hits == 2
        monkeypatch.setenv("PNET_SHARD_BACKEND", "local")
        run_trials(specs)
        assert last_stats().trial_cache_hits == 2

    def test_cli_rejects_an_unknown_policy(self):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["fig9", "--scale", "tiny", "--control", "bogus"])
        assert exit_info.value.code == 2


def _copy_package(tmp_path) -> pathlib.Path:
    """A private copy of the ``repro`` source tree; returns its root."""
    root = tmp_path / "src" / "repro"
    shutil.copytree(
        runner._PACKAGE_ROOT, root,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


#: Runs fig7's serial trial through the runner and prints its value and
#: whether the whole-trial cache served it.
_FIG7_TRIAL = (
    "from repro.exp.runner import TrialSpec, last_stats, run_trials\n"
    "spec = TrialSpec(fn='repro.exp.fig7:base_trial', key=('base',),"
    " kwargs=dict(racks=6, degree=3, seed=0))\n"
    "value = run_trials([spec], jobs=1)[('base',)]\n"
    "print(repr(value), last_stats().trial_cache_hits)\n"
)


class TestCodeHash:
    """Trial cache keys cover every module a trial can run."""

    def test_edit_to_a_dependency_misses_the_warm_cache(self, tmp_path):
        """The warm-cache drill: edit ``lp/ideal.py`` -- not the trial's
        own module ``exp/fig7.py`` -- and the cached figure must die."""
        root = _copy_package(tmp_path)
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("PNET_")
        }
        env.update(
            PYTHONPATH=str(root.parent),
            PNET_CACHE_DIR=str(tmp_path / "cache"),
        )

        def trial():
            out = subprocess.run(
                [sys.executable, "-c", _FIG7_TRIAL], env=env,
                cwd=tmp_path, capture_output=True, text=True, timeout=120,
            )
            assert out.returncode == 0, out.stderr
            value, hits = out.stdout.split()
            return float(value), int(hits)

        cold, hits = trial()
        assert hits == 0
        assert trial() == (cold, 1)
        with open(root / "lp" / "ideal.py", "a") as module:
            module.write(
                "\n_ideal_throughput = ideal_throughput\n\n\n"
                "def ideal_throughput(topo, demands):\n"
                "    return 2 * _ideal_throughput(topo, demands)\n"
            )
        assert trial() == (2 * cold, 0)

    def test_any_module_edit_changes_the_hash(self, tmp_path):
        root = _copy_package(tmp_path)
        tree_hash = runner._source_tree_hash.__wrapped__
        base = tree_hash(root)
        assert base == runner._source_tree_hash(runner._PACKAGE_ROOT)
        modules = sorted(root.rglob("*.py"))
        assert len(modules) > 100
        for path in modules:
            source = path.read_bytes()
            path.write_bytes(source + b"\n")
            assert tree_hash(root) != base, path
            path.write_bytes(source)
        assert tree_hash(root) == base
        # A module's path is part of what is hashed.
        (root / "lp" / "ideal.py").rename(root / "lp" / "ideal2.py")
        assert tree_hash(root) != base

    def test_package_trials_share_one_hash(self):
        package = runner._source_tree_hash(runner._PACKAGE_ROOT)
        assert runner._code_hash("repro.exp.fig7") == package
        assert runner._code_hash("repro.exp.fig9") == package

    def test_trial_module_outside_the_package_is_hashed(
        self, tmp_path, monkeypatch
    ):
        module = tmp_path / "outside_trials.py"
        module.write_text("def trial():\n    return 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        code_hash = runner._code_hash.__wrapped__
        try:
            before = code_hash("outside_trials")
            assert before != runner._code_hash("repro.exp.fig7")
            module.write_text("def trial():\n    return 2\n")
            assert code_hash("outside_trials") != before
        finally:
            sys.modules.pop("outside_trials", None)
