"""Tests for the process-pool experiment runner."""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.config import ConfigError
from repro.exp import cache, runner
from repro.exp.runner import TrialSpec, last_stats, resolve_fn, run_trials


def echo_trial(value):
    """Module-level so worker processes can resolve it by name."""
    return value * value


def failing_trial():
    raise RuntimeError("boom")


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


class TestNoKnobKeysTheCache:
    """No run-wide knob changes what a trial returns, so none keys the
    trial cache, and a removed control knob fails before a warm cache
    can answer."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path))
        for name in ("PNET_JOBS", "PNET_SHARD_TIMEOUT"):
            monkeypatch.delenv(name, raising=False)

    def test_control_knob_fails_before_a_warm_cache_answers(
        self, monkeypatch
    ):
        warm = _specs([1])
        run_trials(warm)
        monkeypatch.setenv("PNET_CONTROL_POLICY", "load-aware")
        # Warm: the cache must not answer.  Cold: the trial, which
        # would raise RuntimeError, must not run.
        for specs in (warm, _FAILING):
            with pytest.raises(ConfigError, match="control="):
                run_trials(specs)

    def test_jobs_and_shard_timeout_hit(self, monkeypatch):
        specs = _specs([1, 2])
        run_trials(specs)
        monkeypatch.setenv("PNET_JOBS", "2")
        run_trials(specs)
        assert last_stats().trial_cache_hits == 2
        monkeypatch.setenv("PNET_SHARD_TIMEOUT", "5")
        run_trials(specs)
        assert last_stats().trial_cache_hits == 2


def _copy_package(tmp_path) -> pathlib.Path:
    """A private copy of the ``repro`` source tree; returns its root."""
    root = tmp_path / "src" / "repro"
    shutil.copytree(
        cache._PACKAGE_ROOT, root,
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

#: Solves one tiny fat-tree permutation's routed LP outside the runner
#: and prints its total and the artifact-cache hits it took.
_ROUTED_TOTAL = (
    "import random\n"
    "from repro.core.path_selection import EcmpPolicy\n"
    "from repro.exp.cache import get_cache\n"
    "from repro.exp.common import FatTreeFamily\n"
    "from repro.exp.throughput import routed_total_throughput\n"
    "from repro.traffic.patterns import permutation\n"
    "family = FatTreeFamily(4)\n"
    "pnet = family.parallel(2)\n"
    "pairs = permutation(family.serial_low().hosts, random.Random(0))\n"
    "total = routed_total_throughput(pnet, pairs, EcmpPolicy(pnet, salt=0))\n"
    "print(repr(total), get_cache().hits)\n"
)


def _run_in_copy(root: pathlib.Path, tmp_path, script: str):
    """Run ``script`` on the package copy at ``root`` with one cache
    under ``tmp_path``; returns the (value, hits) it prints."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("PNET_")
    }
    env.update(
        PYTHONPATH=str(root.parent),
        PNET_CACHE_DIR=str(tmp_path / "cache"),
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env,
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    value, hits = out.stdout.split()
    return float(value), int(hits)


class TestCodeHash:
    """Cache keys cover every module a trial can run."""

    def test_edit_to_a_dependency_misses_the_warm_cache(self, tmp_path):
        """The warm-cache drill: edit ``lp/ideal.py`` -- not the trial's
        own module ``exp/fig7.py`` -- and the cached figure must die."""
        root = _copy_package(tmp_path)

        def trial():
            return _run_in_copy(root, tmp_path, _FIG7_TRIAL)

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

    def test_edit_to_the_lp_misses_route_and_lp_entries(self, tmp_path):
        """Route sets and LP solutions are cached outside any trial: an
        edit to ``lp/mcf.py`` must miss them, not hand back the old
        code's answer."""
        root = _copy_package(tmp_path)

        def solve():
            return _run_in_copy(root, tmp_path, _ROUTED_TOTAL)

        cold, hits = solve()
        assert hits == 0
        assert solve() == (cold, 2)  # the route set and the LP
        with open(root / "lp" / "mcf.py", "a") as module:
            module.write(
                "\nimport dataclasses as _dc\n\n"
                "_max_concurrent_flow = max_concurrent_flow\n\n\n"
                "def max_concurrent_flow(*args, **kwargs):\n"
                "    result = _max_concurrent_flow(*args, **kwargs)\n"
                "    total = result.total_throughput + 1e11\n"
                "    return _dc.replace(result, total_throughput=total)\n"
            )
        assert solve() == (cold + 1e11, 0)

    def test_any_module_edit_changes_the_hash(self, tmp_path):
        root = _copy_package(tmp_path)
        tree_hash = cache._source_tree_hash.__wrapped__
        base = tree_hash(root)
        assert base == cache._source_tree_hash(cache._PACKAGE_ROOT)
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
        # The package hash keys every cache entry; a package trial's key
        # adds nothing of its own.
        assert runner._code_hash("repro.exp.fig7") == ""
        assert runner._code_hash("repro.exp.fig9") == ""

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
