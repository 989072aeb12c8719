"""Sweep-level checkpoint/resume in the experiment runner.

A preemptible sweep writes crash-consistent progress containers every N
completed trials; a resumed sweep must (a) skip exactly the trials a
prior -- possibly SIGKILLed -- run already finished, (b) return values
identical to an uninterrupted sweep, and (c) key progress by *content*
(spec + code hash), so a superset sweep resumes from a subset's
checkpoint and stale checkpoints can never resurrect results from
changed code.  The artifact cache is disabled throughout: resume must
work from the checkpoint alone.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.ckpt.store import (
    CheckpointError,
    list_checkpoints,
    step_dir,
    write_checkpoint,
)
from repro.exp.runner import TrialSpec, last_stats, run_trials

REPO = pathlib.Path(__file__).parent.parent


def slow_trial(value):
    """Module-level so subprocess sweeps can resolve it by name."""
    time.sleep(0.05)
    return value * 3


def quick_trial(value):
    return value * 3


def _specs(values, fn="tests.test_ckpt_runner:quick_trial"):
    return [
        TrialSpec(fn=fn, key=(v,), kwargs={"value": v}) for v in values
    ]


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    """No artifact cache, no ambient checkpoint knobs: every hit below
    must come from the sweep checkpoint under test."""
    monkeypatch.setenv("PNET_CACHE", "0")
    for var in ("PNET_CKPT_DIR", "PNET_CKPT_EVERY", "PNET_RESUME",
                "PNET_CKPT_KEEP", "PNET_JOBS"):
        monkeypatch.delenv(var, raising=False)


class TestSweepCheckpoints:
    def test_written_every_n_plus_final(self, tmp_path):
        run_trials(
            _specs(range(5)),
            checkpoint_dir=tmp_path, checkpoint_every=2,
        )
        # Intervals at 2 and 4 fresh trials, plus the final partial.
        assert last_stats().checkpoints_written == 3
        assert list_checkpoints(tmp_path, valid_only=True)

    def test_every_requires_dir(self):
        with pytest.raises(ValueError, match="requires a checkpoint dir"):
            run_trials(_specs(range(2)), checkpoint_every=1)

    def test_keep_last_bounds_retention(self, tmp_path):
        run_trials(
            _specs(range(6)),
            checkpoint_dir=tmp_path, checkpoint_every=1,
            checkpoint_keep_last=2,
        )
        assert len(list_checkpoints(tmp_path)) == 2

    def test_env_knobs_drive_checkpointing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PNET_CKPT_DIR", str(tmp_path))
        monkeypatch.setenv("PNET_CKPT_EVERY", "2")
        run_trials(_specs(range(4)))
        assert list_checkpoints(tmp_path, valid_only=True)
        monkeypatch.setenv("PNET_RESUME", "1")
        results = run_trials(_specs(range(4)))
        assert last_stats().resumed_trials == 4
        assert results == {(v,): v * 3 for v in range(4)}


class TestSweepResume:
    def test_resume_skips_completed(self, tmp_path):
        want = run_trials(
            _specs(range(5)),
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        results = run_trials(
            _specs(range(5)),
            checkpoint_dir=tmp_path, resume=True,
        )
        assert results == want
        assert last_stats().resumed_trials == 5

    def test_superset_resumes_from_subset(self, tmp_path):
        run_trials(
            _specs(range(3)),
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        results = run_trials(
            _specs(range(8)),
            checkpoint_dir=tmp_path, checkpoint_every=1, resume=True,
        )
        assert results == {(v,): v * 3 for v in range(8)}
        assert last_stats().resumed_trials == 3

    def test_resume_identical_across_job_counts(self, tmp_path):
        run_trials(
            _specs(range(4)),
            checkpoint_dir=tmp_path, checkpoint_every=1,
        )
        serial = run_trials(
            _specs(range(8)),
            checkpoint_dir=tmp_path, resume=True, jobs=1,
        )
        pooled = run_trials(
            _specs(range(8)),
            checkpoint_dir=tmp_path, resume=True, jobs=2,
        )
        assert serial == pooled == {(v,): v * 3 for v in range(8)}

    def test_wrong_kind_checkpoint_rejected(self, tmp_path):
        write_checkpoint(
            step_dir(tmp_path, 0), {"state.pkl": b"not a sweep"},
            meta={"kind": "sim"},
        )
        with pytest.raises(CheckpointError, match="not trial progress"):
            run_trials(
                _specs(range(2)), checkpoint_dir=tmp_path, resume=True
            )

    def test_resume_from_empty_root_computes_all(self, tmp_path):
        results = run_trials(
            _specs(range(3)),
            checkpoint_dir=tmp_path / "nothing-here", resume=True,
        )
        assert results == {(v,): v * 3 for v in range(3)}
        assert last_stats().resumed_trials == 0


class TestCrashRecovery:
    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
        """The acceptance-criteria drill: SIGKILL a sweep mid-flight,
        resume, and get the uninterrupted sweep's exact results with
        the finished prefix skipped."""
        script = (
            "import sys\n"
            "from repro.exp.runner import TrialSpec, run_trials\n"
            "specs = [TrialSpec(fn='tests.test_ckpt_runner:slow_trial',"
            " key=(v,), kwargs={'value': v}) for v in range(30)]\n"
            "run_trials(specs, jobs=1, checkpoint_dir=sys.argv[1],"
            " checkpoint_every=1)\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": f"{REPO / 'src'}{os.pathsep}{REPO}",
            "PNET_CACHE": "0",
        }
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, cwd=REPO,
        )
        try:
            deadline = time.time() + 60
            while time.time() < deadline:
                if len(list_checkpoints(tmp_path, valid_only=True)) >= 3:
                    break
                if proc.poll() is not None:
                    pytest.fail("sweep finished before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("no checkpoints appeared within 60s")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == -signal.SIGKILL

        results = run_trials(
            _specs(range(30), fn="tests.test_ckpt_runner:slow_trial"),
            checkpoint_dir=tmp_path, checkpoint_every=1, resume=True,
        )
        assert results == {(v,): v * 3 for v in range(30)}
        stats = last_stats()
        assert stats.resumed_trials >= 3
        assert stats.resumed_trials < 30
