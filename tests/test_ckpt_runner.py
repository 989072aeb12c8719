"""A sweep resumes from its trial cache.

``run_trials`` stores every trial's result in the artifact cache as the
trial finishes, keyed by function, code and kwargs.  So a rerun of a
sweep on the same ``PNET_CACHE_DIR`` -- after a SIGKILL mid-flight
included -- must (a) compute only the trials the cache lacks, (b)
return values identical to an uninterrupted sweep at any job count,
and (c) reuse a subset sweep's trials in a superset sweep.  No sweep
writes a checkpoint directory.  Every test sweeps on its own empty
cache.
"""

import contextlib
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time

import pytest

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


def _tripled(values):
    return {(v,): v * 3 for v in values}


def _finished(cache_dir: pathlib.Path) -> int:
    """Trials the cache holds; entries land by atomic rename."""
    return len(list(cache_dir.glob("v*/trial/*.pkl")))


@pytest.fixture(autouse=True)
def cache_dir(monkeypatch, tmp_path):
    root = tmp_path / "cache"
    monkeypatch.setenv("PNET_CACHE_DIR", str(root))
    for var in ("PNET_CACHE", "PNET_JOBS"):
        monkeypatch.delenv(var, raising=False)
    return root


class TestSweepResume:
    def test_resume_from_empty_root_computes_all(self, cache_dir):
        assert run_trials(_specs(range(3))) == _tripled(range(3))
        assert last_stats().trial_cache_hits == 0
        assert _finished(cache_dir) == 3

    def test_resume_skips_completed(self):
        want = run_trials(_specs(range(5)))
        assert run_trials(_specs(range(5))) == want
        assert last_stats().trial_cache_hits == 5

    def test_superset_resumes_from_subset(self):
        run_trials(_specs(range(3)))
        assert run_trials(_specs(range(8))) == _tripled(range(8))
        assert last_stats().trial_cache_hits == 3

    def test_resume_identical_across_job_counts(self, tmp_path,
                                                monkeypatch):
        want = pickle.dumps(run_trials(_specs(range(8)), jobs=1))
        for first in (1, 2):
            for rerun in (1, 2):
                monkeypatch.setenv(
                    "PNET_CACHE_DIR", str(tmp_path / f"cache-{first}{rerun}")
                )
                run_trials(_specs(range(4)), jobs=first)
                got = run_trials(_specs(range(8)), jobs=rerun)
                assert pickle.dumps(got) == want, (first, rerun)
                assert last_stats().trial_cache_hits == 4

    def test_no_sweep_writes_a_checkpoint_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for jobs in (1, 2):
            run_trials(_specs(range(4)), jobs=jobs)
        assert not list(tmp_path.rglob("ckpt-*"))


#: A sweep of argv[2] slow_trials at the job count in argv[1].
_SWEEP = (
    "import sys\n"
    "from repro.exp.runner import TrialSpec, run_trials\n"
    "specs = [TrialSpec(fn='tests.test_ckpt_runner:slow_trial',"
    " key=(v,), kwargs={'value': v}) for v in range(int(sys.argv[2]))]\n"
    "run_trials(specs, jobs=int(sys.argv[1]))\n"
)


def _start_sweep(cache_dir: pathlib.Path, jobs: int, n_trials: int):
    """Start the sweep in its own session; return once three of its
    trials are cached."""
    env = {
        **os.environ,
        "PYTHONPATH": f"{REPO / 'src'}{os.pathsep}{REPO}",
        "PNET_CACHE_DIR": str(cache_dir),
    }
    proc = subprocess.Popen(
        [sys.executable, "-c", _SWEEP, str(jobs), str(n_trials)],
        env=env, cwd=REPO, start_new_session=True,
    )
    deadline = time.time() + 60
    while time.time() < deadline:
        if _finished(cache_dir) >= 3:
            return proc
        if proc.poll() is not None:
            pytest.fail("sweep finished before it could be killed")
        time.sleep(0.01)
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    pytest.fail("no trial was cached within 60s")


def _kill_after_three(cache_dir: pathlib.Path, jobs: int) -> None:
    """SIGKILL a 30-trial sweep's whole session (the runner and its
    pool workers) once three trials are cached."""
    proc = _start_sweep(cache_dir, jobs, 30)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == -signal.SIGKILL


class TestCrashRecovery:
    def test_sigkill_mid_sweep_then_resume(self, tmp_path, monkeypatch):
        """The drill: SIGKILL a sweep mid-flight, rerun it on the same
        cache, and get the uninterrupted sweep's exact results with the
        finished trials answered from the cache -- serial and pooled."""
        want = pickle.dumps(_tripled(range(30)))
        for jobs in (1, 2):
            cache_dir = tmp_path / f"cache-jobs{jobs}"
            monkeypatch.setenv("PNET_CACHE_DIR", str(cache_dir))
            _kill_after_three(cache_dir, jobs)
            finished = _finished(cache_dir)
            results = run_trials(
                _specs(range(30), fn="tests.test_ckpt_runner:slow_trial"),
                jobs=jobs,
            )
            assert pickle.dumps(results) == want, jobs
            hits = last_stats().trial_cache_hits
            assert hits == finished, jobs
            assert 3 <= hits < 30, jobs

    def test_pool_workers_end_with_a_killed_runner(self, cache_dir):
        """SIGKILL only the runner of a pooled sweep: its pool workers,
        blocked on the call queue, end themselves instead of idling."""
        from tests.test_shard_channel_failures import _outliving

        proc = _start_sweep(cache_dir, 2, 200)
        workers = []
        try:
            for path in pathlib.Path(f"/proc/{proc.pid}/task").glob(
                "*/children"
            ):
                workers += [int(pid) for pid in path.read_text().split()]
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            assert len(workers) == 2
            left = _outliving(workers, 5.0)
            assert not left, f"pool workers {left} outlived their runner"
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
