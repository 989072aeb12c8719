"""Worker-loss drills: the farm's preemption-safety acceptance tests.

The headline contract: a sweep across >= 2 local-transport workers
survives SIGKILL of one worker mid-trial, the victim's trial is
reassigned once to a surviving worker, which recomputes it from
scratch, and the merged results are byte-identical to an uninterrupted
single-host ``run_trials`` of the same grid.  A SIGSTOP variant
exercises the heartbeat-timeout path (worker alive but silent); a
dead-on-arrival variant exercises fail-fast when no worker can run at
all, and a farm whose hosts run other code fails the same way.

The reference trial (:func:`repro.farm.trial.demo_trial`) sleeps
``wall_pause`` wall-clock seconds before simulating, so the kill lands
mid-trial without any sleeps calibrated to machine speed.
"""

import os
import pathlib
import pickle
import re
import shutil
import signal
import threading

import pytest

from repro.exp.cache import _source_tree_hash, content_hash, stable_hash
from repro.exp.runner import (
    TrialSpec, _trial_cache_key, last_stats, run_trials,
)
from repro.farm import FarmError, local_inventory, run_on_farm

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKER_PYTHONPATH = f"{REPO / 'src'}{os.pathsep}{REPO}"

SLOW_KEY = ("demo", 0)


def _grid(n_quick=3, wall_pause=2.0):
    """One slow trial plus quick fillers."""
    specs = [TrialSpec(
        fn="repro.farm.trial:demo_trial",
        key=SLOW_KEY,
        kwargs={"seed": 0, "n_flows": 6, "wall_pause": wall_pause},
    )]
    specs += [
        TrialSpec(
            fn="repro.farm.trial:demo_trial",
            key=("demo", seed),
            kwargs={"seed": seed, "n_flows": 2, "size_mb": 0.3},
        )
        for seed in range(1, 1 + n_quick)
    ]
    return specs


@pytest.fixture
def farm_env(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", WORKER_PYTHONPATH)
    monkeypatch.setenv("PNET_CACHE", "0")
    monkeypatch.delenv("PNET_FARM_INVENTORY", raising=False)


def _kill_on_assign(victim_key, sig, delay):
    """on_assign callback that signals the worker running victim_key;
    ``state["workers"]`` lists the workers victim_key was assigned to."""
    state = {"fired": False, "timers": [], "workers": []}

    def on_assign(worker_id, spec, pid):
        if spec.key != victim_key:
            return
        state["workers"].append(worker_id)
        if not state["fired"]:
            state["fired"] = True
            timer = threading.Timer(delay, os.kill, (pid, sig))
            timer.daemon = True
            timer.start()
            state["timers"].append(timer)

    return on_assign, state


def _assert_recomputed_once(specs, results, stats, state):
    """The victim's trial ran twice, on two workers, and the second run
    recomputed the single-host result byte for byte."""
    assert state["fired"], "victim trial was never assigned"
    assert stats.reassigned == 1
    assert len(stats.reassign_seconds) == 1
    assert stats.dispatched == len(specs) + 1
    assert stats.completed == len(specs)
    victim, survivor = state["workers"]
    assert victim != survivor
    single = run_trials(specs)
    assert pickle.dumps({k: results[k] for k in single}) == \
        pickle.dumps(single)


class TestSigkillRecovery:
    def test_sigkill_mid_trial_resumes_elsewhere(self, farm_env):
        specs = _grid()
        on_assign, state = _kill_on_assign(
            SLOW_KEY, signal.SIGKILL, delay=1.0
        )
        completed = []
        results, stats = run_on_farm(
            specs,
            local_inventory(2),
            on_assign=on_assign,
            on_complete=lambda key, value: completed.append(key),
        )
        assert len(stats.worker_losses) == 1
        assert sorted(completed) == sorted(spec.key for spec in specs)
        _assert_recomputed_once(specs, results, stats, state)

    def test_runner_stats_plumbing(self, farm_env, monkeypatch):
        # on_assign (the kill hook) is a dispatcher detail run_trials
        # does not expose, so exercise the RunStats wiring with a stub
        # farm: reassignment counters must surface in last_stats() and
        # the [runner] summary line.
        import repro.farm.dispatch as dispatch_mod

        specs = _grid(n_quick=1)

        def fake_run_on_farm(pending, inventory, **kwargs):
            on_complete = kwargs["on_complete"]
            results = {}
            for spec in pending:
                results[spec.key] = {"seed": spec.kwargs["seed"]}
                on_complete(spec.key, results[spec.key])
            stats = dispatch_mod.FarmStats(
                n_hosts=1, n_workers=2,
                dispatched=len(pending) + 1, reassigned=1,
                completed=len(pending),
            )
            return results, stats

        monkeypatch.setattr(
            dispatch_mod, "run_on_farm", fake_run_on_farm
        )
        run_trials(specs, farm=local_inventory(2))
        stats = last_stats()
        assert stats.farm_workers == 2
        assert stats.reassigned_trials == 1
        assert "farm=2 workers (1 reassigned)" in stats.summary()


class TestHeartbeatTimeout:
    def test_sigstop_triggers_reassignment(self, farm_env):
        specs = _grid(n_quick=2)
        on_assign, state = _kill_on_assign(
            SLOW_KEY, signal.SIGSTOP, delay=0.8
        )
        results, stats = run_on_farm(
            specs,
            local_inventory(2),
            timeout=1.5,
            on_assign=on_assign,
        )
        assert any(
            "heartbeat timeout" in loss for loss in stats.worker_losses
        )
        # The stalled worker must have been killed, not left computing
        # a trial someone else now owns.
        _assert_recomputed_once(specs, results, stats, state)


class TestFailFast:
    def test_all_workers_dead_raises(self, farm_env):
        inv = local_inventory(2, env={"PYTHONPATH": "/nonexistent"})
        with pytest.raises(FarmError, match="all farm workers lost"):
            run_on_farm(
                [TrialSpec(
                    fn="repro.farm.trial:demo_trial", key=("x",),
                    kwargs={"seed": 0},
                )],
                inv,
            )

    def test_hosts_running_other_code_are_lost(self, farm_env, tmp_path):
        """A host on another checkout returns a result whose content
        hash is not the dispatcher's: the worker is declared lost with
        both hashes named, and a farm of only such hosts fails instead
        of caching their results under this checkout's code."""
        src = tmp_path / "src"
        shutil.copytree(
            REPO / "src", src,
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
        with open(src / "repro" / "units.py", "a") as handle:
            handle.write("\n# another checkout\n")
        spec = TrialSpec(
            fn="repro.farm.trial:demo_trial", key=("x",),
            kwargs={"seed": 0, "n_flows": 2, "size_mb": 0.3},
        )
        key = _trial_cache_key(spec)
        ours = content_hash(key)
        theirs = stable_hash((_source_tree_hash(src / "repro"), key))
        assert ours != theirs
        inv = local_inventory(
            2, env={"PYTHONPATH": f"{src}{os.pathsep}{REPO}"},
        )
        with pytest.raises(FarmError, match="all farm workers lost") as err:
            run_on_farm([spec], inv)
        message = str(err.value)
        assert len(re.findall("ran other code", message)) == 2
        assert f"result hash {theirs[:16]}" in message
        assert f"dispatcher's {ours[:16]}" in message

    def test_worker_refuses_to_run_bare(self):
        from repro.farm.worker import main

        with pytest.raises(FarmError, match="PNET_FARM_AUTHKEY"):
            env_backup = os.environ.pop("PNET_FARM_AUTHKEY", None)
            try:
                main([
                    "--connect", "127.0.0.1:1", "--worker-id", "x/0",
                ])
            finally:
                if env_backup is not None:
                    os.environ["PNET_FARM_AUTHKEY"] = env_backup
