"""Dispatcher, worker protocol, and runner integration of the farm.

Socket tests use the ``local`` transport (real worker subprocesses on
this machine, dialing a real TCP listener) with small arithmetic trials
so dispatch mechanics -- not simulation time -- dominate.  The
byte-identity contract is asserted at the ``run_trials`` level: a farm
run's merged results pickle identically to a single-host run of the
same grid.
"""

import os
import pathlib
import pickle

import pytest

from repro.exp.runner import TrialSpec, last_stats, run_trials
from repro.farm import FarmError, local_inventory, run_on_farm
from repro.farm.worker import _accepts, execute_assignment
from repro.obs import Registry, use_registry

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Workers are fresh interpreters: they must import both repro (src/)
#: and this test module (repo root, for the trial fns below).
WORKER_PYTHONPATH = f"{REPO / 'src'}{os.pathsep}{REPO}"


def add_trial(a, b):
    return {"sum": a + b, "product": a * b}


def boom_trial():
    raise ValueError("boom")


def envcheck_trial(name):
    return os.environ.get(name)


def backend_trial():
    """The shard backend a sharded packet trial here would use."""
    from repro.config import current

    return current().shard_backend


def ckptable_trial(x, checkpoint_dir=None, checkpoint_every=None):
    return {"x": x, "dir": checkpoint_dir, "every": checkpoint_every}


def _specs(n, fn="tests.test_farm_dispatch:add_trial"):
    return [
        TrialSpec(fn=fn, key=("t", i), kwargs={"a": i, "b": 10 * i})
        for i in range(n)
    ]


@pytest.fixture
def farm_env(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", WORKER_PYTHONPATH)
    monkeypatch.setenv("PNET_CACHE", "0")
    monkeypatch.delenv("PNET_FARM_INVENTORY", raising=False)


class TestDispatch:
    def test_results_and_stats(self, farm_env):
        specs = _specs(5)
        results, stats = run_on_farm(specs, local_inventory(2))
        assert results == {
            ("t", i): {"sum": 11 * i, "product": 10 * i * i}
            for i in range(5)
        }
        assert stats.n_workers == 2
        assert stats.dispatched == 5
        assert stats.completed == 5
        assert stats.reassigned == 0
        assert len(stats.dispatch_wait_seconds) == 5

    def test_trial_error_carries_remote_traceback(self, farm_env):
        specs = [TrialSpec(
            fn="tests.test_farm_dispatch:boom_trial", key=("b",),
        )]
        with pytest.raises(FarmError, match="ValueError: boom"):
            run_on_farm(specs, local_inventory(1))

    def test_host_env_reaches_workers(self, farm_env):
        inv = local_inventory(
            1, env={
                "FARM_TEST_FLAG": "on-the-farm",
                "PYTHONPATH": WORKER_PYTHONPATH,
            },
        )
        results, __ = run_on_farm(
            [TrialSpec(
                fn="tests.test_farm_dispatch:envcheck_trial",
                key=("e",), kwargs={"name": "FARM_TEST_FLAG"},
            )],
            inv,
        )
        assert results[("e",)] == "on-the-farm"

    def test_empty_specs_rejected(self, farm_env):
        with pytest.raises(FarmError, match="no trials"):
            run_on_farm([], local_inventory(1))

    def test_obs_metrics(self, farm_env):
        obs = Registry()
        with use_registry(obs):
            run_on_farm(_specs(3), local_inventory(2))
        rows = {
            (row["name"], row["kind"]): row
            for row in obs.snapshot(include_wallclock=True)
        }
        assert rows[("farm.trials_dispatched", "counter")]["value"] == 3
        assert rows[("farm.workers_live", "gauge")]["value"] == 0
        assert rows[("farm.dispatch_seconds", "histogram")]["count"] == 3


class TestLeastInflightPick:
    """The dispatcher spreads assignments across hosts.

    Pure scheduling logic, no sockets: fake connected workers on two
    hosts, a stubbed ``_assign``, and a queue of pending trials.
    """

    @staticmethod
    def _worker(host_name, slot, inflight=None):
        from types import SimpleNamespace

        from repro.farm.dispatch import _Worker

        handle = SimpleNamespace(
            worker_id=f"{host_name}/{slot}",
            host=SimpleNamespace(name=host_name),
        )
        worker = _Worker(handle)
        worker.conn = object()  # "connected"
        worker.inflight = inflight
        return worker

    def _dispatcher(self, workers, n_pending):
        import time
        from collections import deque

        from repro.farm.dispatch import Dispatcher, _Pending

        dispatcher = Dispatcher(_specs(max(n_pending, 1)), local_inventory(1))
        dispatcher._workers = {w.worker_id: w for w in workers}
        dispatcher._queue = deque(
            _Pending(spec=spec, ready_at=time.monotonic())
            for spec in dispatcher.specs[:n_pending]
        )
        assigned = []

        def fake_assign(worker, pending):
            assigned.append(worker.worker_id)
            worker.inflight = pending.spec.key

        dispatcher._assign = fake_assign
        return dispatcher, assigned

    def test_round_robins_across_hosts(self, farm_env):
        workers = [
            self._worker("a", 0), self._worker("a", 1),
            self._worker("b", 0), self._worker("b", 1),
        ]
        dispatcher, assigned = self._dispatcher(workers, n_pending=4)
        dispatcher._dispatch_ready()
        # Inventory order would fill host a first; the least-inflight
        # pick alternates hosts (worker id breaks the ties).
        assert assigned == ["a/0", "b/0", "a/1", "b/1"]

    def test_prefers_least_loaded_host(self, farm_env):
        workers = [
            self._worker("a", 0, inflight=("busy", 0)),
            self._worker("a", 1),
            self._worker("b", 0),
        ]
        dispatcher, assigned = self._dispatcher(workers, n_pending=1)
        dispatcher._dispatch_ready()
        assert assigned == ["b/0"]

    def test_lost_workers_never_picked(self, farm_env):
        lightly_loaded = self._worker("a", 0)
        lightly_loaded.lost = True
        workers = [lightly_loaded, self._worker("b", 0, inflight=("x",))]
        # Host b is the only live host even though it is busier.
        workers.append(self._worker("b", 1))
        dispatcher, assigned = self._dispatcher(workers, n_pending=1)
        dispatcher._dispatch_ready()
        assert assigned == ["b/1"]


class TestRunnerIntegration:
    def test_farm_matches_single_host_bytes(self, farm_env):
        specs = _specs(4)
        single = run_trials(specs)
        farmed = run_trials(specs, farm=local_inventory(2))
        assert pickle.dumps(single) == pickle.dumps(farmed)
        stats = last_stats()
        assert stats.farm_workers == 2
        assert stats.reassigned_trials == 0
        assert "farm=2 workers" in stats.summary()

    def test_env_inventory_engages_farm(
        self, farm_env, tmp_path, monkeypatch
    ):
        import json

        path = tmp_path / "farm.json"
        path.write_text(json.dumps([{
            "name": "local", "slots": 1,
            "env": {"PYTHONPATH": WORKER_PYTHONPATH},
        }]))
        monkeypatch.setenv("PNET_FARM_INVENTORY", str(path))
        run_trials(_specs(2))
        assert last_stats().farm_workers == 1

    def test_farm_writes_farm_kind_containers(self, farm_env, tmp_path):
        from repro.ckpt.store import latest, read_manifest

        root = tmp_path / "ckpt"
        run_trials(
            _specs(3), farm=local_inventory(2),
            checkpoint_dir=root, checkpoint_every=1,
        )
        newest = latest(root)
        meta = read_manifest(newest)["meta"]
        assert meta["kind"] == "farm"
        assert meta["completed"] == 3

    def test_resume_skips_farm_progress(self, farm_env, tmp_path):
        root = tmp_path / "ckpt"
        specs = _specs(3)
        run_trials(
            specs, farm=local_inventory(2),
            checkpoint_dir=root, checkpoint_every=1,
        )
        # Single-host resume reads the farm-written containers: nothing
        # left to compute, no farm needed.
        resumed = run_trials(
            specs, checkpoint_dir=root, resume=True,
        )
        assert last_stats().resumed_trials == 3
        assert pickle.dumps(resumed) == pickle.dumps(run_trials(specs))

    def test_hosts_run_under_the_parents_result_fields(
        self, farm_env, tmp_path, monkeypatch
    ):
        """A host whose environment lacks the parent's knobs (every ssh
        host; here a local host that blanks them) still computes the
        trial its cache key names, and the progress container serves
        the same values on resume."""
        from tests.test_runner import _control_specs

        monkeypatch.setenv("PNET_CONTROL_POLICY", "load-aware")
        inventory = local_inventory(1, env={
            "PYTHONPATH": WORKER_PYTHONPATH, "PNET_CONTROL_POLICY": "",
        })
        specs = _control_specs([1, 2])
        want = {(1,): (1, "load-aware"), (2,): (2, "load-aware")}
        root = tmp_path / "ckpt"
        assert run_trials(
            specs, farm=inventory, checkpoint_dir=root, checkpoint_every=1,
        ) == want
        assert run_trials(specs, checkpoint_dir=root, resume=True) == want
        assert last_stats().resumed_trials == 2

    def test_hosts_run_under_the_parents_shard_backend(self, farm_env):
        """Hosts are picked by the parent's backend, and their workers
        use it, whatever the host's own environment names."""
        from repro.config import RunConfig, use

        inventory = local_inventory(1, env={
            "PYTHONPATH": WORKER_PYTHONPATH, "PNET_SHARD_BACKEND": "shm",
        })
        spec = TrialSpec(fn="tests.test_farm_dispatch:backend_trial",
                         key=("b",))
        with use(RunConfig(shards=2, shard_backend="local")):
            assert run_trials([spec], farm=inventory) == {("b",): "local"}

    def test_arguments_make_stale_env_knobs_moot(
        self, farm_env, monkeypatch, tmp_path
    ):
        """``farm=`` makes a stale inventory variable moot, and a dir
        argument completes ``PNET_RESUME`` -- in the parent and in the
        local workers that inherit its environment."""
        monkeypatch.setenv("PNET_FARM_INVENTORY", "/does/not/exist")
        monkeypatch.setenv("PNET_RESUME", "1")
        results = run_trials(
            _specs(2), farm=local_inventory(1), checkpoint_dir=tmp_path,
        )
        assert results[("t", 1)] == {"sum": 11, "product": 10}
        assert last_stats().farm_workers == 1


class TestWorkerUnit:
    def test_accepts_signatures(self):
        assert _accepts(ckptable_trial, "checkpoint_dir")
        assert _accepts(ckptable_trial, "checkpoint_every")
        assert not _accepts(add_trial, "checkpoint_dir")

        def kwargs_fn(**kw):
            return kw

        assert _accepts(kwargs_fn, "checkpoint_dir")

    def test_execute_assignment_plain(self):
        reply = execute_assignment({
            "fn": "tests.test_farm_dispatch:add_trial",
            "key": ("t", 0),
            "kwargs": {"a": 2, "b": 3},
            "checkpoint_dir": None,
        })
        assert reply["type"] == "result"
        assert reply["value"] == {"sum": 5, "product": 6}
        assert reply["resumed_step"] is None

    def test_execute_assignment_ignores_the_sweep_knobs(self, monkeypatch):
        # Half a checkpoint rule and a stale inventory, inherited from
        # a parent whose arguments completed them, fail no trial here.
        monkeypatch.setenv("PNET_RESUME", "1")
        monkeypatch.setenv("PNET_FARM_INVENTORY", "/does/not/exist")
        monkeypatch.setenv("PNET_CONTROL_POLICY", "load-aware")
        reply = execute_assignment({
            "fn": "tests.test_runner:control_trial",
            "key": ("c",),
            "kwargs": {"value": 1},
            "config": {"control_policy": None},
        })
        assert reply["type"] == "result", reply.get("error")
        assert reply["value"] == (1, None)

    def test_execute_assignment_injects_checkpoint_kwargs(self, tmp_path):
        reply = execute_assignment({
            "fn": "tests.test_farm_dispatch:ckptable_trial",
            "key": ("c",),
            "kwargs": {"x": 1},
            "checkpoint_dir": str(tmp_path / "trial-x"),
            "checkpoint_every": 0.5,
        })
        assert reply["value"]["dir"] == str(tmp_path / "trial-x")
        assert reply["value"]["every"] == 0.5

    def test_execute_assignment_skips_undeclared(self, tmp_path):
        # A trial without the keywords still runs with a dir offered.
        reply = execute_assignment({
            "fn": "tests.test_farm_dispatch:add_trial",
            "key": ("t", 9),
            "kwargs": {"a": 1, "b": 1},
            "checkpoint_dir": str(tmp_path / "trial-y"),
        })
        assert reply["type"] == "result"
        assert reply["value"] == {"sum": 2, "product": 1}

    def test_execute_assignment_error_shape(self):
        reply = execute_assignment({
            "fn": "tests.test_farm_dispatch:boom_trial",
            "key": ("b",),
            "kwargs": {},
        })
        assert reply["type"] == "error"
        assert "ValueError: boom" in reply["error"]
        assert "boom_trial" in reply["traceback"]
