"""The one run configuration, :class:`repro.config.RunConfig`.

One table row per field: a good value, the bad values (each must fail
with a :class:`ConfigError` naming the variable), and an argument that
beats the environment; the variables no longer read fail the same way
at any value.  Then the rules around it: flags, the cache key (no field
is part of it), ``current``/``use``, the CLI, runner and trial entry
points failing before any trial runs, and AST guards that no other
module reads ``PNET_*`` from the environment and that only the modules
listed read the run config.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import pickle

import pytest

import repro
from repro.cli import main
from repro.config import (
    REMOVED as REMOVED_VARIABLES,
    ConfigError,
    RunConfig,
    current,
    use,
)
from repro.exp.runner import TrialSpec, last_stats, run_trials

SRC = pathlib.Path(repro.__file__).resolve().parent


def var(name: str) -> str:
    return "PNET_" + name.upper()


#: Never runs: a bad knob must fail before it.
FAILING = [TrialSpec(fn="tests.test_runner:failing_trial", key=("f",))]


@pytest.fixture
def inventory_file(tmp_path):
    path = tmp_path / "farm.json"
    path.write_text('[{"name": "a"}]')
    return path


#: field -> (environment text, the value it resolves to, an argument,
#: the argument's value).
ROWS = {
    "scale": ("tiny", "tiny", "full", "full"),
    "jobs": ("4", 4, 2, 2),
    "shard_timeout": ("0.5", 0.5, 0, None),
    "cache": ("off", False, True, True),
    "cache_dir": (
        "~/c", pathlib.Path("~/c").expanduser(), "/x", pathlib.Path("/x"),
    ),
    "farm_inventory": ("INVENTORY", "INVENTORY", None, None),
    "farm_timeout": ("2.5", 2.5, 1, 1.0),
}

#: field -> bad environment text.  ``cache_dir`` takes any path, so it
#: has none of its own.
BAD = {
    "scale": ["huge"],
    "jobs": ["many", "0", "1.5"],
    "shard_timeout": ["soon"],
    "cache": ["disabled", "-1"],
    "farm_inventory": ["/does/not/exist"],
    "farm_timeout": ["0", "soon"],
}

BAD_ROWS = [(name, text) for name, texts in BAD.items() for text in texts]

#: Knobs the config no longer has -> values that once parsed and values
#: that once failed: each fails at entry now, naming its variable.
#: ``run_packet_trial``'s arguments shape a sharded run instead.
REMOVED_SHARD = {
    "shards": ["2", "0", "two"],
    "epoch": ["5e-4", "abc", "-1"],
    "lookahead": ["auto", "xyz", "-1e-4"],
    "shard_backend": ["shm", "bogus", "process"],
}
#: The same for the control knobs: ``control=`` attaches control.
REMOVED_CONTROL = {
    "control_policy": ["load-aware", "off", "bogus"],
    "control_interval": ["1e-4", "0", "nope"],
    "control_hysteresis": ["1.5", "0.5"],
    "control_cooldown": ["0.25", "-1"],
}
#: The same for the sweep checkpoint knobs: a rerun resumes from the
#: trial cache.
REMOVED_CKPT = {
    "ckpt_dir": ["ck"],
    "ckpt_every": ["2", "0", "x"],
    "ckpt_keep": ["3", "0"],
    "resume": ["1", "0", "maybe", "2", "TRUE"],
}
REMOVED = {**REMOVED_SHARD, **REMOVED_CONTROL, **REMOVED_CKPT}

#: Every environment value that must fail at entry.
ENV_ROWS = BAD_ROWS + [
    (name, text) for name, texts in REMOVED.items() for text in texts
]


def _env(name, text, inventory_file):
    return {var(name): str(inventory_file) if text == "INVENTORY" else text}


def _value(value, inventory_file):
    return inventory_file if value == "INVENTORY" else value


class TestTable:
    def test_every_field_has_a_row(self):
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        assert len(fields) == 7
        assert sorted(ROWS) == sorted(fields)
        assert set(BAD) | {"cache_dir"} == set(fields)

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_good_value(self, name, inventory_file):
        text, want = ROWS[name][:2]
        config = RunConfig.from_env(_env(name, text, inventory_file))
        assert getattr(config, name) == _value(want, inventory_file)

    @pytest.mark.parametrize("name,text", ENV_ROWS)
    def test_bad_value_names_the_variable(self, name, text, inventory_file):
        with pytest.raises(ConfigError, match=var(name)) as info:
            RunConfig.from_env(_env(name, text, inventory_file))
        assert repr(text) in str(info.value)

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_argument_beats_environment(self, name, inventory_file):
        text, __, arg, want = ROWS[name]
        env = _env(name, text, inventory_file)
        if arg is None:
            # No argument value other than "not given": None keeps env.
            config = RunConfig.from_env(env, **{name: None})
            want = _value(ROWS[name][1], inventory_file)
            assert getattr(config, name) == want
            return
        assert getattr(RunConfig.from_env(env, **{name: arg}), name) == want
        # A bad environment value is never read when an argument wins.
        for bad in BAD.get(name, []):
            env[var(name)] = bad
            assert getattr(
                RunConfig.from_env(env, **{name: arg}), name
            ) == want

    @pytest.mark.parametrize("name", sorted(ROWS) + sorted(REMOVED))
    def test_unset_and_empty_mean_default(self, name):
        assert RunConfig.from_env({var(name): ""}) == RunConfig()
        assert RunConfig.from_env({var(name): "  "}) == RunConfig()

    @pytest.mark.parametrize("name,text", BAD_ROWS)
    def test_bad_argument_is_named(self, name, text, inventory_file):
        with pytest.raises(ConfigError, match=name):
            RunConfig.from_env({}, **{name: text})

    def test_removed_variables(self):
        assert set(REMOVED_VARIABLES) == {var(name) for name in REMOVED}
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert not set(REMOVED) & fields

    @pytest.mark.parametrize("name", sorted(REMOVED_SHARD))
    def test_removed_variable_points_to_run_packet_trial(self, name):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_env({var(name): REMOVED[name][0]})
        message = str(info.value)
        assert var(name) in message
        assert "shards=, epoch= and backend=" in message
        assert "run_packet_trial" in message

    @pytest.mark.parametrize("name", sorted(REMOVED_CONTROL))
    def test_removed_variable_points_to_control(self, name):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_env({var(name): REMOVED[name][0]})
        message = str(info.value)
        assert var(name) in message
        assert "pass control= to repro.api.run_trial" in message

    @pytest.mark.parametrize("name", sorted(REMOVED_CKPT))
    def test_removed_variable_points_to_the_trial_cache(self, name):
        with pytest.raises(ConfigError) as info:
            RunConfig.from_env({var(name): REMOVED[name][0]})
        message = str(info.value)
        assert var(name) in message
        assert "a rerun resumes from the trial cache" in message
        assert "PNET_CACHE_DIR at a durable directory" in message

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            RunConfig.from_env({}, bogus=1)
        with pytest.raises(TypeError):
            RunConfig().replace(bogus=1)


class TestFlags:
    @pytest.mark.parametrize("text,want", [
        ("1", True), ("true", True), ("yes", True), ("on", True),
        ("0", False), ("false", False), ("no", False), ("off", False),
    ])
    def test_spellings(self, text, want):
        assert RunConfig.from_env({"PNET_CACHE": text}).cache is want

    def test_defaults(self):
        assert RunConfig.from_env({}).cache is True


class TestCrossField:
    def test_replace_checks_and_none_keeps(self):
        config = RunConfig.from_env({}, jobs=3)
        assert config.replace(jobs=None) == config
        assert config.replace(jobs=5).jobs == 5
        with pytest.raises(ConfigError, match="jobs"):
            config.replace(jobs=0)


class TestCurrent:
    def test_outside_use_resolves_the_environment_afresh(self, monkeypatch):
        monkeypatch.setenv("PNET_JOBS", "3")
        assert current().jobs == 3
        monkeypatch.setenv("PNET_JOBS", "4")
        assert current().jobs == 4

    def test_use_nests_and_restores(self, monkeypatch):
        monkeypatch.delenv("PNET_JOBS", raising=False)
        outer, inner = RunConfig(jobs=2), RunConfig(jobs=3)
        with use(outer):
            assert current() is outer
            with use(inner):
                assert current() is inner
            assert current() is outer
        assert current().jobs == 1

    def test_pickles(self, inventory_file):
        config = RunConfig.from_env(
            {"PNET_FARM_INVENTORY": str(inventory_file)}, jobs=2
        )
        assert pickle.loads(pickle.dumps(config)) == config


# --- the cache key -----------------------------------------------------------

#: Every field changes no result: flipping one must hit a warm cache.
HIT = {
    "scale": {"PNET_SCALE": "tiny"},
    "jobs": {"PNET_JOBS": "2"},
    "shard_timeout": {"PNET_SHARD_TIMEOUT": "5"},
    "farm_timeout": {"PNET_FARM_TIMEOUT": "3"},
}

#: Fields a cache hit cannot show: one turns the cache off, one moves
#: it, and one needs a farm.
NOT_HIT = {"cache", "cache_dir", "farm_inventory"}


class TestCacheKey:
    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch, tmp_path):
        for name in ROWS:
            monkeypatch.delenv(var(name), raising=False)
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path / "cache"))

    SPECS = [
        TrialSpec(fn="tests.test_runner:echo_trial", key=(v,),
                  kwargs={"value": v})
        for v in (1, 2)
    ]

    def test_every_field_is_covered(self):
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(HIT) | NOT_HIT == fields
        assert not set(HIT) & NOT_HIT

    @pytest.mark.parametrize("name", sorted(HIT))
    def test_flipping_another_field_hits(self, name, monkeypatch):
        warm = run_trials(self.SPECS)
        for key, value in HIT[name].items():
            monkeypatch.setenv(key, value)
        assert run_trials(self.SPECS) == warm
        assert last_stats().trial_cache_hits == 2


# --- entry points fail before any trial ------------------------------------


class TestFailsAtEntry:
    @pytest.mark.parametrize("name,text", ENV_ROWS)
    def test_run_trials(self, name, text, monkeypatch, inventory_file):
        for key, value in _env(name, text, inventory_file).items():
            monkeypatch.setenv(key, value)
        # failing_trial raises RuntimeError; the config must fail first.
        with pytest.raises(ConfigError, match=var(name)):
            run_trials(FAILING)

    @pytest.mark.parametrize("name,text", ENV_ROWS)
    def test_cli_exits_2(self, name, text, monkeypatch, inventory_file,
                         capsys):
        for key, value in _env(name, text, inventory_file).items():
            monkeypatch.setenv(key, value)
        with pytest.raises(SystemExit) as info:
            main(["table1"])
        assert info.value.code == 2
        assert var(name) in capsys.readouterr().err

    @staticmethod
    def _fails_every_entry(name, hint, monkeypatch, capsys):
        """Setting ``name`` fails in the runner, both trial functions
        and the CLI with ``hint``, before a flow, trial or shard worker
        starts."""
        import repro.shard.engine
        from repro.api import build_network, run_trial
        from repro.shard import run_packet_trial
        from tests.test_shard_engine import jellyfish_workload

        started = []
        monkeypatch.setattr(
            repro.shard.engine, "ProcessChannel", started.append
        )
        pnet, specs = jellyfish_workload(n_flows=2)
        net = build_network(pnet.planes, kind="packet")
        monkeypatch.setenv(var(name), REMOVED[name][0])
        for call in (
            lambda: run_trials(FAILING),
            lambda: run_trial(net, specs),
            lambda: run_packet_trial(pnet.planes, specs, shards=2),
        ):
            with pytest.raises(ConfigError, match=f"{var(name)}=") as info:
                call()
            assert hint in str(info.value)
        assert not started and not net.records and net.now == 0
        with pytest.raises(SystemExit) as info:
            main(["fig9", "--scale", "tiny"])
        assert info.value.code == 2
        assert hint in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(REMOVED_CONTROL))
    def test_control_variable_fails_every_entry(self, name, monkeypatch,
                                                capsys):
        self._fails_every_entry(
            name, "pass control= to repro.api.run_trial", monkeypatch, capsys,
        )

    @pytest.mark.parametrize("name", sorted(REMOVED_CKPT))
    def test_checkpoint_variable_fails_every_entry(self, name, monkeypatch,
                                                   capsys):
        self._fails_every_entry(
            name, "a rerun resumes from the trial cache", monkeypatch, capsys,
        )

    @pytest.mark.parametrize("argv", [
        ["table1", "--resume"],
        ["table1", "--checkpoint-every", "2"],
        ["table1", "--shards", "2"],
        ["table1", "--control-interval", "0"],
        ["table1", "--jobs", "0"],
        ["table1", "--fidelity", "packet"],
        ["table1", "--promote", "0.5"],
        ["fig9", "--checkpoint-dir", "ck"],
        ["fig9", "--keep-last", "1"],
    ])
    def test_cli_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_help_lists_no_shard_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        usage = capsys.readouterr().out
        assert "--jobs" in usage
        for flag in ("--shards", "--epoch", "--lookahead", "--shard-backend",
                     "--control", "--control-interval", "--checkpoint-dir",
                     "--checkpoint-every", "--resume", "--keep-last"):
            assert flag not in usage


class TestArgumentsCompleteTheEnvironment:
    """Arguments are put in before any check runs, so an argument makes
    a bad variable moot."""

    def test_current_puts_arguments_in_first(self, monkeypatch):
        monkeypatch.setenv("PNET_JOBS", "many")
        with pytest.raises(ConfigError, match="PNET_JOBS"):
            current()
        assert current(jobs=2).jobs == 2
        with use(RunConfig(jobs=3)):
            assert current(jobs=4).jobs == 4


class TestFlagsMeanWhatTheySay:
    def test_cache_off_spellings_disable_the_cache(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path))
        specs = TestCacheKey.SPECS
        run_trials(specs)
        for text in ("false", "no", "off"):
            monkeypatch.setenv("PNET_CACHE", text)
            run_trials(specs)
            assert last_stats().trial_cache_hits == 0, text
        monkeypatch.setenv("PNET_CACHE", "on")
        run_trials(specs)
        assert last_stats().trial_cache_hits == 2


# --- the guard ---------------------------------------------------------------


def _environ_users():
    """Modules under ``src/repro`` that touch ``os.environ``/``getenv``."""
    users = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv", "putenv")
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                users.add(path.relative_to(SRC).as_posix())
    return users


def test_only_config_reads_the_environment():
    """``config.py`` reads every knob; the farm's authkey handoff to the
    worker it launches is the one other use."""
    assert _environ_users() == {
        "config.py", "farm/transport.py", "farm/worker.py",
    }


def _config_readers():
    """Modules under ``src/repro`` that read the run config through
    ``repro.config.current``."""
    readers = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "repro.config"
                and any(alias.name == "current" for alias in node.names)
            ) or (
                isinstance(node, ast.Attribute)
                and node.attr == "current"
                and ast.unparse(node.value).endswith("config")
            ):
                readers.add(path.relative_to(SRC).with_suffix("").as_posix())
    return readers


def test_only_these_modules_read_the_run_config():
    """The entry points, the experiment scale, the cache, the farm and
    the shard worker deadline read the config, and none of them reads a
    field that changes what a trial returns, so the trial cache key
    names no field.  A new reader is added here on purpose, with the
    reason its field cannot change a trial's result."""
    assert _config_readers() == {
        "api", "exp/cache", "exp/common", "exp/runner", "farm/cli",
        "farm/dispatch", "shard/channel", "shard/engine",
    }


def test_farm_environ_use_is_the_authkey_only():
    for module in ("farm/transport.py", "farm/worker.py"):
        source = (SRC / module).read_text()
        for line in source.splitlines():
            if "os.environ" in line:
                assert "AUTHKEY_ENV" in line or "dict(os.environ)" in line
