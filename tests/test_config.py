"""The one run configuration, :class:`repro.config.RunConfig`.

One table row per field: a good value, the bad values (each must fail
with a :class:`ConfigError` naming the variable), and an argument that
beats the environment.  Then the rules around it: flags, cross-field
prerequisites, the cache key, ``current``/``use``, the CLI and runner
entry points failing before any trial runs, and an AST guard that no
other module reads ``PNET_*`` from the environment.
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
    RESULT_FIELDS,
    ConfigError,
    RunConfig,
    current,
    use,
)
from repro.exp.runner import TrialSpec, last_stats, run_trials

SRC = pathlib.Path(repro.__file__).resolve().parent


def var(name: str) -> str:
    return "PNET_" + name.upper()


def config_trial(value):
    """Module-level so pool workers resolve it: what the trial sees."""
    config = current()
    return value, {name: getattr(config, name) for name in RESULT_FIELDS}


#: Never runs: a bad knob must fail before it.
FAILING = [TrialSpec(fn="tests.test_runner:failing_trial", key=("f",))]


@pytest.fixture
def inventory_file(tmp_path):
    path = tmp_path / "farm.json"
    path.write_text('[{"name": "a"}]')
    return path


#: field -> (environment text, the value it resolves to, an argument,
#: the argument's value).  Cross-field prerequisites come from NEEDS.
ROWS = {
    "scale": ("tiny", "tiny", "full", "full"),
    "jobs": ("4", 4, 2, 2),
    "shards": ("2", 2, 3, 3),
    "epoch": ("5e-4", 5e-4, 0.0, 0.0),
    "lookahead": ("2.5e-4", 2.5e-4, "auto", None),
    "shard_backend": ("local", "local", "shm", "shm"),
    "shard_timeout": ("0.5", 0.5, 0, None),
    "ckpt_dir": ("ck", pathlib.Path("ck"), "other", pathlib.Path("other")),
    "ckpt_every": ("2", 2, 5, 5),
    "ckpt_keep": ("3", 3, 1, 1),
    "resume": ("yes", True, False, False),
    "cache": ("off", False, True, True),
    "cache_dir": (
        "~/c", pathlib.Path("~/c").expanduser(), "/x", pathlib.Path("/x"),
    ),
    "farm_inventory": ("INVENTORY", "INVENTORY", None, None),
    "farm_timeout": ("2.5", 2.5, 1, 1.0),
    "control_policy": ("load-aware", "load-aware", "off", None),
    "control_interval": ("1e-4", 1e-4, 2e-3, 2e-3),
    "control_hysteresis": ("1.5", 1.5, 3, 3.0),
    "control_cooldown": ("0.25", 0.25, 0, 0.0),
}

#: field -> bad environment text.  ``ckpt_dir`` and ``cache_dir`` take
#: any path, so they have none of their own.
BAD = {
    "scale": ["huge"],
    "jobs": ["many", "0", "1.5"],
    "shards": ["0", "two"],
    "epoch": ["abc", "-1"],
    "lookahead": ["xyz", "-1e-4"],
    "shard_backend": ["bogus", "process"],
    "shard_timeout": ["soon"],
    "ckpt_every": ["0", "x"],
    "ckpt_keep": ["0"],
    "resume": ["maybe", "2", "TRUE"],
    "cache": ["disabled", "-1"],
    "farm_inventory": ["/does/not/exist"],
    "farm_timeout": ["0", "soon"],
    "control_policy": ["bogus"],
    "control_interval": ["0", "nope"],
    "control_hysteresis": ["0.5"],
    "control_cooldown": ["-1"],
}

#: Prerequisites a field's value needs from other fields.
NEEDS = {
    "ckpt_every": {"PNET_CKPT_DIR": "ck"},
    "ckpt_keep": {"PNET_CKPT_DIR": "ck", "PNET_CKPT_EVERY": "1"},
    "resume": {"PNET_CKPT_DIR": "ck"},
}

BAD_ROWS = [(name, text) for name, texts in BAD.items() for text in texts]


def _env(name, text, inventory_file):
    env = dict(NEEDS.get(name, {}))
    env[var(name)] = str(inventory_file) if text == "INVENTORY" else text
    return env


def _value(value, inventory_file):
    return inventory_file if value == "INVENTORY" else value


class TestTable:
    def test_every_field_has_a_row(self):
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        assert len(fields) == 19
        assert sorted(ROWS) == sorted(fields)
        assert set(BAD) | {"ckpt_dir", "cache_dir"} == set(fields)

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_good_value(self, name, inventory_file):
        text, want = ROWS[name][:2]
        config = RunConfig.from_env(_env(name, text, inventory_file))
        assert getattr(config, name) == _value(want, inventory_file)

    @pytest.mark.parametrize("name,text", BAD_ROWS)
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

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_unset_and_empty_mean_default(self, name):
        assert RunConfig.from_env({var(name): ""}) == RunConfig()
        assert RunConfig.from_env({var(name): "  "}) == RunConfig()

    @pytest.mark.parametrize("name,text", BAD_ROWS)
    def test_bad_argument_is_named(self, name, text, inventory_file):
        given = {name: text}
        given.update(
            (field.lower().replace("pnet_", ""), value)
            for field, value in NEEDS.get(name, {}).items()
        )
        with pytest.raises(ConfigError, match=name):
            RunConfig.from_env({}, **given)

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
        env = {"PNET_CACHE": text, "PNET_RESUME": text, "PNET_CKPT_DIR": "d"}
        config = RunConfig.from_env(env)
        assert config.cache is want and config.resume is want

    def test_defaults(self):
        assert RunConfig.from_env({}).cache is True
        assert RunConfig.from_env({}).resume is False


class TestCrossField:
    @pytest.mark.parametrize("given", [
        dict(ckpt_every=1), dict(resume=True),
    ])
    def test_needs_a_checkpoint_dir(self, given):
        with pytest.raises(ConfigError, match="requires a checkpoint dir"):
            RunConfig.from_env({}, **given)
        RunConfig.from_env({}, ckpt_dir="d", **given)

    def test_keep_needs_every(self):
        with pytest.raises(ConfigError, match="requires ckpt_every"):
            RunConfig.from_env({}, ckpt_dir="d", ckpt_keep=2)
        RunConfig.from_env({}, ckpt_dir="d", ckpt_every=1, ckpt_keep=2)

    def test_replace_checks_and_none_keeps(self):
        config = RunConfig.from_env({}, jobs=3)
        assert config.replace(jobs=None) == config
        assert config.replace(jobs=5).jobs == 5
        with pytest.raises(ConfigError, match="jobs"):
            config.replace(jobs=0)
        with pytest.raises(ConfigError, match="requires a checkpoint dir"):
            config.replace(resume=True)


class TestResultTags:
    def test_defaults_add_nothing(self):
        assert RunConfig().result_tags() == ()

    def test_shard_fields_only_when_sharded(self):
        assert RunConfig(shards=2).result_tags() == (("PNET_SHARDS", 2),)
        assert RunConfig(shards=2, epoch=0.0).result_tags() == ()
        assert RunConfig(epoch=5e-4, lookahead=1e-3).result_tags() == ()
        config = RunConfig(shards=2, epoch=5e-4, lookahead=0.0)
        assert config.result_tags() == (
            ("PNET_SHARDS", 2), ("PNET_EPOCH", 5e-4),
            ("PNET_LOOKAHEAD", 0.0),
        )

    def test_off_is_the_unset_key(self):
        assert RunConfig.from_env({"PNET_CONTROL_POLICY": "off"}) == (
            RunConfig.from_env({})
        )

    def test_result_fields_are_the_seven(self):
        assert len(RESULT_FIELDS) == 7
        assert set(RESULT_FIELDS) <= {
            f.name for f in dataclasses.fields(RunConfig)
        }


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
            {"PNET_FARM_INVENTORY": str(inventory_file)}, shards=2
        )
        assert pickle.loads(pickle.dumps(config)) == config


# --- the cache key -----------------------------------------------------------

#: Result fields flipped off their default, over a baseline environment
#: (the shard fields count only on a sharded run).
MISS = {
    "shards": ({}, {"PNET_SHARDS": "2"}),
    "epoch": ({"PNET_SHARDS": "2"}, {"PNET_EPOCH": "5e-4"}),
    "lookahead": ({"PNET_SHARDS": "2"}, {"PNET_LOOKAHEAD": "0"}),
    "control_policy": ({}, {"PNET_CONTROL_POLICY": "flowlet"}),
    "control_interval": ({}, {"PNET_CONTROL_INTERVAL": "1e-4"}),
    "control_hysteresis": ({}, {"PNET_CONTROL_HYSTERESIS": "3"}),
    "control_cooldown": ({}, {"PNET_CONTROL_COOLDOWN": "0.5"}),
}

#: Fields that change no result: flipping them must hit.
HIT = {
    "jobs": {"PNET_JOBS": "2"},
    "shard_backend": {"PNET_SHARD_BACKEND": "local"},
    "shard_timeout": {"PNET_SHARD_TIMEOUT": "5"},
    "farm_timeout": {"PNET_FARM_TIMEOUT": "3"},
    "ckpt_dir": {"PNET_CKPT_DIR": "CK"},
    "ckpt_every": {"PNET_CKPT_DIR": "CK", "PNET_CKPT_EVERY": "1"},
    "ckpt_keep": {
        "PNET_CKPT_DIR": "CK", "PNET_CKPT_EVERY": "1", "PNET_CKPT_KEEP": "1",
    },
    "resume": {"PNET_CKPT_DIR": "CK", "PNET_RESUME": "1"},
}


class TestCacheKey:
    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch, tmp_path):
        for name in ROWS:
            monkeypatch.delenv(var(name), raising=False)
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path / "cache"))

    SPECS = [
        TrialSpec(fn="tests.test_config:config_trial", key=(v,),
                  kwargs={"value": v})
        for v in (1, 2)
    ]

    def test_every_result_field_is_covered(self):
        assert set(MISS) == set(RESULT_FIELDS)
        assert not set(HIT) & set(RESULT_FIELDS)

    @pytest.mark.parametrize("name", sorted(MISS))
    def test_flipping_a_result_field_misses(self, name, monkeypatch):
        base, flip = MISS[name]
        for key, value in base.items():
            monkeypatch.setenv(key, value)
        warm = run_trials(self.SPECS)
        for key, value in flip.items():
            monkeypatch.setenv(key, value)
        cold = run_trials(self.SPECS)
        assert last_stats().trial_cache_hits == 0
        # The trial saw the flipped value.
        assert cold[(1,)][1][name] != warm[(1,)][1][name]

    @pytest.mark.parametrize("name", sorted(HIT))
    def test_flipping_another_field_hits(self, name, monkeypatch, tmp_path):
        warm = run_trials(self.SPECS)
        for key, value in HIT[name].items():
            monkeypatch.setenv(
                key, str(tmp_path / "ck") if value == "CK" else value
            )
        assert run_trials(self.SPECS) == warm
        assert last_stats().trial_cache_hits == 2


# --- entry points fail before any trial ------------------------------------


class TestFailsAtEntry:
    @pytest.mark.parametrize("name,text", BAD_ROWS)
    def test_run_trials(self, name, text, monkeypatch, inventory_file):
        for key, value in _env(name, text, inventory_file).items():
            monkeypatch.setenv(key, value)
        # failing_trial raises RuntimeError; the config must fail first.
        with pytest.raises(ConfigError, match=var(name)):
            run_trials(FAILING)

    @pytest.mark.parametrize("name,text", BAD_ROWS)
    def test_cli_exits_2(self, name, text, monkeypatch, inventory_file,
                         capsys):
        for key, value in _env(name, text, inventory_file).items():
            monkeypatch.setenv(key, value)
        with pytest.raises(SystemExit) as info:
            main(["table1"])
        assert info.value.code == 2
        assert var(name) in capsys.readouterr().err

    def test_resume_without_dir_in_run_trials(self, monkeypatch):
        monkeypatch.delenv("PNET_CKPT_DIR", raising=False)
        with pytest.raises(ConfigError, match="requires a checkpoint dir"):
            run_trials(FAILING, resume=True)

    def test_keep_without_every_in_run_trials(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PNET_CKPT_EVERY", raising=False)
        with pytest.raises(ConfigError, match="requires ckpt_every"):
            run_trials(FAILING, checkpoint_dir=tmp_path,
                       checkpoint_keep_last=2)

    @pytest.mark.parametrize("argv", [
        ["table1", "--resume"],
        ["table1", "--checkpoint-every", "2"],
        ["table1", "--lookahead", "soon"],
        ["table1", "--control-interval", "0"],
        ["table1", "--jobs", "0"],
        ["table1", "--fidelity", "packet"],
        ["table1", "--promote", "0.5"],
    ])
    def test_cli_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "Traceback" not in capsys.readouterr().err


class TestArgumentsCompleteTheEnvironment:
    """Arguments are put in before any check runs: an argument may
    complete a rule the environment starts, or make a variable moot."""

    @pytest.fixture(autouse=True)
    def _clean(self, monkeypatch):
        monkeypatch.setenv("PNET_CACHE", "0")
        for name in ("ckpt_dir", "ckpt_every", "resume"):
            monkeypatch.delenv(var(name), raising=False)

    def test_current_puts_arguments_in_first(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PNET_RESUME", "1")
        with pytest.raises(ConfigError, match="requires a checkpoint dir"):
            current()
        assert current(ckpt_dir=tmp_path).resume is True
        with use(RunConfig(ckpt_dir=tmp_path, resume=True)):
            assert current(ckpt_dir=tmp_path / "b").resume is True

    def test_env_resume_with_a_dir_argument_resumes(self, tmp_path,
                                                     monkeypatch):
        specs = TestCacheKey.SPECS
        run_trials(specs, checkpoint_dir=tmp_path, checkpoint_every=1)
        monkeypatch.setenv("PNET_RESUME", "1")
        run_trials(specs, checkpoint_dir=tmp_path)
        assert last_stats().resumed_trials == 2

    def test_env_interval_with_a_dir_argument_writes(self, tmp_path,
                                                      monkeypatch):
        from repro.ckpt import list_checkpoints

        monkeypatch.setenv("PNET_CKPT_EVERY", "1")
        run_trials(TestCacheKey.SPECS, checkpoint_dir=tmp_path)
        assert list_checkpoints(tmp_path, valid_only=True)


class TestFlagsMeanWhatTheySay:
    def test_resume_off_spellings_do_not_resume(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("PNET_CACHE", "0")
        specs = TestCacheKey.SPECS
        run_trials(specs, checkpoint_dir=tmp_path, checkpoint_every=1)
        monkeypatch.setenv("PNET_CKPT_DIR", str(tmp_path))
        for text in ("no", "false", "off"):
            monkeypatch.setenv("PNET_RESUME", text)
            run_trials(specs)
            assert last_stats().resumed_trials == 0, text
        monkeypatch.setenv("PNET_RESUME", "yes")
        run_trials(specs)
        assert last_stats().resumed_trials == 2

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


def test_farm_environ_use_is_the_authkey_only():
    for module in ("farm/transport.py", "farm/worker.py"):
        source = (SRC / module).read_text()
        for line in source.splitlines():
            if "os.environ" in line:
                assert "AUTHKEY_ENV" in line or "dict(os.environ)" in line
