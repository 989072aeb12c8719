"""One resolved run configuration: :class:`RunConfig`.

Each run-wide knob is a field, set by ``PNET_`` + its name in capitals
(``jobs`` <- ``PNET_JOBS``).  An entry point resolves the config once --
arguments over the environment over defaults -- and checks every field
there, so a bad value fails with a :class:`ConfigError` that names the
variable or argument before any trial runs.  :func:`use` makes a config
:func:`current` for the code an entry point runs; the runner hands it
to its pool workers, and the farm ships its :data:`RESULT_FIELDS` and
shard backend with every trial.  Those seven fields change results, so
the trial cache key carries each one that is off its default
(:meth:`RunConfig.result_tags`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import operator
import os
import pathlib
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

#: Experiment scale names, smallest first.
SCALES = ("tiny", "small", "full")
#: Shard channel backends: the in-process reference and shared memory.
BACKENDS = ("local", "shm")
#: Epoch barrier spacing (simulated seconds): a handful of fabric RTTs,
#: long enough to amortise barriers, short enough to keep LIA coupling
#: staleness small (tests/test_shard_coupling.py enforces the bound).
DEFAULT_EPOCH = 1e-4
#: Control period (simulated seconds): one order above datacenter RTTs.
DEFAULT_CONTROL_INTERVAL = 1e-3
#: Load-aware moves need the current plane to carry more than this
#: multiple of the target plane's load.
DEFAULT_HYSTERESIS = 2.0
#: Per-flow cooldown (simulated seconds) between load-aware moves.
DEFAULT_COOLDOWN = 0.0
#: Farm worker heartbeat timeout (seconds).
DEFAULT_FARM_TIMEOUT = 10.0

#: The fields that change results, in cache-key order; the first three
#: matter only when trials run on plane shards.
RESULT_FIELDS = (
    "shards", "epoch", "lookahead", "control_policy", "control_interval",
    "control_hysteresis", "control_cooldown",
)


class ConfigError(ValueError):
    """A bad knob, named (variable or argument) with its value."""


# Each parser takes a raw value (environment text or an argument) and
# the label to name in errors, and returns the checked value; a checked
# value parses to itself.


def _integer(raw: Any, label: str) -> int:
    try:
        value = int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        value = 0
    if value < 1:
        raise ConfigError(f"{label} must be an integer >= 1, got {raw!r}")
    return value


def _real(low: float, strict: bool = False, auto: bool = False):
    """Numbers ``> low`` (``strict``) or ``>= low``; with ``auto``, the
    word ``auto`` (or nothing) parses to None."""
    bound = f"{'>' if strict else '>='} {low:g}" + " or 'auto'" * auto

    def parse(raw: Any, label: str) -> Optional[float]:
        if auto and raw in ("", "auto"):
            return None
        try:
            value = float(raw)
        except (TypeError, ValueError):
            value = math.nan
        if not (value > low if strict else value >= low):
            raise ConfigError(
                f"{label} must be a number {bound}, got {raw!r}"
            )
        return value

    return parse


def _choice(*choices: str):
    def parse(raw: Any, label: str) -> str:
        if raw not in choices:
            raise ConfigError(
                f"{label} must be one of {'/'.join(choices)}, got {raw!r}"
            )
        return raw

    return parse


_FLAGS = {"0": False, "false": False, "no": False, "off": False,
          "1": True, "true": True, "yes": True, "on": True}


def _flag(raw: Any, label: str) -> bool:
    if isinstance(raw, bool):
        return raw
    value = _FLAGS.get(str(raw).strip())
    if value is None:
        raise ConfigError(
            f"{label} must be one of {'/'.join(_FLAGS)}, got {raw!r}"
        )
    return value


def _shard_timeout(raw: Any, label: str) -> Optional[float]:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{label} must be a number (<= 0 waits forever), got {raw!r}"
        ) from None
    return value if value > 0 else None


def _control_policy(raw: Any, label: str) -> Optional[str]:
    name = str(raw).strip()
    if name in ("", "off"):
        return None
    from repro.control.policy import POLICIES  # it imports this module

    if name not in POLICIES:
        raise ConfigError(
            f"{label}: unknown control policy {name!r} "
            f"(known: {', '.join(sorted(POLICIES))}, off)"
        )
    return name


def _inventory(raw: Any, label: str) -> Any:
    if not isinstance(raw, (str, os.PathLike)):
        return raw  # a live inventory, checked when the farm starts
    path = pathlib.Path(raw).expanduser()
    if not path.is_file():
        raise ConfigError(f"{label}: no inventory file at {str(raw)!r}")
    return path


_PARSERS: Dict[str, Callable[[Any, str], Any]] = {
    "scale": _choice(*SCALES),
    "jobs": _integer,
    "shards": _integer,
    "epoch": _real(0.0),
    "lookahead": _real(0.0, auto=True),
    "shard_backend": _choice(*BACKENDS),
    "shard_timeout": _shard_timeout,
    "ckpt_dir": lambda raw, label: pathlib.Path(raw).expanduser(),
    "ckpt_every": _integer,
    "ckpt_keep": _integer,
    "resume": _flag,
    "cache": _flag,
    "cache_dir": lambda raw, label: pathlib.Path(raw).expanduser(),
    "farm_inventory": _inventory,
    "farm_timeout": _real(0.0, strict=True),
    "control_policy": _control_policy,
    "control_interval": _real(0.0, strict=True),
    "control_hysteresis": _real(1.0),
    "control_cooldown": _real(0.0),
}
_VARIABLES = {name: "PNET_" + name.upper() for name in _PARSERS}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every run-wide knob, checked.  ``None`` leaves an optional field
    unset: ``lookahead`` is derived per workload, control, checkpoints
    and the farm are off, and the cache lives in ``~/.cache/pnet``."""

    scale: str = "small"
    jobs: int = 1
    shards: int = 1
    epoch: float = DEFAULT_EPOCH
    lookahead: Optional[float] = None
    shard_backend: str = "shm"
    shard_timeout: Optional[float] = None
    ckpt_dir: Optional[pathlib.Path] = None
    ckpt_every: Optional[int] = None
    ckpt_keep: Optional[int] = None
    resume: bool = False
    cache: bool = True
    cache_dir: Optional[pathlib.Path] = None
    farm_inventory: Any = None  # an inventory file, or a live inventory
    farm_timeout: float = DEFAULT_FARM_TIMEOUT
    control_policy: Optional[str] = None
    control_interval: float = DEFAULT_CONTROL_INTERVAL
    control_hysteresis: float = DEFAULT_HYSTERESIS
    control_cooldown: float = DEFAULT_COOLDOWN

    def __post_init__(self):
        for name, parse in _PARSERS.items():
            value = getattr(self, name)
            # Defaults are known good; skipping them keeps resolving a
            # mostly-default config cheap.
            if value is not None and value is not _DEFAULTS[name]:
                object.__setattr__(self, name, parse(value, name))
        for name in ("ckpt_every", "resume"):
            if getattr(self, name) and self.ckpt_dir is None:
                raise ConfigError(
                    f"{name} ({_VARIABLES[name]}) requires a checkpoint "
                    "dir (ckpt_dir / PNET_CKPT_DIR)"
                )
        if self.ckpt_keep is not None and self.ckpt_every is None:
            raise ConfigError(
                "ckpt_keep (PNET_CKPT_KEEP) requires ckpt_every "
                "(PNET_CKPT_EVERY): nothing is written without it"
            )

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None, **given: Any
    ) -> "RunConfig":
        """``given`` over ``environ`` (default ``os.environ``) over the
        defaults.  A ``None`` argument and an unset or empty variable
        all mean "not given"."""
        environ = os.environ if environ is None else environ
        values = {k: v for k, v in given.items() if v is not None}
        for name, variable in _VARIABLES.items():
            raw = environ.get(variable, "").strip()
            if raw and name not in values:
                values[name] = _PARSERS[name](raw, variable)
        return cls(**values)

    def replace(self, **given: Any) -> "RunConfig":
        """This config with the given fields replaced; ``None`` means
        "not given", so a caller's unset keyword keeps this value."""
        changes = {
            k: v for k, v in given.items()
            if v is not None and v != getattr(self, k, None)
        }
        return dataclasses.replace(self, **changes) if changes else self

    @property
    def sharded(self) -> bool:
        """Whether packet trials shard: one shard, or an epoch of 0,
        takes the serial path."""
        return self.shards > 1 and self.epoch > 0

    def result_tags(self) -> tuple:
        """``(variable, value)`` for each result field off its default;
        the shard fields only when sharded."""
        fields = RESULT_FIELDS if self.sharded else RESULT_FIELDS[3:]
        return tuple([
            (_VARIABLES[name], getattr(self, name)) for name in fields
            if getattr(self, name) != _DEFAULTS[name]
        ])


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}

_active: List[RunConfig] = []


def worker_config(shipped: Mapping[str, Any]) -> RunConfig:
    """A farm worker's config for one trial: this host's environment
    with the ``shipped`` fields put in before any check.  The sweep's
    own knobs are the dispatcher's, so the host's are not read."""
    sweep = ("jobs", "ckpt_dir", "ckpt_every", "ckpt_keep", "resume",
             "farm_inventory", "farm_timeout")
    skip = {_VARIABLES[name] for name in (*sweep, *shipped)}
    environ = {k: v for k, v in os.environ.items() if k not in skip}
    return dataclasses.replace(RunConfig.from_env(environ), **shipped)


def current(**given: Any) -> RunConfig:
    """The config of the innermost :func:`use` -- outside any, the
    environment's, resolved afresh -- with ``given`` put in before any
    check runs, so an argument completes or overrides the environment."""
    if _active:
        return _active[-1].replace(**given)
    return RunConfig.from_env(**given)


@contextlib.contextmanager
def use(config: RunConfig) -> Iterator[RunConfig]:
    """Make ``config`` the :func:`current` one inside the block."""
    _active.append(config)
    try:
        yield config
    finally:
        _active.pop()
