"""One resolved run configuration: :class:`RunConfig`.

Each run-wide knob is a field, set by ``PNET_`` + its name in capitals
(``jobs`` <- ``PNET_JOBS``).  An entry point resolves the config once --
arguments over the environment over defaults -- and checks every field
there, so a bad value fails with a :class:`ConfigError` that names the
variable or argument before any trial runs.  :func:`use` makes a config
:func:`current` for the code an entry point runs; the runner hands it
to its pool workers.  No field changes a result, so the trial cache key
names none of them and a farm worker runs under its own host's config.

A sharded packet run is shaped by the arguments of
:func:`repro.shard.run_packet_trial` alone, adaptive control by
``control=`` of :func:`repro.api.run_trial`, and a rerun of a sweep
resumes from the trial cache; the variables that once set them
(:data:`REMOVED`) fail at entry rather than be ignored without a word.
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
#: Farm worker heartbeat timeout (seconds).
DEFAULT_FARM_TIMEOUT = 10.0

#: Variables no longer read -> what to do instead; setting one is a
#: :class:`ConfigError`.
REMOVED = {
    **dict.fromkeys(
        ("PNET_SHARDS", "PNET_EPOCH", "PNET_LOOKAHEAD", "PNET_SHARD_BACKEND"),
        "pass shards=, epoch= and backend= to repro.shard.run_packet_trial",
    ),
    **dict.fromkeys(
        ("PNET_CONTROL_POLICY", "PNET_CONTROL_INTERVAL",
         "PNET_CONTROL_HYSTERESIS", "PNET_CONTROL_COOLDOWN"),
        "pass control= to repro.api.run_trial",
    ),
    **dict.fromkeys(
        ("PNET_CKPT_DIR", "PNET_CKPT_EVERY", "PNET_CKPT_KEEP", "PNET_RESUME"),
        "a rerun resumes from the trial cache; keep PNET_CACHE on and "
        "point PNET_CACHE_DIR at a durable directory",
    ),
}


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


def _real(low: float, strict: bool = False):
    """Numbers ``> low`` (``strict``) or ``>= low``."""
    bound = f"{'>' if strict else '>='} {low:g}"

    def parse(raw: Any, label: str) -> float:
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
    "shard_timeout": _shard_timeout,
    "cache": _flag,
    "cache_dir": lambda raw, label: pathlib.Path(raw).expanduser(),
    "farm_inventory": _inventory,
    "farm_timeout": _real(0.0, strict=True),
}
_VARIABLES = {name: "PNET_" + name.upper() for name in _PARSERS}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Every run-wide knob, checked.  ``None`` leaves an optional field
    unset: the farm is off, shard workers are waited on forever, and the
    cache lives in ``~/.cache/pnet``."""

    scale: str = "small"
    jobs: int = 1
    shard_timeout: Optional[float] = None
    cache: bool = True
    cache_dir: Optional[pathlib.Path] = None
    farm_inventory: Any = None  # an inventory file, or a live inventory
    farm_timeout: float = DEFAULT_FARM_TIMEOUT

    def __post_init__(self):
        for name, parse in _PARSERS.items():
            value = getattr(self, name)
            # Defaults are known good; skipping them keeps resolving a
            # mostly-default config cheap.
            if value is not None and value is not _DEFAULTS[name]:
                object.__setattr__(self, name, parse(value, name))

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None, **given: Any
    ) -> "RunConfig":
        """``given`` over ``environ`` (default ``os.environ``) over the
        defaults.  A ``None`` argument and an unset or empty variable
        all mean "not given"."""
        environ = os.environ if environ is None else environ
        for variable, instead in REMOVED.items():
            raw = environ.get(variable, "").strip()
            if raw:
                raise ConfigError(
                    f"{variable}={raw!r} is no longer read: {instead} "
                    "instead, and unset it"
                )
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


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}

_active: List[RunConfig] = []


def worker_config() -> RunConfig:
    """A farm worker's config for one trial: this host's environment.
    The sweep's own knobs are the dispatcher's, so the host's are not
    read."""
    sweep = ("jobs", "farm_inventory", "farm_timeout")
    skip = {_VARIABLES[name] for name in sweep}
    environ = {k: v for k, v in os.environ.items() if k not in skip}
    return RunConfig.from_env(environ)


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
