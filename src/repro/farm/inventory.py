"""Declarative run-farm host inventory.

A farm is described by a list of :class:`HostSpec` entries -- one per
machine -- each naming its transport (``local`` subprocess pool or
``ssh``), how many worker agents to launch there (``slots``), and what
the host can do (core count, which ``PNET_SHARD_BACKEND`` transports
its kernel supports).  The FireSim ``run_farm.py`` /
``externally_provisioned.py`` split is the model: the inventory says
*what exists*, the dispatcher decides *what runs where*.

Inventories are programmatic (:class:`Inventory`, :func:`local_inventory`)
or declarative files -- JSON always, YAML when the interpreter has
``pyyaml`` (the dependency is optional and gated, never required)::

    {"hosts": [
        {"name": "local", "transport": "local", "slots": 2},
        {"name": "bigbox", "transport": "ssh", "address": "10.0.0.7",
         "slots": 16, "cores": 32, "python": "python3",
         "shard_backends": ["local", "shm"]}
    ]}

``PNET_FARM_INVENTORY`` points the experiment runner at an inventory
file; ``PNET_FARM_TIMEOUT`` sets the worker heartbeat timeout in
seconds (a worker silent for longer is declared lost and its in-flight
trial is reassigned).  Both are :class:`~repro.config.RunConfig` fields.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import BACKENDS

KNOWN_TRANSPORTS = ("local", "ssh")


class FarmError(RuntimeError):
    """A run-farm configuration or execution problem."""


@dataclass(frozen=True)
class HostSpec:
    """One machine in the farm.

    Attributes:
        name: unique label; worker ids are ``<name>/<slot>``.
        transport: ``"local"`` (subprocess on this machine, for tests
            and CI) or ``"ssh"`` (remote agent over OpenSSH).
        slots: worker agents to launch on the host -- its trial
            capacity, since each agent runs one trial at a time.
        cores: advertised CPU count (informational; ``slots`` is the
            capacity contract).
        address: ssh destination (``user@host`` or an ``ssh_config``
            alias); required for the ssh transport.
        python: interpreter to exec remotely (ssh only).
        shard_backends: which ``PNET_SHARD_BACKEND`` values the host
            supports (default: all of them); the dispatcher excludes
            hosts that cannot run a sharded trial's requested backend.
        env: extra environment exported to every worker on this host
            (e.g. ``PYTHONPATH`` on machines without an installed
            checkout).
    """

    name: str
    transport: str = "local"
    slots: int = 1
    cores: Optional[int] = None
    address: Optional[str] = None
    python: str = "python3"
    shard_backends: Tuple[str, ...] = BACKENDS
    env: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name or "/" in self.name:
            raise FarmError(
                f"host name must be non-empty and slash-free, "
                f"got {self.name!r}"
            )
        if self.transport not in KNOWN_TRANSPORTS:
            raise FarmError(
                f"host {self.name!r}: unknown transport "
                f"{self.transport!r} ({'|'.join(KNOWN_TRANSPORTS)})"
            )
        if self.slots < 1:
            raise FarmError(
                f"host {self.name!r}: slots must be >= 1, got {self.slots}"
            )
        if self.transport == "ssh" and not self.address:
            raise FarmError(
                f"host {self.name!r}: ssh transport needs an address"
            )
        # Declarative files hand us lists; freeze for hashability.
        object.__setattr__(
            self, "shard_backends", tuple(self.shard_backends)
        )
        for backend in self.shard_backends:
            if backend not in BACKENDS:
                raise FarmError(
                    f"host {self.name!r}: unknown shard backend "
                    f"{backend!r} ({'|'.join(BACKENDS)})"
                )

    def supports_backend(self, backend: str) -> bool:
        return backend in self.shard_backends

    def to_row(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "transport": self.transport,
            "slots": self.slots,
            "cores": self.cores,
            "address": self.address,
            "shard_backends": list(self.shard_backends),
        }


@dataclass(frozen=True)
class Inventory:
    """A validated set of farm hosts."""

    hosts: Tuple[HostSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "hosts", tuple(self.hosts))
        if not self.hosts:
            raise FarmError("inventory has no hosts")
        names = [host.name for host in self.hosts]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise FarmError(f"duplicate host names {dupes}")

    @property
    def n_slots(self) -> int:
        return sum(host.slots for host in self.hosts)

    def capable(self, backend: Optional[str]) -> "Inventory":
        """Hosts that support the given shard backend (all when None)."""
        if backend is None:
            return self
        fit = [h for h in self.hosts if h.supports_backend(backend)]
        if not fit:
            raise FarmError(
                f"no host in the inventory supports shard backend "
                f"{backend!r} (hosts: "
                f"{', '.join(h.name for h in self.hosts)})"
            )
        return Inventory(tuple(fit))

    @classmethod
    def from_data(cls, data: Any) -> "Inventory":
        """Build from parsed file content (``{"hosts": [...]}`` or a list)."""
        if isinstance(data, dict):
            data = data.get("hosts")
        if not isinstance(data, list):
            raise FarmError(
                "inventory must be a list of hosts or "
                "{'hosts': [...]}, got "
                f"{type(data).__name__}"
            )
        hosts = []
        for i, row in enumerate(data):
            if not isinstance(row, dict):
                raise FarmError(f"host entry {i} is not a mapping: {row!r}")
            unknown = set(row) - {
                "name", "transport", "slots", "cores", "address",
                "python", "shard_backends", "env",
            }
            if unknown:
                raise FarmError(
                    f"host entry {i}: unknown keys {sorted(unknown)}"
                )
            try:
                hosts.append(HostSpec(**row))
            except TypeError as exc:
                raise FarmError(f"host entry {i}: {exc}") from None
        return cls(tuple(hosts))

    @classmethod
    def from_file(cls, path) -> "Inventory":
        """Load a JSON (always) or YAML (if pyyaml is present) inventory."""
        import json

        path = pathlib.Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise FarmError(f"cannot read inventory {path}: {exc}")
        try:
            data = json.loads(text)
        except ValueError:
            try:
                import yaml  # optional; never a hard dependency
            except ImportError:
                raise FarmError(
                    f"{path} is not JSON and pyyaml is not installed; "
                    "write the inventory as JSON or install pyyaml"
                ) from None
            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise FarmError(f"cannot parse inventory {path}: {exc}")
        return cls.from_data(data)


def local_inventory(
    workers: int = 2, name: str = "local", env: Optional[Dict[str, str]] = None
) -> Inventory:
    """A one-host local-transport inventory with ``workers`` agents."""
    return Inventory((HostSpec(
        name=name, transport="local", slots=workers,
        cores=os.cpu_count(), env=dict(env or {}),
    ),))


InventoryLike = Union[Inventory, str, pathlib.Path, Sequence[HostSpec]]


def resolve_inventory(farm: Optional[InventoryLike]) -> Optional[Inventory]:
    """Normalise a ``farm=`` argument; ``None`` means "no farm".

    Accepts a live :class:`Inventory`, a sequence of :class:`HostSpec`,
    or a path to an inventory file.
    """
    if farm is None or isinstance(farm, Inventory):
        return farm
    if isinstance(farm, (str, pathlib.Path)):
        return Inventory.from_file(farm)
    return Inventory(tuple(farm))
