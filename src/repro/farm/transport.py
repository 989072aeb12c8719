"""Pluggable worker-launch transports.

A transport turns a :class:`~repro.farm.inventory.HostSpec` into a
running ``python -m repro farm worker`` agent that dials back to the
dispatcher's TCP listener.  The agent is deliberately thin -- all
scheduling state lives in the dispatcher, so losing an agent loses at
most the one trial it was running (which the dispatcher reassigns).

Two transports ship:

* ``local`` -- a subprocess on the dispatcher's machine.  This is the
  CI/test transport and the degenerate "farm of one" case; it inherits
  the parent environment (so ``PYTHONPATH`` setups keep working).
* ``ssh`` -- ``ssh -o BatchMode=yes`` to the host's address, exporting
  the rendezvous via ``env`` on the remote command line.  Requires
  non-interactive key auth and a reachable dispatcher address
  (``bind=`` on the dispatcher side).  Hosts share no filesystem: a
  trial's inputs ride its assignment and its result rides the reply.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Dict, List, Optional

from repro.farm.inventory import FarmError, HostSpec

#: Environment variable carrying the hex connection authkey to workers.
AUTHKEY_ENV = "PNET_FARM_AUTHKEY"


class WorkerHandle:
    """A launched worker agent process (local or the ssh client)."""

    def __init__(self, worker_id: str, host: HostSpec, proc):
        self.worker_id = worker_id
        self.host = host
        self.proc = proc

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def exitcode(self) -> Optional[int]:
        return self.proc.poll()

    def kill(self) -> None:
        if self.alive():
            self.proc.kill()

    def wait(self, timeout: Optional[float] = None) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __repr__(self):
        state = "alive" if self.alive() else f"exit={self.exitcode()}"
        return (
            f"WorkerHandle({self.worker_id} on {self.host.name}, "
            f"pid={self.pid}, {state})"
        )


def _worker_args(
    worker_id: str, connect: str, heartbeat: float
) -> List[str]:
    return [
        "-m", "repro", "farm", "worker",
        "--connect", connect,
        "--worker-id", worker_id,
        "--heartbeat", repr(heartbeat),
    ]


class LocalTransport:
    """Subprocess workers on the dispatcher's own machine."""

    name = "local"

    def launch(
        self,
        host: HostSpec,
        worker_id: str,
        connect: str,
        authkey_hex: str,
        heartbeat: float,
    ) -> WorkerHandle:
        env = dict(os.environ)
        env.update(host.env)
        env[AUTHKEY_ENV] = authkey_hex
        proc = subprocess.Popen(
            [sys.executable] + _worker_args(worker_id, connect, heartbeat),
            env=env,
        )
        return WorkerHandle(worker_id, host, proc)


class SshTransport:
    """Workers launched over non-interactive ssh.

    The remote command exports the rendezvous through ``env(1)`` so no
    shell profile is consulted; ``host.env`` rides the same way (use it
    for ``PYTHONPATH`` on hosts running from a bare checkout).
    """

    name = "ssh"

    #: Options keeping ssh non-interactive and fast to fail.
    SSH_OPTIONS = (
        "-o", "BatchMode=yes",
        "-o", "ConnectTimeout=10",
    )

    def build_argv(
        self,
        host: HostSpec,
        worker_id: str,
        connect: str,
        authkey_hex: str,
        heartbeat: float,
    ) -> List[str]:
        if not host.address:
            raise FarmError(f"host {host.name!r} has no ssh address")
        exports: Dict[str, str] = dict(host.env)
        exports[AUTHKEY_ENV] = authkey_hex
        return (
            ["ssh", *self.SSH_OPTIONS, host.address, "env"]
            + [f"{key}={value}" for key, value in sorted(exports.items())]
            + [host.python]
            + _worker_args(worker_id, connect, heartbeat)
        )

    def launch(
        self,
        host: HostSpec,
        worker_id: str,
        connect: str,
        authkey_hex: str,
        heartbeat: float,
    ) -> WorkerHandle:
        proc = subprocess.Popen(
            self.build_argv(host, worker_id, connect, authkey_hex, heartbeat)
        )
        return WorkerHandle(worker_id, host, proc)


_TRANSPORTS = {
    "local": LocalTransport,
    "ssh": SshTransport,
}


def get_transport(name: str):
    """Instantiate a registered transport by name."""
    try:
        return _TRANSPORTS[name]()
    except KeyError:
        raise FarmError(
            f"unknown transport {name!r} ({'|'.join(_TRANSPORTS)})"
        ) from None
