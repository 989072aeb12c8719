"""The thin farm worker agent (``python -m repro farm worker``).

A worker dials the dispatcher's listener, introduces itself, then loops:
receive one trial assignment, run it, send the result back.  A
background thread heartbeats on the same connection so the dispatcher
can tell a busy worker from a dead one (``PNET_FARM_TIMEOUT``).

Trial functions are the runner's usual module-level callables, called
with the assignment's kwargs and nothing else; a trial whose worker
dies is recomputed from scratch on another one.  Each result carries
the trial's cache content hash as this host computed it -- function,
kwargs and the source of the ``repro`` package it imported -- so the
dispatcher can refuse a result produced by other code.

A trial runs under :func:`repro.config.worker_config`: this host's
config, so cache paths stay local.
"""

from __future__ import annotations

import argparse
import os
import platform
import threading
import time
import traceback
from multiprocessing.connection import Client
from typing import Any, Dict, List, Optional

from repro.farm.inventory import FarmError
from repro.farm.transport import AUTHKEY_ENV

#: Protocol revision; the dispatcher refuses a worker with another one.
#: v2: no checkpoint fields, and every result carries its content hash.
PROTOCOL = 2


class _Heartbeat(threading.Thread):
    """Send periodic heartbeats over the (locked) connection."""

    def __init__(self, conn, lock: threading.Lock, interval: float):
        super().__init__(daemon=True)
        self._conn = conn
        self._lock = lock
        self._interval = interval
        self._stop = threading.Event()

    def run(self):
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    self._conn.send({"type": "heartbeat", "t": time.time()})
            except (OSError, ValueError):
                return  # dispatcher gone; main loop will notice too

    def stop(self):
        self._stop.set()


def execute_assignment(msg: Dict[str, Any]) -> Dict[str, Any]:
    """Run one dispatched trial; returns the result (or error) message.

    Split out of the connection loop so tests can drive assignments
    without sockets.  The artifact cache is populated exactly as the
    in-process runner would, so a farm host warms its own local cache.
    """
    from repro.config import use, worker_config
    from repro.exp import cache as _cache
    from repro.exp.runner import TrialSpec, _trial_cache_key, resolve_fn

    key = msg["key"]
    started = time.perf_counter()
    try:
        config = worker_config()
        fn = resolve_fn(msg["fn"])
        spec = TrialSpec(fn=msg["fn"], key=key, kwargs=dict(msg["kwargs"]))
        cache_key = _trial_cache_key(spec)
        digest = _cache.content_hash(cache_key)
        with use(config):
            value = fn(**spec.kwargs)
            _cache.get_cache().put("trial", cache_key, value)
        return {
            "type": "result",
            "key": key,
            "value": value,
            "hash": digest,
            "seconds": time.perf_counter() - started,
        }
    except BaseException as exc:  # report, let the dispatcher decide
        return {
            "type": "error",
            "key": key,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


def serve(
    connect: str, worker_id: str, heartbeat: float, authkey: bytes
) -> int:
    host, _, port = connect.rpartition(":")
    if not host or not port.isdigit():
        raise FarmError(f"--connect must be HOST:PORT, got {connect!r}")
    conn = Client((host, int(port)), authkey=authkey)
    lock = threading.Lock()
    with lock:
        conn.send({
            "type": "hello",
            "protocol": PROTOCOL,
            "worker_id": worker_id,
            "pid": os.getpid(),
            "node": platform.node(),
            "cores": os.cpu_count(),
        })
    beat = _Heartbeat(conn, lock, heartbeat)
    beat.start()
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                return 0  # dispatcher closed; nothing left to do
            if msg["type"] == "stop":
                return 0
            if msg["type"] != "run":
                raise FarmError(
                    f"worker {worker_id}: unexpected message "
                    f"{msg['type']!r}"
                )
            reply = execute_assignment(msg)
            with lock:
                conn.send(reply)
    finally:
        beat.stop()
        conn.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro farm worker",
        description="run-farm worker agent (launched by the dispatcher)",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--worker-id", required=True, metavar="ID")
    parser.add_argument(
        "--heartbeat", type=float, default=2.0, metavar="SECONDS"
    )
    args = parser.parse_args(argv)
    authkey_hex = os.environ.get(AUTHKEY_ENV, "")
    if not authkey_hex:
        raise FarmError(
            f"{AUTHKEY_ENV} is not set; workers are launched by the "
            "dispatcher, not by hand"
        )
    return serve(
        args.connect, args.worker_id, args.heartbeat,
        bytes.fromhex(authkey_hex),
    )
