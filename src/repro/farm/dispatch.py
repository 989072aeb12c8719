"""Trial dispatcher: assign content-hash-keyed trials across farm hosts.

The dispatcher owns all scheduling state (FireSim's
``instance_deploy_manager`` split): it launches one worker agent per
inventory slot through the host's transport, listens for them on a TCP
rendezvous, and streams trial assignments to idle workers.  Workers are
tracked by heartbeat; a worker that crashes, is SIGKILLed, drops its
connection, or goes silent for ``PNET_FARM_TIMEOUT`` seconds is
declared lost and its in-flight trial goes back to the head of the
queue -- flagged for *resume*, so a trial that checkpoints
(``checkpoint_dir``-aware functions, see :mod:`repro.farm.worker`)
continues on another host from its last ``ckpt-%08d`` step instead of
recomputing.

Results are keyed by trial content hash exactly as the single-host
runner keys them, so a farm run's merged output is byte-identical to
``run_trials`` on one machine at any host/worker count: every
assignment carries the result-affecting config fields the key names.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Listener, wait as conn_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import RESULT_FIELDS, current
from repro.farm.inventory import FarmError, Inventory
from repro.farm.transport import WorkerHandle, get_transport
from repro.obs import get_registry

#: How long to wait for the first worker to dial in before giving up.
DEFAULT_CONNECT_TIMEOUT = 60.0


@dataclass
class FarmStats:
    """What one farm dispatch cost, for ``RunStats`` and benchmarks."""

    n_hosts: int = 0
    n_workers: int = 0
    dispatched: int = 0
    #: Trials re-queued because their worker was lost mid-flight.
    reassigned: int = 0
    #: Reassigned trials that resumed from an existing trial checkpoint
    #: on their new worker (rather than recomputing from scratch).
    resumed_elsewhere: int = 0
    completed: int = 0
    wall_seconds: float = 0.0
    #: Human-readable descriptions of every worker loss.
    worker_losses: List[str] = field(default_factory=list)
    #: Per-trial queue wait (ready -> assigned), seconds.
    dispatch_wait_seconds: List[float] = field(default_factory=list)
    #: Loss-detection -> victim-trial-redispatched latency, seconds.
    reassign_seconds: List[float] = field(default_factory=list)


class _Worker:
    """Dispatcher-side view of one agent."""

    def __init__(self, handle: WorkerHandle):
        self.handle = handle
        self.worker_id = handle.worker_id
        self.host = handle.host
        self.conn = None
        self.last_seen = time.monotonic()
        self.inflight: Optional[Tuple] = None  # spec key
        self.lost = False

    def __repr__(self):
        return f"_Worker({self.worker_id}, inflight={self.inflight!r})"


@dataclass
class _Pending:
    """A trial waiting for a worker."""

    spec: Any
    resume: bool = False
    ready_at: float = 0.0
    lost_at: Optional[float] = None


class Dispatcher:
    """Drive a set of trials to completion across an inventory.

    Use :func:`run_on_farm` unless you need the object for status
    callbacks.  ``timeout`` defaults to the current config's
    ``farm_timeout``.  ``on_assign(worker_id, spec, pid)`` fires after each
    assignment is sent (status displays; the recovery drill uses it to
    aim its SIGKILL), ``on_complete(key, value, resumed_step)`` after
    each result lands.
    """

    def __init__(
        self,
        specs: Sequence[Any],
        inventory: Inventory,
        *,
        timeout: Optional[float] = None,
        trial_checkpoint_root=None,
        trial_checkpoint_every: Optional[float] = None,
        content_hash: Optional[Dict[Tuple, str]] = None,
        on_complete: Optional[Callable[[Tuple, Any, Optional[int]], None]] = None,
        on_assign: Optional[Callable[[str, Any, int], None]] = None,
        bind: str = "127.0.0.1",
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        obs=None,
    ):
        if not specs:
            raise FarmError("no trials to dispatch")
        config = current(farm_timeout=timeout)
        self.specs = list(specs)
        self.inventory = inventory.capable(
            config.shard_backend if config.sharded else None
        )
        self.timeout = config.farm_timeout
        # Workers run under their host's config with these put in: the
        # fields that change results, and the backend hosts were picked by.
        self.worker_config = {
            name: getattr(config, name)
            for name in (*RESULT_FIELDS, "shard_backend")
        }
        self.heartbeat = max(min(self.timeout / 4, 2.0), 0.05)
        self.trial_checkpoint_root = trial_checkpoint_root
        self.trial_checkpoint_every = trial_checkpoint_every
        self.on_complete = on_complete
        self.on_assign = on_assign
        self.bind = bind
        self.connect_timeout = connect_timeout
        self.obs = obs if obs is not None else get_registry()
        if content_hash is None:
            from repro.exp.cache import stable_hash
            from repro.exp.runner import _trial_cache_key

            content_hash = {
                spec.key: stable_hash(_trial_cache_key(spec, config))
                for spec in self.specs
            }
        self.content_hash = content_hash
        self.stats = FarmStats(
            n_hosts=len(self.inventory.hosts),
            n_workers=self.inventory.n_slots,
        )
        self.results: Dict[Tuple, Any] = {}
        self._workers: Dict[str, _Worker] = {}
        self._queue: deque = deque()
        self._hello_queue: "queue.Queue" = queue.Queue()
        self._listener: Optional[Listener] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._authkey = os.urandom(16)
        self._stop_accepting = threading.Event()

    # --- worker lifecycle -------------------------------------------------

    def _launch_workers(self) -> None:
        assert self._listener is not None
        host_addr, port = self._listener.address[:2]
        connect = f"{host_addr}:{port}"
        for host in self.inventory.hosts:
            transport = get_transport(host.transport)
            for slot in range(host.slots):
                worker_id = f"{host.name}/{slot}"
                handle = transport.launch(
                    host, worker_id, connect, self._authkey.hex(),
                    self.heartbeat,
                )
                self._workers[worker_id] = _Worker(handle)

    def _accept_loop(self) -> None:
        """Background thread: accept dial-ins, match hellos to workers."""
        assert self._listener is not None
        while not self._stop_accepting.is_set():
            try:
                conn = self._listener.accept()
            except (OSError, EOFError):
                return  # listener closed (shutdown) or bad handshake
            try:
                if not conn.poll(10.0):
                    conn.close()
                    continue
                hello = conn.recv()
            except (EOFError, OSError):
                conn.close()
                continue
            if (
                not isinstance(hello, dict)
                or hello.get("type") != "hello"
            ):
                conn.close()
                continue
            self._hello_queue.put((hello, conn))

    def _admit_hellos(self) -> None:
        while True:
            try:
                hello, conn = self._hello_queue.get_nowait()
            except queue.Empty:
                return
            worker = self._workers.get(hello.get("worker_id"))
            if worker is None or worker.conn is not None or worker.lost:
                conn.close()
                continue
            worker.conn = conn
            worker.last_seen = time.monotonic()

    def _live_workers(self) -> List[_Worker]:
        return [w for w in self._workers.values() if not w.lost]

    def _connected_idle(self) -> List[_Worker]:
        return [
            w for w in self._live_workers()
            if w.conn is not None and w.inflight is None
        ]

    def _declare_lost(self, worker: _Worker, why: str) -> None:
        if worker.lost:
            return
        worker.lost = True
        now = time.monotonic()
        desc = f"{worker.worker_id}: {why}"
        self.stats.worker_losses.append(desc)
        worker.handle.kill()  # a stalled-but-alive worker must not
        # keep computing a trial someone else now owns
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        if worker.inflight is not None:
            spec = self._spec_by_key(worker.inflight)
            self._queue.appendleft(_Pending(
                spec=spec, resume=True, ready_at=now, lost_at=now,
            ))
            self.stats.reassigned += 1
            if self.obs.enabled:
                self.obs.counter("farm.trials_reassigned").inc()
            worker.inflight = None
        if self.obs.enabled:
            self.obs.gauge("farm.workers_live").set(
                len(self._live_workers())
            )

    def _spec_by_key(self, key: Tuple):
        for spec in self.specs:
            if spec.key == key:
                return spec
        raise FarmError(f"unknown trial key {key!r}")  # unreachable

    # --- assignment -------------------------------------------------------

    def _trial_checkpoint_dir(self, spec) -> Optional[str]:
        if self.trial_checkpoint_root is None:
            return None
        digest = self.content_hash[spec.key]
        return str(
            os.path.join(
                str(self.trial_checkpoint_root), f"trial-{digest[:16]}"
            )
        )

    def _assign(self, worker: _Worker, pending: _Pending) -> None:
        now = time.monotonic()
        msg = {
            "type": "run",
            "fn": pending.spec.fn,
            "key": pending.spec.key,
            "kwargs": pending.spec.kwargs,
            "checkpoint_dir": self._trial_checkpoint_dir(pending.spec),
            "checkpoint_every": self.trial_checkpoint_every,
            "resume": pending.resume,
            "config": self.worker_config,
        }
        try:
            worker.conn.send(msg)
        except (OSError, ValueError):
            self._declare_lost(worker, "send failed")
            self._queue.appendleft(pending)
            return
        worker.inflight = pending.spec.key
        self._resume_flag[pending.spec.key] = pending.resume
        self.stats.dispatched += 1
        self.stats.dispatch_wait_seconds.append(now - pending.ready_at)
        if pending.lost_at is not None:
            self.stats.reassign_seconds.append(now - pending.lost_at)
        if self.obs.enabled:
            self.obs.counter("farm.trials_dispatched").inc()
            self.obs.histogram(
                "farm.dispatch_seconds", wallclock=True
            ).observe(now - pending.ready_at)
            self.obs.gauge(
                "farm.host_inflight", host=worker.host.name
            ).set(sum(
                1 for w in self._live_workers()
                if w.host.name == worker.host.name
                and w.inflight is not None
            ))
        if self.on_assign is not None:
            self.on_assign(
                worker.worker_id, pending.spec, worker.handle.pid
            )

    def _host_inflight(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for w in self._live_workers():
            if w.inflight is not None:
                counts[w.host.name] = counts.get(w.host.name, 0) + 1
        return counts

    def _dispatch_ready(self) -> None:
        # Pick the idle worker on the host with the fewest in-flight
        # trials (worker id breaks ties deterministically) instead of
        # filling hosts in inventory order: assignments spread across
        # the farm, so one lost host strands the fewest trials and no
        # host runs at full slot count while others idle.
        while self._queue:
            idle = self._connected_idle()
            if not idle:
                return
            inflight = self._host_inflight()
            worker = min(
                idle,
                key=lambda w: (
                    inflight.get(w.host.name, 0), w.worker_id
                ),
            )
            self._assign(worker, self._queue.popleft())

    # --- inbound messages -------------------------------------------------

    def _handle_message(self, worker: _Worker, msg: Dict[str, Any]) -> None:
        worker.last_seen = time.monotonic()
        kind = msg.get("type")
        if kind == "heartbeat":
            return
        if kind == "result":
            key = msg["key"]
            worker.inflight = None
            if key in self.results:
                return  # a revived straggler double-computed; identical
            self.results[key] = msg["value"]
            self.stats.completed += 1
            resumed_step = msg.get("resumed_step")
            if resumed_step is not None and self._resume_flag.get(key):
                self.stats.resumed_elsewhere += 1
                if self.obs.enabled:
                    self.obs.counter("farm.trials_resumed").inc()
            if self.on_complete is not None:
                self.on_complete(key, msg["value"], resumed_step)
            return
        if kind == "error":
            raise FarmError(
                f"trial {msg['key']!r} failed on {worker.worker_id}:\n"
                f"{msg['traceback']}"
            )
        raise FarmError(
            f"unexpected message {kind!r} from {worker.worker_id}"
        )

    # --- the main loop ----------------------------------------------------

    def run(self) -> Dict[Tuple, Any]:
        started = time.perf_counter()
        started_mono = time.monotonic()
        now = time.monotonic()
        self._resume_flag: Dict[Tuple, bool] = {}
        self._queue.extend(
            _Pending(spec=spec, ready_at=now) for spec in self.specs
        )
        self._listener = Listener((self.bind, 0), authkey=self._authkey)
        try:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, daemon=True
            )
            self._accept_thread.start()
            self._launch_workers()
            if self.obs.enabled:
                self.obs.gauge("farm.workers_live").set(
                    len(self._live_workers())
                )
            tick = max(min(self.heartbeat / 2, 0.1), 0.02)
            while len(self.results) < len(self.specs):
                self._admit_hellos()
                self._dispatch_ready()
                conns = {
                    w.conn: w
                    for w in self._live_workers()
                    if w.conn is not None
                }
                for ready in conn_wait(list(conns), timeout=tick) if conns \
                        else ():
                    worker = conns[ready]
                    try:
                        msg = ready.recv()
                    except (EOFError, OSError):
                        self._declare_lost(worker, "connection lost")
                        continue
                    self._handle_message(worker, msg)
                self._sweep(started_mono)
            self.stats.wall_seconds = time.perf_counter() - started
            return dict(self.results)
        finally:
            self._shutdown()

    def _sweep(self, started_mono: float) -> None:
        """Detect dead/silent workers; fail fast when nothing can run."""
        now = time.monotonic()
        for worker in self._live_workers():
            if not worker.handle.alive():
                code = worker.handle.exitcode()
                self._declare_lost(worker, f"process exited ({code})")
            elif (
                worker.conn is not None
                and now - worker.last_seen > self.timeout
            ):
                self._declare_lost(
                    worker,
                    f"heartbeat timeout ({self.timeout:g}s)",
                )
        live = self._live_workers()
        if not live:
            raise FarmError(
                "all farm workers lost "
                f"({'; '.join(self.stats.worker_losses)})"
            )
        if (
            not any(w.conn is not None for w in live)
            and now - started_mono > self.connect_timeout
        ):
            raise FarmError(
                f"no worker connected within {self.connect_timeout:g}s "
                "(transport misconfigured, or the dispatcher address "
                "is unreachable from the hosts)"
            )

    def _shutdown(self) -> None:
        self._stop_accepting.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for worker in self._workers.values():
            if worker.conn is not None:
                try:
                    worker.conn.send({"type": "stop"})
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + 5.0
        for worker in self._workers.values():
            if worker.conn is not None:
                try:
                    worker.conn.close()
                except OSError:
                    pass
            remaining = deadline - time.monotonic()
            worker.handle.wait(timeout=max(remaining, 0.1))
        if self.obs.enabled:
            self.obs.gauge("farm.workers_live").set(0)


def run_on_farm(
    specs: Sequence[Any],
    inventory: Inventory,
    **kwargs: Any,
) -> Tuple[Dict[Tuple, Any], FarmStats]:
    """Run ``specs`` across ``inventory``; returns (results, stats).

    See :class:`Dispatcher` for keyword arguments.  Results are keyed
    by ``spec.key`` and are byte-identical to a single-host
    ``run_trials`` of the same specs, whatever the host/worker count
    and however many workers died along the way.
    """
    dispatcher = Dispatcher(specs, inventory, **kwargs)
    results = dispatcher.run()
    return results, dispatcher.stats
