"""Barrier channels between the shard engine and its workers.

Two interchangeable backends drive the *same* worker logic
(:func:`repro.shard.worker.handle_message`):

* ``local`` -- the worker object lives in the engine process and
  messages are plain function calls.  Zero IPC cost; used for
  ``run_packet_trial(backend="local")``, for tests, and as the reference
  behaviour ``shm`` must match byte-for-byte.
* ``shm`` -- one worker process per shard, every message one pickled
  frame over that worker's own duplex :func:`multiprocessing.Pipe`
  (:class:`ProcessChannel`).  The default.  The name is kept from an
  earlier shared-memory transport, and checkpoint manifests record it;
  it means "one process per shard".

Both backends present the same calls to the engine: ``post(message)``
sends a request without waiting, ``collect() -> reply`` blocks for
the matching reply, and ``rpc(message)`` is the post+collect
convenience.  The post/collect split is what lets the engine dispatch
one barrier to *all* workers before waiting on any of them -- the
difference between serialised and parallel epoch execution.

Replies are ``(tag, payload)`` tuples; a worker-side exception comes
back as ``("error", traceback_text)`` and is re-raised in the engine
as :class:`ShardWorkerError`.  ``collect`` never hangs on a dead
worker: its pipe end closes when it dies, which the engine reads as
EOF at once, and the optional ``PNET_SHARD_TIMEOUT`` deadline bounds
a live worker that stops answering.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from collections import deque
from typing import Any, Optional, Tuple

from repro.config import current

Message = Tuple[Any, ...]

#: How often a ``collect`` under a deadline checks the worker's
#: liveness and the deadline while it waits.
WAKE_SECONDS = 0.05

#: How long a worker that exits by itself is given: one sent ``stop``
#: or that replied ``error`` before ``close`` stops it, one whose pipe
#: closed before its exit code is read.
EXIT_SECONDS = 0.25


class ShardWorkerError(RuntimeError):
    """A shard worker failed; carries the worker-side traceback or a
    death/timeout diagnosis when the worker never replied."""


def _mp_context():
    """Fork-preferred multiprocessing context (same policy as exp.runner)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _frame(message: Message) -> bytes:
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


class LocalChannel:
    """In-process endpoint: the worker is a plain object, rpc is a call.

    ``post`` executes the request immediately (there is no concurrency
    to gain in-process) and queues the reply for ``collect``, so the
    engine's post-all-then-collect-all barrier code is backend-
    agnostic.
    """

    def __init__(self, worker, handler):
        self._worker = worker
        self._handler = handler
        self._replies: deque = deque()

    def post(self, message: Message) -> None:
        self._replies.append(self._handler(self._worker, message))

    def collect(self) -> Message:
        reply = self._replies.popleft()
        if reply[0] == "error":
            raise ShardWorkerError(reply[1])
        return reply

    def rpc(self, message: Message) -> Message:
        self.post(message)
        return self.collect()

    def close(self) -> None:
        self._worker = None
        self._replies.clear()


class ProcessChannel:
    """Engine-side endpoint of the ``shm`` backend: one worker process
    over one duplex pipe.

    Same ``post``/``collect``/``rpc``/``close`` surface as
    :class:`LocalChannel`.  The engine keeps only its own pipe end, so
    the worker's end closes exactly when the worker dies.
    """

    def __init__(self, config, timeout: Optional[float] = None):
        self._timeout = current(shard_timeout=timeout).shard_timeout
        #: Whether the worker was asked to exit: sent ``stop``, or it
        #: replied ``error``.  Only such a worker can exit by itself.
        self._exiting = False
        context = _mp_context()
        self._conn, worker_end = context.Pipe()
        try:
            self._proc = context.Process(
                target=worker_main,
                args=(worker_end, self._conn, config),
                daemon=True,
            )
            self._proc.start()
        except BaseException:
            # No worker will ever read (e.g. inside a daemonic
            # process): close the engine's end too.
            self._conn.close()
            raise
        finally:
            worker_end.close()

    def _died(self, when: str) -> ShardWorkerError:
        # The pipe closes as the worker exits; wait the moment until
        # it is reaped, so the exit code is known.
        self._proc.join(timeout=EXIT_SECONDS)
        return ShardWorkerError(
            f"shard worker (pid {self._proc.pid}) died {when} "
            f"(exitcode={self._proc.exitcode})"
        )

    def _await_reply(self) -> None:
        """Return once a reply or EOF is readable; raise when the
        worker is dead or the deadline passes first."""
        deadline = time.monotonic() + self._timeout
        while not self._conn.poll(WAKE_SECONDS):
            if not self._proc.is_alive() and not self._conn.poll():
                raise self._died("mid-barrier")
            if time.monotonic() > deadline:
                raise ShardWorkerError(
                    f"shard worker (pid {self._proc.pid}) sent no "
                    f"barrier reply within {self._timeout}s "
                    "(PNET_SHARD_TIMEOUT)"
                )

    def post(self, message: Message) -> None:
        self._exiting = self._exiting or message[0] == "stop"
        try:
            self._conn.send_bytes(_frame(message))
        except OSError:
            raise self._died("before the barrier request") from None

    def collect(self) -> Message:
        try:
            if self._timeout is not None:
                self._await_reply()
            body = self._conn.recv_bytes()
        except (EOFError, OSError):
            raise self._died("mid-barrier") from None
        reply = pickle.loads(body)
        if reply[0] == "error":
            self._exiting = True
            self.close()
            raise ShardWorkerError(reply[1])
        return reply

    def rpc(self, message: Message) -> Message:
        self.post(message)
        return self.collect()

    def close(self) -> None:
        """Close the pipe and reap the worker."""
        self._conn.close()
        if self._proc.is_alive():
            # A healthy worker would exit on the pipe's EOF too, but
            # only one asked to exit is given the moment to.
            if self._exiting:
                self._proc.join(timeout=EXIT_SECONDS)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=5)


def worker_main(conn, engine_end, config) -> None:
    """Worker-process entry point: serve barrier requests over the pipe.

    Every request goes through :func:`repro.shard.worker.handle_message`,
    the dispatch the local backend calls directly; the worker stops
    after a ``result`` or ``error`` reply.  It first closes its copy of
    the engine's pipe end, so when the engine process goes away --
    SIGKILL included -- the pipe reads EOF and the worker exits.  A
    worker forked later also holds copies of earlier workers' engine
    ends, so after an engine crash the workers exit newest first.
    """
    from repro.shard.worker import build_worker, handle_message

    engine_end.close()
    try:
        worker = build_worker(config)
        startup_error = None
    except Exception:
        worker, startup_error = None, traceback.format_exc()
    while True:
        try:
            body = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if startup_error is not None:
            reply: Message = ("error", startup_error)
        else:
            reply = handle_message(worker, pickle.loads(body))
        try:
            out = _frame(reply)
        except Exception:
            reply = ("error", traceback.format_exc())
            out = _frame(reply)
        try:
            conn.send_bytes(out)
        except OSError:
            return
        if reply[0] in ("result", "error"):
            return
