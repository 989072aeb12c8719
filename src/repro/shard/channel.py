"""Barrier channels between the shard engine and its workers.

Two interchangeable backends drive the *same* worker logic
(:func:`repro.shard.worker.handle_message`):

* ``local`` -- the worker object lives in the engine process and
  messages are plain function calls.  Zero IPC cost; used for
  ``run_packet_trial(backend="local")``, for tests, and as the reference
  behaviour ``shm`` must match byte-for-byte.
* ``shm`` -- one process per shard, every message one pickled frame
  over a pair of ``multiprocessing.shared_memory`` ring buffers
  (:mod:`repro.shard.shm`).  The default.

Both backends present the same calls to the engine: ``post(message)``
enqueues a request without waiting, ``collect() -> reply`` blocks for
the matching reply, and ``rpc(message)`` is the post+collect
convenience.  The post/collect split is what lets the engine dispatch
one barrier to *all* workers before waiting on any of them -- the
difference between serialised and parallel epoch execution.

Replies are ``(tag, payload)`` tuples; a worker-side exception comes
back as ``("error", traceback_text)`` and is re-raised in the engine
as :class:`ShardWorkerError`.  ``collect`` never hangs on a dead
worker: the shm channel checks worker liveness while it waits and
honours the optional ``PNET_SHARD_TIMEOUT`` deadline.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from typing import Any, Tuple

Message = Tuple[Any, ...]


class ShardWorkerError(RuntimeError):
    """A shard worker failed; carries the worker-side traceback or a
    death/timeout diagnosis when the worker never replied."""


def _mp_context():
    """Fork-preferred multiprocessing context (same policy as exp.runner)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


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
