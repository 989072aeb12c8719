"""Shared-memory barrier channel: pickled messages over SPSC ring buffers.

Messages over a pipe would cost four syscalls per worker per barrier
on top of the pickling.  This module instead gives each worker one
POSIX shared-memory segment holding two single-producer/single-consumer
byte rings (engine->worker commands, worker->engine replies).  Every
message -- barrier ``run`` commands, coupling digests, control samples,
snapshots, results, errors -- travels as one pickled frame, chunk-
streamed so a payload larger than the ring capacity cannot deadlock
the strict request/reply protocol.

Ring protocol
-------------

Each ring is ``[write_pos u64][read_pos u64][data bytes]``; positions
are monotonically increasing byte counts, so ``write_pos - read_pos``
is the unread span and wraparound is plain modular indexing.  A
message is a sequence of chunks, each framed as ``[len|FINAL u32]
[crc32 u32][payload]``.  The writer copies the full frame into the
ring *before* publishing ``write_pos`` (publish-after-write), so a
reader never observes a half-written frame at a published position;
the CRC additionally catches torn frames from a writer that died
mid-copy with the position already advanced, surfacing them as
:class:`ShmRingCorruption` instead of garbage decoding.

A waiting side blocks on one of the ring's two semaphore doorbells and
burns no CPU: the writer rings ``data`` after it publishes
``write_pos``, the reader rings ``space`` after it publishes
``read_pos``.  A doorbell only wakes the waiter, which re-checks the
positions, so a doorbell rung for an earlier chunk costs one extra
look, never a lost message.  The waiter also wakes every
:data:`WAKE_SECONDS` to check its peer's liveness and the optional
deadline, so a dead peer raises :class:`ShmRingClosed` promptly rather
than hanging.

Byte-identity with the in-process ``local`` backend is a hard
requirement (and is pinned by tests): pickle round-trips every int,
float and ``None`` exactly, so the worker sees the engine's message
and the engine the worker's reply field for field.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
import traceback
import zlib
from typing import Callable, List, Optional, Tuple

from multiprocessing import shared_memory

from repro.config import current
from repro.shard.channel import Message, ShardWorkerError, _mp_context

HEADER_BYTES = 16  # two little-endian uint64: write_pos, read_pos
FRAME_BYTES = 8  # u32 chunk length (high bit: FINAL), u32 crc32
FINAL_FLAG = 0x8000_0000

#: Ring capacities (bytes).  Commands are small (a barrier target plus
#: a few floats per spanning connection); replies carry digests and --
#: rarely -- chunk-streamed snapshot blobs, so the reply ring is wider
#: to keep the common digest in one frame.
CMD_CAPACITY = 1 << 16
REPLY_CAPACITY = 1 << 18

#: Longest a waiter blocks on a doorbell before it checks its peer's
#: liveness and its deadline again: how late a dead peer is noticed.
WAKE_SECONDS = 0.05

class ShmRingError(RuntimeError):
    """Base failure of the shared-memory ring."""


class ShmRingCorruption(ShmRingError):
    """A frame failed its CRC or carried an impossible length: the
    writer died mid-frame (torn write) or the buffer was trampled."""


class ShmRingTimeout(ShmRingError):
    """No progress within the deadline while the peer is still alive."""


class ShmRingClosed(ShmRingError):
    """The peer died while the ring still owed us progress."""


class ShmRing:
    """One single-producer/single-consumer byte ring over a buffer slice.

    The engine and the worker each hold a reader on one ring and a
    writer on the other; nothing here locks because each position has
    exactly one writer.  ``buf`` may be any writable buffer (a
    ``SharedMemory.buf`` in production, a ``bytearray`` in unit tests).
    ``data`` and ``space`` are the doorbells, semaphores created at 0
    that both sides share: multiprocessing ones across processes,
    ``threading`` ones in unit tests.
    """

    def __init__(self, buf, offset: int, capacity: int, data, space):
        if capacity <= FRAME_BYTES:
            raise ValueError(f"ring capacity too small: {capacity}")
        self._view = memoryview(buf)[
            offset : offset + HEADER_BYTES + capacity
        ]
        self.capacity = capacity
        self._data = data
        self._space = space

    # --- positions (u64, monotonic; writer owns [0], reader owns [1]) --

    @property
    def write_pos(self) -> int:
        return struct.unpack_from("<Q", self._view, 0)[0]

    @write_pos.setter
    def write_pos(self, value: int) -> None:
        struct.pack_into("<Q", self._view, 0, value)

    @property
    def read_pos(self) -> int:
        return struct.unpack_from("<Q", self._view, 8)[0]

    @read_pos.setter
    def read_pos(self, value: int) -> None:
        struct.pack_into("<Q", self._view, 8, value)

    def reset(self) -> None:
        """Zero both positions (creator-side initialisation)."""
        self.write_pos = 0
        self.read_pos = 0

    def release(self) -> None:
        """Drop the memoryview so the backing segment can close."""
        self._view.release()

    # --- byte-wise circular copies -------------------------------------

    def _copy_in(self, pos: int, payload: bytes) -> None:
        at = pos % self.capacity
        first = min(len(payload), self.capacity - at)
        base = HEADER_BYTES
        self._view[base + at : base + at + first] = payload[:first]
        if first < len(payload):
            rest = len(payload) - first
            self._view[base : base + rest] = payload[first:]

    def _copy_out(self, pos: int, n: int) -> bytes:
        at = pos % self.capacity
        first = min(n, self.capacity - at)
        base = HEADER_BYTES
        out = bytes(self._view[base + at : base + at + first])
        if first < n:
            out += bytes(self._view[base : base + n - first])
        return out

    # --- blocking helpers ----------------------------------------------

    def _wait(
        self,
        bell,
        ready: Callable[[], bool],
        timeout: Optional[float],
        alive: Optional[Callable[[], bool]],
        what: str,
    ) -> None:
        if ready():
            return
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            wake = WAKE_SECONDS
            if deadline is not None:
                wake = max(0.0, min(wake, deadline - time.monotonic()))
            bell.acquire(timeout=wake)
            if ready():
                return
            if alive is not None and not alive():
                # Final check: the peer may have published right before
                # dying.
                if ready():
                    return
                raise ShmRingClosed(
                    f"ring peer died while waiting for {what}"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise ShmRingTimeout(
                    f"no {what} within {timeout}s on shm ring"
                )

    # --- message exchange ----------------------------------------------

    def send(
        self,
        payload: bytes,
        timeout: Optional[float] = None,
        alive: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Publish one message, chunking if it exceeds the free span.

        Chunks stream through the ring as the reader drains it, so a
        message larger than the whole capacity (snapshot blobs) still
        goes through -- the reader accumulates until the FINAL chunk.
        """
        max_chunk = self.capacity - FRAME_BYTES
        offset = 0
        while True:
            chunk = payload[offset : offset + max_chunk]
            offset += len(chunk)
            final = offset >= len(payload)
            need = FRAME_BYTES + len(chunk)
            self._wait(
                self._space,
                lambda: self.capacity - (self.write_pos - self.read_pos)
                >= need,
                timeout,
                alive,
                "ring space",
            )
            length = len(chunk) | (FINAL_FLAG if final else 0)
            frame = struct.pack(
                "<II", length, zlib.crc32(chunk) & 0xFFFFFFFF
            )
            pos = self.write_pos
            self._copy_in(pos, frame)
            self._copy_in(pos + FRAME_BYTES, chunk)
            # Publish only after the full frame is in place.
            self.write_pos = pos + need
            self._data.release()
            if final:
                return

    def recv(
        self,
        timeout: Optional[float] = None,
        alive: Optional[Callable[[], bool]] = None,
    ) -> bytes:
        """Read one full (possibly chunked) message."""
        parts: List[bytes] = []
        while True:
            self._wait(
                self._data,
                lambda: self.write_pos - self.read_pos >= FRAME_BYTES,
                timeout,
                alive,
                "ring data",
            )
            pos = self.read_pos
            length, crc = struct.unpack("<II", self._copy_out(pos, FRAME_BYTES))
            final = bool(length & FINAL_FLAG)
            length &= ~FINAL_FLAG
            if length > self.capacity - FRAME_BYTES:
                raise ShmRingCorruption(
                    f"frame length {length} exceeds ring capacity "
                    f"{self.capacity} (torn or trampled frame header)"
                )
            self._wait(
                self._data,
                lambda: self.write_pos - self.read_pos
                >= FRAME_BYTES + length,
                timeout,
                alive,
                "ring data",
            )
            chunk = self._copy_out(pos + FRAME_BYTES, length)
            if zlib.crc32(chunk) & 0xFFFFFFFF != crc:
                raise ShmRingCorruption(
                    "frame payload failed its CRC (torn write: the "
                    "producer died mid-frame, or the buffer was "
                    "corrupted)"
                )
            # Publishing read_pos frees the span for the writer.
            self.read_pos = pos + FRAME_BYTES + length
            self._space.release()
            parts.append(chunk)
            if final:
                return parts[0] if len(parts) == 1 else b"".join(parts)


def _segment_size() -> int:
    return 2 * HEADER_BYTES + CMD_CAPACITY + REPLY_CAPACITY


def _make_rings(buf, bells) -> Tuple[ShmRing, ShmRing]:
    """(command ring, reply ring) over one shared segment; ``bells``
    are the four doorbells, ``data`` then ``space`` of each ring."""
    cmd_data, cmd_space, reply_data, reply_space = bells
    cmd = ShmRing(buf, 0, CMD_CAPACITY, cmd_data, cmd_space)
    reply = ShmRing(
        buf, HEADER_BYTES + CMD_CAPACITY, REPLY_CAPACITY,
        reply_data, reply_space,
    )
    return cmd, reply


class ShmChannel:
    """Engine-side endpoint of the shared-memory backend.

    Same ``post``/``collect``/``rpc``/``close`` surface as
    :class:`~repro.shard.channel.LocalChannel`; every message is one
    pickled frame over the two rings.
    """

    def __init__(self, config, timeout: Optional[float] = None):
        self._timeout = current(shard_timeout=timeout).shard_timeout
        self._shm = shared_memory.SharedMemory(
            create=True, size=_segment_size()
        )
        self._rings: Tuple[ShmRing, ...] = ()
        self._proc = None
        #: Whether the worker was asked to exit: sent ``stop``, or it
        #: replied ``error``.  Only such a worker can exit by itself.
        self._exiting = False
        try:
            context = _mp_context()
            bells = tuple(context.Semaphore(0) for __ in range(4))
            self._rings = _make_rings(self._shm.buf, bells)
            self._cmd, self._reply = self._rings
            self._cmd.reset()
            self._reply.reset()
            self._proc = context.Process(
                target=shm_worker_main,
                args=(self._shm.name, config, bells),
                daemon=True,
            )
            self._proc.start()
        except BaseException:
            # No worker will ever attach (e.g. inside a daemonic
            # process): free the segment now, or it outlives the run.
            self.close()
            raise

    def _alive(self) -> bool:
        return self._proc.is_alive()

    def post(self, message: Message) -> None:
        body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        self._exiting = self._exiting or message[0] == "stop"
        try:
            self._cmd.send(body, timeout=self._timeout, alive=self._alive)
        except ShmRingClosed:
            raise ShardWorkerError(
                f"shm shard worker (pid {self._proc.pid}) died before "
                f"the barrier request (exitcode={self._proc.exitcode})"
            ) from None
        except ShmRingTimeout:
            raise ShardWorkerError(
                f"shm shard worker (pid {self._proc.pid}) did not drain "
                f"the command ring within {self._timeout}s "
                "(PNET_SHARD_TIMEOUT)"
            ) from None

    def collect(self) -> Message:
        try:
            body = self._reply.recv(
                timeout=self._timeout, alive=self._alive
            )
        except ShmRingClosed:
            raise ShardWorkerError(
                f"shm shard worker (pid {self._proc.pid}) died "
                f"mid-barrier (exitcode={self._proc.exitcode})"
            ) from None
        except ShmRingTimeout:
            raise ShardWorkerError(
                f"shm shard worker (pid {self._proc.pid}) sent no "
                f"barrier reply within {self._timeout}s "
                "(PNET_SHARD_TIMEOUT)"
            ) from None
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
        if self._proc is not None and self._proc.is_alive():
            # A healthy worker parked on the command ring has no EOF
            # to notice, so only one asked to exit is given a moment.
            if self._exiting:
                self._proc.join(timeout=0.25)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=5)
        for ring in self._rings:
            try:
                ring.release()
            except (BufferError, ValueError):  # pragma: no cover
                pass
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, BufferError):  # pragma: no cover
            pass


def shm_worker_main(name: str, config, bells) -> None:
    """Worker-process entry point: serve barrier requests over the rings.

    Every request goes through :func:`repro.shard.worker.handle_message`,
    the dispatch the local backend calls directly; the worker stops
    after a ``result`` or ``error`` reply.  Exits if the engine process
    goes away (re-parented: ``getppid`` changed) so an engine crash
    cannot leak workers blocked on the command ring.
    """
    from repro.shard.worker import build_worker, handle_message

    parent = os.getppid()
    engine_alive = lambda: os.getppid() == parent  # noqa: E731
    shm = shared_memory.SharedMemory(name=name)
    cmd, reply_ring = _make_rings(shm.buf, bells)
    try:
        try:
            worker = build_worker(config)
            startup_error = None
        except Exception:
            worker, startup_error = None, traceback.format_exc()
        while True:
            try:
                body = cmd.recv(alive=engine_alive)
            except ShmRingClosed:
                break
            if startup_error is not None:
                reply: Message = ("error", startup_error)
            else:
                reply = handle_message(worker, pickle.loads(body))
            try:
                out = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                reply = ("error", traceback.format_exc())
                out = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
            try:
                reply_ring.send(out, alive=engine_alive)
            except ShmRingClosed:
                break
            if reply[0] in ("result", "error"):
                break
    finally:
        for ring in (cmd, reply_ring):
            try:
                ring.release()
            except (BufferError, ValueError):  # pragma: no cover
                pass
        shm.close()
