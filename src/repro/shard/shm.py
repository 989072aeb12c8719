"""Shared-memory barrier channel: numpy digests over SPSC ring buffers.

Pickled messages over a pipe would cost four syscalls plus two
pickles per worker per barrier -- the dominant cost of an epoch at the
default 100 us spacing.  This module instead gives each worker one
POSIX shared-memory segment holding two single-producer/single-consumer
byte rings (engine->worker commands, worker->engine replies), and a
fixed-layout ``float64`` packing (:class:`DigestCodec`) for the two
messages the barrier loop actually exchanges: the ``run`` command
(barrier target + coupling updates) and the coupling digest reply.
Everything else -- snapshots, results, errors -- falls back to pickled
blobs over the same rings, chunk-streamed so a payload larger than the
ring capacity cannot deadlock the strict request/reply protocol.

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
:class:`ShmRingCorruption` instead of garbage decoding.  Blocking
sides poll with a liveness callback and optional deadline, so a dead
peer raises :class:`ShmRingClosed` promptly rather than hanging.

Byte-identity with the in-process ``local`` backend is a hard
requirement (and is pinned by tests): the codec packs ints and floats into ``float64``
slots exactly (all integer fields are far below 2**53) and restores
``None`` sentinels from NaN, so a decoded digest compares equal to
the pickled one field-for-field.
"""

from __future__ import annotations

import math
import os
import pickle
import struct
import time
import traceback
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from multiprocessing import shared_memory

from repro.config import current
from repro.shard.channel import Message, ShardWorkerError, _mp_context

HEADER_BYTES = 16  # two little-endian uint64: write_pos, read_pos
FRAME_BYTES = 8  # u32 chunk length (high bit: FINAL), u32 crc32
FINAL_FLAG = 0x8000_0000

#: Ring capacities (bytes).  Commands are tiny (a barrier target plus a
#: few floats per spanning connection); replies carry digests and --
#: rarely -- chunk-streamed snapshot blobs, so the reply ring is wider
#: to keep the common digest in one frame.
CMD_CAPACITY = 1 << 16
REPLY_CAPACITY = 1 << 18

#: Busy-poll iterations before the waiter starts sleeping: barrier
#: replies usually land within microseconds, so a short spin avoids
#: paying a scheduler quantum per epoch.
SPIN_ROUNDS = 2_000
SLEEP_SECONDS = 100e-6

#: Message kind tags (first payload byte).
KIND_NUMPY = b"N"
KIND_PICKLE = b"P"


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
    """

    def __init__(self, buf, offset: int, capacity: int):
        if capacity <= FRAME_BYTES:
            raise ValueError(f"ring capacity too small: {capacity}")
        self._view = memoryview(buf)[
            offset : offset + HEADER_BYTES + capacity
        ]
        self.capacity = capacity

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
        ready: Callable[[], bool],
        timeout: Optional[float],
        alive: Optional[Callable[[], bool]],
        what: str,
    ) -> None:
        for __ in range(SPIN_ROUNDS):
            if ready():
                return
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while not ready():
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
            time.sleep(SLEEP_SECONDS)

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
            parts.append(chunk)
            if final:
                return parts[0] if len(parts) == 1 else b"".join(parts)


#: Digest scalar fields, in layout order, after the per-subflow
#: ``(cwnd, srtt)`` pairs.  (name, none_as_nan, integer)
_DIGEST_SCALARS: Tuple[Tuple[str, bool, bool], ...] = (
    ("remaining", False, True),
    ("acked", False, True),
    ("drained", False, True),  # bool, packed 0/1
    ("drain_time", True, False),
    ("weight", False, False),
    ("demand", False, True),
    ("recovery_cwnd", False, True),
    ("retransmits", False, True),
    ("packets_sent", False, True),
    ("start_time", True, False),
)

#: Run-command slots per spanning connection.
_RUN_SLOTS = 7  # has_view, view_total, view_max, view_sum, has_grant, grant, finalize


class DigestCodec:
    """Fixed float64 layout for one worker's barrier traffic.

    Built deterministically from the worker's config on *both* sides
    of the channel (the engine holds the same config it shipped to the
    worker), so neither end ever transmits the layout itself.  Encodes
    the barrier ``run`` command (engine -> worker) and the coupling
    digest reply (worker -> engine); every other message pickles.
    """

    def __init__(self, config):
        spec_of = dict(config.entries)
        self.gids: List[int] = sorted(config.spanning_share)
        self.subflows: Dict[int, int] = {
            gid: len(config.plan.local_paths(spec_of[gid], config.shard))
            for gid in self.gids
        }
        per_gid = [
            2 * self.subflows[gid] + len(_DIGEST_SCALARS)
            for gid in self.gids
        ]
        self.digest_len = 2 + sum(per_gid)  # [t, next] + per-connection
        self.run_len = 1 + _RUN_SLOTS * len(self.gids)  # [t_target] + ...

    # --- digest (worker -> engine) -------------------------------------

    def encode_digest(self, payload: Dict[str, Any]) -> bytes:
        arr = np.empty(self.digest_len, dtype=np.float64)
        arr[0] = payload["t"]
        nxt = payload["next"]
        arr[1] = math.nan if nxt is None else nxt
        i = 2
        flows = payload["flows"]
        for gid in self.gids:
            part = flows[gid]
            for cwnd, srtt in part["subflows"]:
                arr[i] = cwnd
                arr[i + 1] = math.nan if srtt is None else srtt
                i += 2
            for name, none_as_nan, __ in _DIGEST_SCALARS:
                value = part[name]
                if none_as_nan and value is None:
                    arr[i] = math.nan
                else:
                    arr[i] = value
                i += 1
        return arr.tobytes()

    def decode_digest(self, data: bytes) -> Dict[str, Any]:
        arr = np.frombuffer(data, dtype=np.float64)
        if arr.shape[0] != self.digest_len:
            raise ShmRingCorruption(
                f"digest block has {arr.shape[0]} slots, layout expects "
                f"{self.digest_len}"
            )
        nxt = float(arr[1])
        payload: Dict[str, Any] = {
            "t": float(arr[0]),
            "next": None if math.isnan(nxt) else nxt,
            "flows": {},
        }
        i = 2
        for gid in self.gids:
            subflows = []
            for __ in range(self.subflows[gid]):
                srtt = float(arr[i + 1])
                subflows.append(
                    (float(arr[i]), None if math.isnan(srtt) else srtt)
                )
                i += 2
            part: Dict[str, Any] = {"subflows": subflows}
            for name, none_as_nan, integer in _DIGEST_SCALARS:
                raw = float(arr[i])
                i += 1
                if none_as_nan:
                    part[name] = None if math.isnan(raw) else raw
                elif integer:
                    part[name] = int(raw)
                else:
                    part[name] = raw
            part["drained"] = bool(part["drained"])
            payload["flows"][gid] = part
        return payload

    # --- run command (engine -> worker) --------------------------------

    def encode_run(
        self, t_target: Optional[float], updates: Dict[str, Any]
    ) -> bytes:
        arr = np.zeros(self.run_len, dtype=np.float64)
        arr[0] = math.nan if t_target is None else t_target
        views = updates.get("views", {})
        grants = updates.get("grants", {})
        finalize = set(updates.get("finalize", ()))
        for slot, gid in enumerate(self.gids):
            i = 1 + slot * _RUN_SLOTS
            if gid in views:
                total, max_term, sum_term = views[gid]
                arr[i] = 1.0
                arr[i + 1] = total
                arr[i + 2] = max_term
                arr[i + 3] = sum_term
            if gid in grants:
                arr[i + 4] = 1.0
                arr[i + 5] = grants[gid]
            if gid in finalize:
                arr[i + 6] = 1.0
        return arr.tobytes()

    def decode_run(
        self, data: bytes
    ) -> Tuple[Optional[float], Dict[str, Any]]:
        arr = np.frombuffer(data, dtype=np.float64)
        if arr.shape[0] != self.run_len:
            raise ShmRingCorruption(
                f"run block has {arr.shape[0]} slots, layout expects "
                f"{self.run_len}"
            )
        t_raw = float(arr[0])
        t_target = None if math.isnan(t_raw) else t_raw
        if not self.gids:
            # Mirrors the local backend exactly: workers with no
            # spanning slice get a bare {}.
            return t_target, {}
        updates: Dict[str, Any] = {"views": {}, "grants": {}, "finalize": []}
        for slot, gid in enumerate(self.gids):
            i = 1 + slot * _RUN_SLOTS
            if arr[i] != 0.0:
                updates["views"][gid] = (
                    float(arr[i + 1]),
                    float(arr[i + 2]),
                    float(arr[i + 3]),
                )
            if arr[i + 4] != 0.0:
                updates["grants"][gid] = int(arr[i + 5])
            if arr[i + 6] != 0.0:
                updates["finalize"].append(gid)
        return t_target, updates


def _segment_size() -> int:
    return 2 * HEADER_BYTES + CMD_CAPACITY + REPLY_CAPACITY


def _make_rings(buf) -> Tuple[ShmRing, ShmRing]:
    """(command ring, reply ring) over one shared segment."""
    cmd = ShmRing(buf, 0, CMD_CAPACITY)
    reply = ShmRing(buf, HEADER_BYTES + CMD_CAPACITY, REPLY_CAPACITY)
    return cmd, reply


class ShmChannel:
    """Engine-side endpoint of the shared-memory backend.

    Same ``post``/``collect``/``rpc``/``close`` surface as
    :class:`~repro.shard.channel.LocalChannel`; the barrier ``run``/digest hot path travels as numpy
    blocks, everything else as pickled blobs, all over the two rings.
    """

    def __init__(self, config, timeout: Optional[float] = None):
        self._codec = DigestCodec(config)
        self._timeout = current(shard_timeout=timeout).shard_timeout
        self._shm = shared_memory.SharedMemory(
            create=True, size=_segment_size()
        )
        self._cmd, self._reply = _make_rings(self._shm.buf)
        self._cmd.reset()
        self._reply.reset()
        ctx = _mp_context()
        self._proc = ctx.Process(
            target=shm_worker_main,
            args=(self._shm.name, config),
            daemon=True,
        )
        self._proc.start()

    def _alive(self) -> bool:
        return self._proc.is_alive()

    def post(self, message: Message) -> None:
        if message[0] == "run":
            __, t_target, updates = message
            body = KIND_NUMPY + self._codec.encode_run(t_target, updates)
        else:
            body = KIND_PICKLE + pickle.dumps(
                message, protocol=pickle.HIGHEST_PROTOCOL
            )
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
        if body[:1] == KIND_NUMPY:
            reply: Message = ("digest", self._codec.decode_digest(body[1:]))
        else:
            reply = pickle.loads(body[1:])
        if reply[0] == "error":
            self.close()
            raise ShardWorkerError(reply[1])
        return reply

    def rpc(self, message: Message) -> Message:
        self.post(message)
        return self.collect()

    def close(self) -> None:
        if self._proc.is_alive():
            # A healthy worker parked on the command ring has no EOF
            # to notice; give an exiting one a moment, then stop it.
            self._proc.join(timeout=0.25)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=5)
        for ring in (self._cmd, self._reply):
            try:
                ring.release()
            except (BufferError, ValueError):  # pragma: no cover
                pass
        try:
            self._shm.close()
            self._shm.unlink()
        except (FileNotFoundError, BufferError):  # pragma: no cover
            pass


def shm_worker_main(name: str, config) -> None:
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
    cmd, reply_ring = _make_rings(shm.buf)
    codec = DigestCodec(config)
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
                if body[:1] == KIND_NUMPY:
                    t_target, updates = codec.decode_run(body[1:])
                    message: Message = ("run", t_target, updates)
                else:
                    message = pickle.loads(body[1:])
                reply = handle_message(worker, message)
            if reply[0] == "digest":
                try:
                    out = KIND_NUMPY + codec.encode_digest(reply[1])
                except Exception:
                    reply = ("error", traceback.format_exc())
                    out = KIND_PICKLE + pickle.dumps(reply)
            else:
                out = KIND_PICKLE + pickle.dumps(
                    reply, protocol=pickle.HIGHEST_PROTOCOL
                )
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
