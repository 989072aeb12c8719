"""Unit and stress tests for the shared-memory shard channel.

The shm backend carries pickled messages over SPSC ring buffers;
byte-identity with the local backend (pinned in test_shard_engine)
only holds if the transport is exact.  This file pins the transport
itself: wraparound, chunk streaming, torn-write detection,
backpressure/peer-death handling, waits that block instead of
spinning, and channels driven concurrently.
"""

import random
import struct
import sys
import threading
import time

import pytest

from repro.core.flowspec import FlowSpec
from repro.shard.shm import (
    FRAME_BYTES,
    HEADER_BYTES,
    ShmChannel,
    ShmRing,
    ShmRingClosed,
    ShmRingCorruption,
    ShmRingTimeout,
)
from tests.test_shard_channel_failures import tiny_config

#: CPU seconds a thread may use while blocked for a whole second.  A
#: doorbell wait uses a few milliseconds; a waiter that polls the ring
#: every 100 us uses about 70.
BLOCKED_CPU_SECONDS = 0.020


def make_ring(capacity=256):
    buf = bytearray(HEADER_BYTES + capacity)
    ring = ShmRing(
        buf, 0, capacity, threading.Semaphore(0), threading.Semaphore(0)
    )
    return buf, ring


class TestShmRing:
    def test_roundtrip(self):
        __, ring = make_ring()
        ring.send(b"hello, shard")
        assert ring.recv() == b"hello, shard"
        assert ring.write_pos == ring.read_pos

    def test_empty_message(self):
        __, ring = make_ring()
        ring.send(b"")
        assert ring.recv() == b""

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            make_ring(capacity=FRAME_BYTES)

    def test_wraparound_many_messages(self):
        # Positions are monotonic u64s; a 64-byte ring crossed hundreds
        # of times exercises every split-copy alignment.
        __, ring = make_ring(capacity=64)
        rng = random.Random(7)
        for i in range(400):
            payload = bytes(
                rng.randrange(256) for __ in range(rng.randrange(0, 40))
            )
            ring.send(payload)
            assert ring.recv() == payload, f"message {i} corrupted"
        assert ring.write_pos > 64  # actually wrapped, many times

    def test_chunk_streaming_larger_than_capacity(self):
        # A message bigger than the whole ring must stream through in
        # chunks while a concurrent reader drains it (this is how
        # snapshot blobs travel).
        __, ring = make_ring(capacity=64)
        payload = random.Random(11).randbytes(10_000)
        out = []
        reader = threading.Thread(
            target=lambda: out.append(ring.recv(timeout=10))
        )
        reader.start()
        ring.send(payload, timeout=10)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert out == [payload]

    def test_interleaved_chunked_messages(self):
        __, ring = make_ring(capacity=64)
        payloads = [random.Random(i).randbytes(200) for i in range(8)]
        out = []

        def drain():
            for __ in payloads:
                out.append(ring.recv(timeout=10))

        reader = threading.Thread(target=drain)
        reader.start()
        for payload in payloads:
            ring.send(payload, timeout=10)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert out == payloads

    def test_backpressure_timeout_when_reader_stalls(self):
        __, ring = make_ring(capacity=64)
        ring.send(b"x" * 40)  # parked unread: reader is behind
        with pytest.raises(ShmRingTimeout, match="ring space"):
            ring.send(b"y" * 40, timeout=0.05)

    def test_recv_timeout_on_empty_ring(self):
        __, ring = make_ring()
        with pytest.raises(ShmRingTimeout, match="ring data"):
            ring.recv(timeout=0.05)

    def test_peer_death_raises_closed(self):
        __, ring = make_ring()
        with pytest.raises(ShmRingClosed, match="peer died"):
            ring.recv(alive=lambda: False)

    def test_publish_beats_peer_death_race(self):
        # The waiter re-checks readiness after the liveness callback
        # trips: a message published right before death is delivered.
        __, ring = make_ring()
        ring.send(b"last words")
        assert ring.recv(alive=lambda: False) == b"last words"

    def test_torn_payload_fails_crc(self):
        buf, ring = make_ring()
        ring.send(b"precious coupling digest")
        buf[HEADER_BYTES + FRAME_BYTES] ^= 0xFF  # flip first payload byte
        with pytest.raises(ShmRingCorruption, match="CRC"):
            ring.recv()

    def test_impossible_frame_length_detected(self):
        __, ring = make_ring(capacity=64)
        # Forge a published frame whose length exceeds the ring: a torn
        # or trampled header must fail loudly, not allocate garbage.
        struct.pack_into(
            "<II", ring._view, HEADER_BYTES, 1 << 20, 0
        )
        ring.write_pos = FRAME_BYTES
        with pytest.raises(ShmRingCorruption, match="exceeds ring capacity"):
            ring.recv()


def _cpu_of(target, out):
    """Run ``target`` and append the CPU seconds this thread spent."""
    started = time.thread_time()
    target()
    out.append(time.thread_time() - started)


class TestBlockingWaits:
    def test_blocked_reader_burns_no_cpu(self):
        __, ring = make_ring()
        got, used = [], []
        reader = threading.Thread(
            target=_cpu_of,
            args=(lambda: got.append(ring.recv(timeout=10)), used),
        )
        writer = threading.Thread(
            target=lambda: (time.sleep(1.0), ring.send(b"late"))
        )
        reader.start()
        writer.start()
        for thread in (writer, reader):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert got == [b"late"]
        assert used[0] < BLOCKED_CPU_SECONDS

    def test_blocked_writer_burns_no_cpu(self):
        __, ring = make_ring(capacity=64)
        first = b"x" * (64 - FRAME_BYTES)
        ring.send(first)  # the ring is full
        used = []
        writer = threading.Thread(
            target=_cpu_of,
            args=(lambda: ring.send(b"second", timeout=10), used),
        )
        writer.start()
        time.sleep(1.0)
        assert writer.is_alive()  # still waiting for space
        assert ring.recv() == first
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert ring.recv() == b"second"
        assert used[0] < BLOCKED_CPU_SECONDS


class TestConcurrentChannels:
    def test_each_thread_hears_its_own_worker(self):
        # More channels than a 2-CPU host has cores, each driven by its
        # own thread.  A worker's first event is its own flow's start,
        # so a digest names the worker that sent it.
        n_channels, round_trips = 4, 200
        starts = [(index + 1) * 1e-3 for index in range(n_channels)]
        channels = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for start in starts:
                flow = FlowSpec(
                    src="h0", dst="h1", size=1000,
                    paths=[(0, ["h0", "s", "h1"])], at=start,
                )
                channels.append(ShmChannel(tiny_config([(0, flow)])))
            heard = [[] for __ in channels]

            def drive(channel, out):
                for __ in range(round_trips):
                    out.append(channel.rpc(("digest",))[1]["next"])

            threads = [
                threading.Thread(target=drive, args=(channel, out))
                for channel, out in zip(channels, heard)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
            for channel in channels:
                channel.close()
        assert heard == [[start] * round_trips for start in starts]
        assert not any(channel._proc.is_alive() for channel in channels)
