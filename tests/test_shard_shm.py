"""Unit and stress tests for the shared-memory shard channel.

The shm backend carries pickled messages over SPSC ring buffers;
byte-identity with the local backend (pinned in test_shard_engine)
only holds if the transport is exact.  This file pins the transport
itself: wraparound, chunk streaming, torn-write detection, and
backpressure/peer-death handling.
"""

import random
import struct
import threading

import pytest

from repro.shard.shm import (
    FRAME_BYTES,
    HEADER_BYTES,
    ShmRing,
    ShmRingClosed,
    ShmRingCorruption,
    ShmRingTimeout,
)


def make_ring(capacity=256):
    buf = bytearray(HEADER_BYTES + capacity)
    return buf, ShmRing(buf, 0, capacity)


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
        buf = bytearray(HEADER_BYTES + FRAME_BYTES)
        with pytest.raises(ValueError, match="capacity"):
            ShmRing(buf, 0, FRAME_BYTES)

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
