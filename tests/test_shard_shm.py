"""The ``shm`` backend's process channel under load.

The backend runs one worker process per shard and carries each message
as one pickled frame over that worker's own pipe (the backend's name
is kept from an earlier shared-memory transport).  Byte-identity with
the local backend (pinned in test_shard_engine) only holds if the
transport is exact: this file pins replies larger than a pipe's
buffer, waits that block instead of spinning, and channels driven
concurrently.
"""

import os
import signal
import sys
import threading
import time

from repro.ckpt.snapshot import loads
from repro.core.flowspec import FlowSpec
from repro.shard.channel import ProcessChannel
from tests.test_shard_channel_failures import _stop, tiny_config

#: CPU seconds a thread may use while blocked for a whole second.  A
#: blocked or 50 ms polling wait uses a few milliseconds; a waiter that
#: polls every 100 us uses about 70.
BLOCKED_CPU_SECONDS = 0.020


def _flows(n):
    return [
        (
            gid,
            FlowSpec(
                src="h0", dst="h1", size=1000,
                paths=[(gid % 2, ["h0", "s", "h1"])], at=(gid + 1) * 1e-3,
            ),
        )
        for gid in range(n)
    ]


class TestLargeReplies:
    def test_snapshot_larger_than_64_kib_round_trips(self):
        # A worker's snapshot is the largest reply a run sends; it must
        # arrive whole, and decode to a worker in the same state.
        channel = ProcessChannel(tiny_config(_flows(400)))
        try:
            digest = channel.rpc(("digest",))[1]
            tag, blob = channel.rpc(("snapshot",))
            assert tag == "snapshot"
            assert len(blob) > 1 << 16
            assert loads(blob).digest() == digest
            assert channel.rpc(("digest",))[1] == digest
        finally:
            channel.close()


def _cpu_of(target, out):
    """Run ``target`` and append the CPU seconds this thread spent."""
    started = time.thread_time()
    target()
    out.append(time.thread_time() - started)


def _collect_a_late_reply(timeout):
    """CPU seconds a collect uses on a worker that replies 1 s late.

    The worker is stopped with a request pending and resumed a second
    later, so the collect waits that second.
    """
    channel = ProcessChannel(tiny_config(), timeout=timeout)
    try:
        _stop(channel._proc)
        channel.post(("digest",))
        got, used = [], []
        reader = threading.Thread(
            target=_cpu_of,
            args=(lambda: got.append(channel.collect()[0]), used),
        )
        waker = threading.Timer(
            1.0, os.kill, (channel._proc.pid, signal.SIGCONT)
        )
        started = time.monotonic()
        reader.start()
        waker.start()
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert time.monotonic() - started >= 0.9
        assert got == ["digest"]
        return used[0]
    finally:
        os.kill(channel._proc.pid, signal.SIGCONT)
        channel.close()


class TestBlockingWaits:
    def test_blocked_reader_burns_no_cpu(self):
        assert _collect_a_late_reply(None) < BLOCKED_CPU_SECONDS

    def test_reader_under_a_deadline_burns_no_cpu(self):
        # The deadline's liveness checks wake it every 50 ms, no more.
        assert _collect_a_late_reply(10.0) < BLOCKED_CPU_SECONDS


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
                channels.append(ProcessChannel(tiny_config([(0, flow)])))
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
