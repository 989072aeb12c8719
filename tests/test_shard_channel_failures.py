"""Failure modes of the shard barrier channel.

A sharded run is only as debuggable as its worst failure message: a
worker that dies or wedges mid-barrier must surface a clear
``ShardWorkerError`` promptly -- never hang the engine.  These tests
kill and stall real shared-memory worker processes and time the
diagnosis.
"""

import os
import signal
import time

import pytest

from repro.config import RunConfig
from repro.core.flowspec import FlowSpec
from repro.shard.channel import ShardWorkerError
from repro.shard.partition import ShardPlan
from repro.shard.shm import ShmChannel
from repro.shard.worker import WorkerConfig
from repro.topology.graph import HOST, TOR, Topology

#: Generous wall-clock bound on "promptly": actual detection is a few
#: sleep intervals (~100 us each); anything near this bound is a hang.
DETECT_SECONDS = 10.0


def tiny_planes():
    planes = []
    for i in range(2):
        plane = Topology(name=f"plane{i}")
        plane.add_node("h0", HOST)
        plane.add_node("h1", HOST)
        plane.add_node("s", TOR)
        plane.add_link("h0", "s", capacity=10e9)
        plane.add_link("s", "h1", capacity=10e9)
        planes.append(plane)
    return planes


def tiny_config(entries=()):
    """A worker (no flows by default): cheap to build, parks on its
    channel."""
    return WorkerConfig(
        shard=0,
        plan=ShardPlan.build(2, 2),
        planes=tiny_planes(),
        entries=list(entries),
    )


def _stop(proc):
    """SIGSTOP a worker and wait until the kernel reports it stopped, so
    it cannot answer a command posted afterwards."""
    os.kill(proc.pid, signal.SIGSTOP)
    deadline = time.monotonic() + DETECT_SECONDS
    while time.monotonic() < deadline:
        with open(f"/proc/{proc.pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
        if state in ("T", "t"):
            return
        time.sleep(0.001)
    raise AssertionError(f"worker pid {proc.pid} did not stop")


class TestShmBackendFailures:
    def test_healthy_rpc_roundtrip(self):
        channel = ShmChannel(tiny_config())
        try:
            tag, payload = channel.rpc(("digest",))
            assert tag == "digest"
            assert payload["flows"] == {}
        finally:
            channel.close()

    def test_death_mid_barrier_is_diagnosed_promptly(self):
        channel = ShmChannel(tiny_config())
        try:
            channel._proc.kill()
            started = time.monotonic()
            with pytest.raises(ShardWorkerError, match="died mid-barrier"):
                channel.collect()
            assert time.monotonic() - started < DETECT_SECONDS
        finally:
            channel.close()

    def test_death_with_command_pending(self):
        # The stopped worker holds a posted command it never answers,
        # then dies: the request was delivered, the reply never comes.
        channel = ShmChannel(tiny_config())
        try:
            _stop(channel._proc)
            channel.post(("digest",))
            channel._proc.kill()
            started = time.monotonic()
            with pytest.raises(
                ShardWorkerError,
                match=r"died mid-barrier \(exitcode=-9\)",
            ):
                channel.collect()
            assert time.monotonic() - started < DETECT_SECONDS
        finally:
            channel.close()

    def test_death_message_names_pid(self):
        channel = ShmChannel(tiny_config())
        try:
            pid = channel._proc.pid
            channel._proc.kill()
            with pytest.raises(ShardWorkerError, match=rf"pid {pid}"):
                channel.collect()
        finally:
            channel.close()

    def test_death_message_names_exitcode(self):
        channel = ShmChannel(tiny_config())
        try:
            channel._proc.kill()
            with pytest.raises(ShardWorkerError, match=r"exitcode=-9\b"):
                channel.collect()
        finally:
            channel.close()

    def test_kill_before_post_is_diagnosed(self):
        # The command still fits the ring, so post succeeds; the
        # matching collect must notice the dead worker.
        channel = ShmChannel(tiny_config())
        try:
            channel._proc.kill()
            started = time.monotonic()
            with pytest.raises(ShardWorkerError, match="died"):
                channel.post(("digest",))
                channel.collect()
            assert time.monotonic() - started < DETECT_SECONDS
        finally:
            channel.close()

    def test_stuck_worker_hits_deadline(self):
        # The worker is alive but parked on the command ring; a collect
        # with nothing posted must hit the deadline, not hang.
        channel = ShmChannel(tiny_config(), timeout=0.3)
        try:
            started = time.monotonic()
            with pytest.raises(
                ShardWorkerError,
                match=r"no barrier reply within 0\.3s \(PNET_SHARD_TIMEOUT\)",
            ):
                channel.collect()
            assert time.monotonic() - started < DETECT_SECONDS
            assert channel._proc.is_alive()
        finally:
            channel.close()

    def test_stopped_worker_hits_deadline(self):
        # Unlike the parked worker above, this one owes a reply to a
        # posted command; the deadline must fire all the same.
        channel = ShmChannel(tiny_config(), timeout=0.3)
        try:
            _stop(channel._proc)
            channel.post(("digest",))
            started = time.monotonic()
            with pytest.raises(
                ShardWorkerError,
                match=r"no barrier reply within 0\.3s \(PNET_SHARD_TIMEOUT\)",
            ):
                channel.collect()
            assert time.monotonic() - started < DETECT_SECONDS
            assert channel._proc.is_alive()  # stuck, not dead
        finally:
            os.kill(channel._proc.pid, signal.SIGCONT)
            channel.close()

    def test_deadline_comes_from_env(self, monkeypatch):
        monkeypatch.setenv("PNET_SHARD_TIMEOUT", "0.25")
        assert RunConfig.from_env().shard_timeout == 0.25
        channel = ShmChannel(tiny_config())
        try:
            started = time.monotonic()
            with pytest.raises(
                ShardWorkerError,
                match=r"no barrier reply within 0\.25s \(PNET_SHARD_TIMEOUT\)",
            ):
                channel.collect()
            assert time.monotonic() - started < DETECT_SECONDS
        finally:
            channel.close()

    def test_worker_exception_carries_traceback(self):
        # The worker fails while building its network; the traceback
        # travels back on the first reply.
        broken = FlowSpec(
            src="h0", dst="nowhere", size=1000,
            paths=[(0, ["h0", "nowhere"])],
        )
        channel = ShmChannel(tiny_config(entries=[(0, broken)]))
        try:
            with pytest.raises(
                ShardWorkerError,
                match=r"ValueError: h0->nowhere is not a live link of plane 0",
            ):
                channel.rpc(("digest",))
        finally:
            channel.close()

    def test_command_exception_carries_traceback(self):
        # The worker builds fine and fails while handling a request;
        # the traceback travels back as that request's reply.
        channel = ShmChannel(tiny_config())
        try:
            with pytest.raises(
                ShardWorkerError,
                match=r"ValueError: unknown shard message 'bogus'",
            ):
                channel.rpc(("bogus",))
        finally:
            channel.close()

    def test_close_reaps_worker_and_segment(self):
        channel = ShmChannel(tiny_config())
        name = channel._shm.name
        channel.close()
        assert not channel._proc.is_alive()
        # The segment is unlinked: reattaching by name must fail.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
