"""Failure modes of the shard barrier channel.

A sharded run is only as debuggable as its worst failure message: a
worker that dies or wedges mid-barrier must surface a clear
``ShardWorkerError`` promptly -- never hang the engine.  These tests
kill and stall real worker processes and time the diagnosis.  A run
must also leave no process behind, whether it returns, fails, or its
engine is killed.
"""

import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.config import RunConfig
from repro.core.flowspec import FlowSpec
from repro.shard import run_packet_trial
from repro.shard.channel import ProcessChannel, ShardWorkerError
from repro.shard.partition import ShardPlan
from repro.shard.worker import WorkerConfig
from repro.topology.graph import HOST, TOR, Topology

REPO = pathlib.Path(__file__).parent.parent

#: Generous wall-clock bound on "promptly": a dead worker reads as EOF
#: at once and a deadline is checked every 50 ms; anything near this
#: bound is a hang.
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


def _state(pid):
    """The kernel's one-letter state of ``pid``, or None once it is
    gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


def _outliving(pids, seconds):
    """Those of ``pids`` still running -- neither gone nor a zombie --
    after waiting up to ``seconds`` for them to exit."""
    deadline = time.monotonic() + seconds
    while True:
        left = [pid for pid in pids if _state(pid) not in (None, "Z")]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.01)


def _stop(proc):
    """SIGSTOP a worker and wait until the kernel reports it stopped, so
    it cannot answer a command posted afterwards."""
    os.kill(proc.pid, signal.SIGSTOP)
    deadline = time.monotonic() + DETECT_SECONDS
    while time.monotonic() < deadline:
        if _state(proc.pid) in ("T", "t"):
            return
        time.sleep(0.001)
    raise AssertionError(f"worker pid {proc.pid} did not stop")


def _python(script):
    """A fresh interpreter running ``script`` with the repo importable."""
    env = {
        **os.environ,
        "PYTHONPATH": f"{REPO / 'src'}{os.pathsep}{REPO}",
    }
    return subprocess.Popen(
        [sys.executable, "-c", script],
        env=env, cwd=REPO, stdout=subprocess.PIPE, text=True,
    )


class TestShmBackendFailures:
    def test_failed_start_leaves_no_pipe_end(self, monkeypatch):
        # A worker process that cannot start (here as inside a daemonic
        # pool worker) must leave neither pipe end open, nor a process.
        import repro.shard.channel as channel_module

        context = channel_module._mp_context()
        ends, procs = [], []

        class NoStart:
            def Pipe(self):
                pair = context.Pipe()
                ends.extend(pair)
                return pair

            def Process(self, **kwargs):
                proc = context.Process(**kwargs)

                def start():
                    raise AssertionError(
                        "daemonic processes are not allowed to have "
                        "children"
                    )

                proc.start = start
                procs.append(proc)
                return proc

        monkeypatch.setattr(channel_module, "_mp_context", NoStart)
        with pytest.raises(AssertionError, match="daemonic"):
            ProcessChannel(tiny_config())
        assert len(ends) == 2
        assert all(end.closed for end in ends)
        assert procs[0].pid is None
        assert not multiprocessing.active_children()

    def test_healthy_rpc_roundtrip(self):
        channel = ProcessChannel(tiny_config())
        try:
            tag, payload = channel.rpc(("digest",))
            assert tag == "digest"
            assert payload["flows"] == {}
        finally:
            channel.close()

    def test_death_mid_barrier_is_diagnosed_promptly(self):
        channel = ProcessChannel(tiny_config())
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
        channel = ProcessChannel(tiny_config())
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
        channel = ProcessChannel(tiny_config())
        try:
            pid = channel._proc.pid
            channel._proc.kill()
            with pytest.raises(ShardWorkerError, match=rf"pid {pid}"):
                channel.collect()
        finally:
            channel.close()

    def test_death_message_names_exitcode(self):
        channel = ProcessChannel(tiny_config())
        try:
            channel._proc.kill()
            with pytest.raises(ShardWorkerError, match=r"exitcode=-9\b"):
                channel.collect()
        finally:
            channel.close()

    def test_kill_before_post_is_diagnosed(self):
        # The worker may still be dying when the command is sent, so
        # either the post or the matching collect notices.
        channel = ProcessChannel(tiny_config())
        try:
            channel._proc.kill()
            started = time.monotonic()
            with pytest.raises(ShardWorkerError, match="died"):
                channel.post(("digest",))
                channel.collect()
            assert time.monotonic() - started < DETECT_SECONDS
        finally:
            channel.close()

    def test_post_to_a_reaped_worker_is_diagnosed(self):
        channel = ProcessChannel(tiny_config())
        try:
            channel._proc.kill()
            channel._proc.join(timeout=DETECT_SECONDS)
            assert channel._proc.exitcode == -signal.SIGKILL
            with pytest.raises(
                ShardWorkerError,
                match=r"died before the barrier request \(exitcode=-9\)",
            ):
                channel.post(("digest",))
        finally:
            channel.close()

    def test_stuck_worker_hits_deadline(self):
        # The worker is alive but parked on its pipe; a collect with
        # nothing posted must hit the deadline, not hang.
        channel = ProcessChannel(tiny_config(), timeout=0.3)
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
        channel = ProcessChannel(tiny_config(), timeout=0.3)
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
        channel = ProcessChannel(tiny_config())
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
        channel = ProcessChannel(tiny_config(entries=[(0, broken)]))
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
        channel = ProcessChannel(tiny_config())
        try:
            with pytest.raises(
                ShardWorkerError,
                match=r"ValueError: unknown shard message 'bogus'",
            ):
                channel.rpc(("bogus",))
        finally:
            channel.close()

    def test_close_stops_an_idle_worker_at_once(self):
        # A healthy idle worker is not asked to exit, so close stops
        # it without waiting on a join first.
        channel = ProcessChannel(tiny_config())
        assert channel.rpc(("digest",))[0] == "digest"
        started = time.perf_counter()
        channel.close()
        assert time.perf_counter() - started < 0.05
        assert not channel._proc.is_alive()

    def test_close_reaps_worker_and_pipe(self):
        channel = ProcessChannel(tiny_config())
        channel.close()
        assert not channel._proc.is_alive()
        assert channel._proc.exitcode is not None  # waited for
        assert channel._conn.closed


#: Opens three channels, prints their workers' pids, then idles until
#: it is killed.
_THREE_CHANNELS = (
    "import time\n"
    "from repro.shard.channel import ProcessChannel\n"
    "from tests.test_shard_channel_failures import tiny_config\n"
    "channels = [ProcessChannel(tiny_config()) for __ in range(3)]\n"
    "print(*(channel._proc.pid for channel in channels), flush=True)\n"
    "time.sleep(60)\n"
)

#: Runs one two-shard trial and prints the resource tracker's pid
#: (``None`` if it never started).
_ONE_SHARDED_RUN = (
    "from multiprocessing import resource_tracker\n"
    "from repro.shard import run_packet_trial\n"
    "from tests.test_shard_engine import jellyfish_workload\n"
    "pnet, specs = jellyfish_workload(n_flows=2)\n"
    "run_packet_trial(pnet.planes, specs, shards=2, backend='shm')\n"
    "print(getattr(resource_tracker._resource_tracker, '_pid', 'gone'))\n"
)


class TestNoProcessLeftBehind:
    def test_returned_run_leaves_no_child(self):
        from tests.test_shard_engine import jellyfish_workload

        pnet, specs = jellyfish_workload(n_flows=2)
        result = run_packet_trial(pnet.planes, specs, shards=2, backend="shm")
        assert result.n_shards == 2
        assert not multiprocessing.active_children()

    def test_failed_run_leaves_no_child(self):
        # A flow over a link that does not exist fails its worker's
        # build; the error reply ends the run, and every worker with it.
        from tests.test_shard_engine import jellyfish_workload

        pnet, specs = jellyfish_workload(n_flows=2)
        src, dst = pnet.hosts[0], pnet.hosts[1]
        specs.append(
            FlowSpec(src=src, dst=dst, size=1000, paths=[(0, [src, dst])])
        )
        with pytest.raises(ShardWorkerError, match="not a live link"):
            run_packet_trial(pnet.planes, specs, shards=2, backend="shm")
        assert not multiprocessing.active_children()

    def test_sharded_run_starts_no_resource_tracker(self):
        proc = _python(_ONE_SHARDED_RUN)
        out, __ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert out.split() == ["None"]

    def test_workers_exit_when_their_engine_is_killed_at_once(self):
        # The engine is SIGKILLed while its newest worker may still be
        # starting.  A worker learns of the engine's death from its
        # pipe's EOF, so none can miss it; five kills, because a
        # start-up race would show in only some of them.
        for attempt in range(5):
            proc = _python(_THREE_CHANNELS)
            pids = []
            try:
                pids = [int(pid) for pid in proc.stdout.readline().split()]
                proc.kill()
                proc.wait(timeout=30)
                assert len(pids) == 3
                left = _outliving(pids, 2.0)
                assert not left, (
                    f"kill {attempt}: workers {left} outlived their engine"
                )
            finally:
                proc.kill()
                proc.wait()
                proc.stdout.close()
                for pid in _outliving(pids, 0):
                    os.kill(pid, signal.SIGKILL)
