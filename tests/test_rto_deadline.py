"""The deadline retransmission timer behaves like an eagerly re-armed one.

:class:`repro.sim.tcp.TcpSource` restarts its timer on every ACK by
moving ``_rtx_deadline``; the pending event re-arms itself there when it
fires early.  These tests pin that the timeouts land at exactly the
times an eager cancel-and-reschedule timer produces, that a deadline
moving earlier gets a fresh event, and that no timer outlives the flows.
"""

from __future__ import annotations

import random

import pytest

from repro.core.flowspec import FlowSpec
from repro.sim.events import EventLoop
from repro.sim.link import Queue
from repro.sim.network import PacketNetwork
from repro.sim.tcp import MAX_RTO, TcpSink, TcpSource
from repro.topology.graph import HOST, TOR, Topology
from repro.units import Gbps


class _EagerTcpSource(TcpSource):
    """Reference: every (re)start cancels the timer and pushes a new one."""

    def _arm_timer(self) -> None:
        self._cancel_timer()
        self._rtx_deadline = self.loop.now + min(
            self.rto * self._backoff, MAX_RTO
        )
        self._rtx_event = self.loop.schedule_at(
            self._rtx_deadline, self._on_timeout
        )


class _RtoLog:
    """Minimal tracer collecting the times of retransmission timeouts."""

    verbose = False

    def __init__(self):
        self.times = []

    def emit(self, kind, t, **fields):
        if kind == "tcp.rto":
            self.times.append(t)


class _Lossy:
    """Drops each packet with probability ``p`` from a seeded stream."""

    def __init__(self, seed, p):
        self.rng = random.Random(seed)
        self.p = p

    def receive(self, packet):
        if self.rng.random() >= self.p:
            packet.forward()


def _lossy_run(source_cls, seed):
    loop = EventLoop()
    log = _RtoLog()
    done = []
    source = source_cls(
        loop, size=300 * 1460, min_rto=200e-6, tracer=log,
        on_complete=lambda s: done.append(loop.now),
    )
    sink = TcpSink(loop)
    source.route_out = [
        _Lossy(seed, 0.05), Queue(loop, 10 * Gbps, delay=2e-6), sink,
    ]
    sink.route_back = [
        _Lossy(seed + 1000, 0.05), Queue(loop, 10 * Gbps, delay=2e-6), source,
    ]
    loop.schedule_at(0.0, source.start)
    loop.run()
    return log.times, done, source.retransmits


@pytest.mark.parametrize("seed", range(6))
def test_timeouts_fire_at_eager_times(seed):
    eager = _lossy_run(_EagerTcpSource, seed)
    lazy = _lossy_run(TcpSource, seed)
    assert eager[0], "scenario produced no timeout"
    assert lazy == eager


def _blackholed_source(loop, log):
    source = TcpSource(loop, size=10 * 1460, min_rto=1e-3, tracer=log)
    source.route_out = [_Lossy(0, 1.0)]  # every packet vanishes
    source.start()
    return source


def test_later_deadline_keeps_the_pending_event():
    loop = EventLoop()
    log = _RtoLog()
    source = _blackholed_source(loop, log)
    first = source._rtx_event
    assert first.time == pytest.approx(1e-3)
    loop.run(until=0.5e-3)
    source._arm_timer()  # an ACK restarting the timer
    assert source._rtx_event is first
    assert source._rtx_deadline == 0.5e-3 + 1e-3
    loop.run(until=1.2e-3)
    assert log.times == []  # fired early, re-armed at the deadline
    loop.run(until=1.6e-3)
    assert log.times == [0.5e-3 + 1e-3]


def test_earlier_deadline_gets_a_fresh_event():
    loop = EventLoop()
    log = _RtoLog()
    source = _blackholed_source(loop, log)
    first = source._rtx_event
    loop.run(until=0.5e-3)
    source.rto = 0.2e-3  # the RTO shrank below the pending event
    source._arm_timer()
    assert first.cancelled
    assert source._rtx_event is not first
    assert source._rtx_event.time == 0.5e-3 + 0.2e-3
    loop.run(until=0.9e-3)
    assert log.times == [0.5e-3 + 0.2e-3]


def _dumbbell():
    topo = Topology("dumbbell")
    for i in range(4):
        topo.add_node(f"h{i}", HOST)
    topo.add_node("t0", TOR)
    topo.add_node("t1", TOR)
    for host, tor in (("h0", "t0"), ("h1", "t0"), ("h2", "t1"), ("h3", "t1")):
        topo.add_link(host, tor, 10 * Gbps, 1e-6)
    topo.add_link("t0", "t1", 10 * Gbps, 1e-6)
    return topo


def test_no_timer_outlives_the_last_flow():
    # MPTCP subflows never finish on their own: their timers must go
    # when their flight size reaches zero.
    net = PacketNetwork([_dumbbell(), _dumbbell()])
    net.add_flow(spec=FlowSpec(
        src="h0", dst="h2", size=400 * 1460,
        paths=[(0, ["h0", "t0", "t1", "h2"]), (1, ["h0", "t0", "t1", "h2"])],
    ))
    net.add_flow(spec=FlowSpec(
        src="h1", dst="h3", size=100 * 1460, at=5e-6,
        paths=[(0, ["h1", "t0", "t1", "h3"])],
    ))
    net.run()
    assert len(net.records) == 2
    assert net.loop.next_time() is None
    assert net.loop.now == max(r.finish for r in net.records)
