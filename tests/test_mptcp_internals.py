"""White-box tests for MPTCP scheduling and coupling internals."""

import pytest

from repro.sim.events import EventLoop
from repro.sim.link import Queue
from repro.sim.mptcp import MptcpSource, _CoupledSubflow
from repro.sim.tcp import TcpSink
from repro.units import Gbps


def wire(loop, subflow, sink, rate=10 * Gbps, prop=1e-6):
    subflow.route_out = [Queue(loop, rate, delay=prop), sink]
    sink.route_back = [Queue(loop, rate, delay=prop), subflow]


class TestScheduler:
    def test_grants_bounded_by_remaining(self):
        loop = EventLoop()
        source = MptcpSource(loop, size=3000, n_subflows=2)
        assert source.request(1460) == 1460
        assert source.request(1460) == 1460
        assert source.request(1460) == 80  # only the tail remains
        assert source.request(1460) == 0
        assert source.remaining == 0

    def test_bytes_never_double_assigned(self):
        loop = EventLoop()
        source = MptcpSource(loop, size=100 * 1460, n_subflows=3)
        for subflow in source.subflows:
            sink = TcpSink(loop)
            wire(loop, subflow, sink)
        source.start()
        loop.run()
        assert source.completed
        assert sum(sf.assigned for sf in source.subflows) == 100 * 1460

    def test_faster_subflow_carries_more(self):
        loop = EventLoop()
        source = MptcpSource(loop, size=400 * 1460, n_subflows=2)
        fast, slow = source.subflows
        wire(loop, fast, TcpSink(loop), rate=40 * Gbps)
        wire(loop, slow, TcpSink(loop), rate=10 * Gbps)
        source.start()
        loop.run()
        assert source.completed
        assert fast.assigned > slow.assigned


class TestCompletion:
    def test_completion_callback_once(self):
        loop = EventLoop()
        done = []
        source = MptcpSource(
            loop, size=10 * 1460, n_subflows=2,
            on_complete=lambda s: done.append(s),
        )
        for subflow in source.subflows:
            wire(loop, subflow, TcpSink(loop))
        source.start()
        loop.run()
        assert done == [source]
        assert source.finish_time is not None
        assert source.acked_bytes == 10 * 1460

    def test_zero_size_completes_immediately(self):
        loop = EventLoop()
        done = []
        source = MptcpSource(
            loop, size=0, n_subflows=2, on_complete=lambda s: done.append(1)
        )
        for subflow in source.subflows:
            wire(loop, subflow, TcpSink(loop))
        source.start()
        assert done == [1]

    def test_aggregate_counters(self):
        loop = EventLoop()
        source = MptcpSource(loop, size=50 * 1460, n_subflows=2)
        for subflow in source.subflows:
            wire(loop, subflow, TcpSink(loop))
        source.start()
        loop.run()
        assert source.packets_sent >= 50
        assert source.retransmits == sum(
            sf.retransmits for sf in source.subflows
        )


class TestCoupling:
    def test_alpha_formula_symmetric_case(self):
        """Equal subflows: coupled increase = 1/N of uncoupled."""
        loop = EventLoop()
        source = MptcpSource(loop, size=10**6, n_subflows=2)
        a, b = source.subflows
        for sf in (a, b):
            sf.cwnd = 10 * 1460.0
            sf.srtt = 100e-6
        before = a.cwnd
        a._ca_increase(1460)
        # alpha = total * (c/r^2) / (2c/r)^2 = 1/2 per RFC 6356; increase
        # = alpha * mss^2 / total = mss^2 / (2 * total) = uncoupled / 4...
        uncoupled = 1460 * 1460 / before
        gained = a.cwnd - before
        assert gained < uncoupled
        assert gained > 0

    def test_validations(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            MptcpSource(loop, size=-1, n_subflows=2)
        with pytest.raises(ValueError):
            MptcpSource(loop, size=10, n_subflows=0)
