"""Tests for the event loop, links, and packets."""

import pytest

from repro.sim.events import EventLoop
from repro.sim.link import Queue
from repro.sim.packet import HEADER_BYTES, Packet


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(2.0, lambda: order.append("b"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(3.0, lambda: order.append("c"))
        loop.run()
        assert order == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_ties_break_by_insertion(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append(1))
        loop.schedule(1.0, lambda: order.append(2))
        loop.run()
        assert order == [1, 2]

    def test_until_bound(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(5.0, lambda: fired.append(2))
        loop.run(until=2.0)
        assert fired == [1]
        assert loop.now == 2.0
        loop.run()
        assert fired == [1, 2]

    def test_cancellation(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(1.0, lambda: fired.append(1))
        loop.cancel(event)
        loop.run()
        assert fired == []

    def test_next_time_skips_cancelled(self):
        loop = EventLoop()
        early = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        assert loop.next_time() == 1.0
        loop.cancel(early)
        assert loop.next_time() == 2.0
        loop.run()
        assert loop.next_time() is None

    def test_spent_handles_release_their_callbacks(self):
        # A handle kept after its event fired or was cancelled (a queue's
        # record of a departed packet, a dead retransmit timer) must not
        # keep the callback's objects alive or in checkpoints.
        loop = EventLoop()
        fired = loop.schedule(1.0, lambda: None)
        cancelled = loop.schedule(2.0, lambda: None)
        loop.cancel(cancelled)
        assert cancelled.fn is None
        loop.run(until=1.5)
        assert fired.fn is None

    def test_nested_scheduling(self):
        loop = EventLoop()
        times = []

        def first():
            times.append(loop.now)
            loop.schedule(0.5, lambda: times.append(loop.now))

        loop.schedule(1.0, first)
        loop.run()
        assert times == [1.0, 1.5]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)
        loop.now = 5.0
        with pytest.raises(ValueError):
            loop.schedule_at(1.0, lambda: None)

    def test_max_events_guard(self):
        loop = EventLoop()

        def forever():
            loop.schedule(1.0, forever)

        loop.schedule(1.0, forever)
        with pytest.raises(RuntimeError):
            loop.run(max_events=100)


class _Collector:
    """Terminal route element recording arrivals."""

    def __init__(self, loop):
        self.loop = loop
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.loop.now, packet))


def _packet(route, payload=1460):
    return Packet(flow=None, route=route, payload=payload)


class TestPropagation:
    def test_propagation_delay(self):
        loop = EventLoop()
        sink = _Collector(loop)
        link = Queue(loop, rate=1e9, delay=1e-6)
        pkt = _packet([link, sink])
        pkt.forward()
        loop.run()
        serialisation = (1460 + HEADER_BYTES) * 8 / 1e9
        assert sink.arrivals[0][0] == pytest.approx(serialisation + 1e-6)

    def test_no_reordering(self):
        loop = EventLoop()
        sink = _Collector(loop)
        link = Queue(loop, rate=1e9, delay=1e-6)
        for i in range(3):
            pkt = _packet([link, sink], payload=i + 1)
            pkt.forward()
        loop.run()
        payloads = [p.payload for __, p in sink.arrivals]
        assert payloads == [1, 2, 3]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Queue(EventLoop(), rate=1e9, delay=-1)


class TestQueue:
    def test_serialisation_time(self):
        loop = EventLoop()
        sink = _Collector(loop)
        queue = Queue(loop, rate=1e9)  # 1 Gb/s
        pkt = _packet([queue, sink], payload=1460)
        pkt.forward()
        loop.run()
        expected = (1460 + HEADER_BYTES) * 8 / 1e9
        assert sink.arrivals[0][0] == pytest.approx(expected)

    def test_fifo_back_to_back(self):
        loop = EventLoop()
        sink = _Collector(loop)
        queue = Queue(loop, rate=1e9)
        for i in range(3):
            _packet([queue, sink], payload=1000).forward()
        loop.run()
        per_pkt = (1000 + HEADER_BYTES) * 8 / 1e9
        times = [t for t, __ in sink.arrivals]
        assert times == pytest.approx([per_pkt, 2 * per_pkt, 3 * per_pkt])

    def test_drop_tail(self):
        loop = EventLoop()
        sink = _Collector(loop)
        queue = Queue(loop, rate=1e9, max_packets=2)
        # One in service + 2 buffered + 2 dropped.
        for __ in range(5):
            _packet([queue, sink], payload=1000).forward()
        loop.run()
        assert queue.drops == 2
        assert len(sink.arrivals) == 3
        assert queue.packets_forwarded == 3

    def test_depth_excludes_in_service(self):
        loop = EventLoop()
        sink = _Collector(loop)
        queue = Queue(loop, rate=1e9, max_packets=10)
        for __ in range(3):
            _packet([queue, sink], payload=1000).forward()
        assert queue.depth == 2  # one being serialised
        loop.run()
        assert queue.depth == 0

    def test_validations(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            Queue(loop, rate=0)
        with pytest.raises(ValueError):
            Queue(loop, rate=1e9, max_packets=0)


class TestPacket:
    def test_ack_size_is_header_only(self):
        pkt = Packet(flow=None, route=[], is_ack=True)
        assert pkt.size == HEADER_BYTES

    def test_data_size_includes_header(self):
        pkt = Packet(flow=None, route=[], payload=1460)
        assert pkt.size == 1500
