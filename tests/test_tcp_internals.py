"""White-box tests for TCP NewReno mechanics in the packet simulator."""

import pytest

from repro.sim.events import EventLoop
from repro.sim.link import Queue
from repro.sim.packet import Packet
from repro.sim.tcp import TcpSink, TcpSource
from repro.units import Gbps


def wire_direct(loop, source, sink, rate=10 * Gbps, prop=1e-6,
                queue_packets=100):
    """Connect source->sink and back through one link each way."""
    q_out = Queue(loop, rate, max_packets=queue_packets, name="out",
                  delay=prop)
    q_back = Queue(loop, rate, max_packets=queue_packets, name="back",
                   delay=prop)
    source.route_out = [q_out, sink]
    sink.route_back = [q_back, source]
    return q_out


class TestSlowStart:
    def test_cwnd_doubles_per_rtt(self):
        loop = EventLoop()
        done = []
        source = TcpSource(loop, size=200 * 1460,
                           on_complete=lambda s: done.append(s))
        sink = TcpSink(loop)
        wire_direct(loop, source, sink)
        initial = source.cwnd
        source.start()
        # After ~1 RTT (2us prop + serialisation) the first window's ACKs
        # have arrived: cwnd should have grown by the bytes ACKed.
        loop.run(until=5e-6)
        assert source.cwnd > initial
        loop.run()
        assert done and source.snd_una == 200 * 1460

    def test_initial_cwnd_respected(self):
        loop = EventLoop()
        source = TcpSource(loop, size=100 * 1460, initial_cwnd=4)
        sink = TcpSink(loop)
        wire_direct(loop, source, sink)
        source.start()
        # Before any ACK returns, at most 4 segments are in flight.
        assert source.flightsize == 4 * 1460


class TestRto:
    def test_timeout_fires_when_acks_lost(self):
        loop = EventLoop()
        source = TcpSource(loop, size=10 * 1460, min_rto=1e-3)
        sink = TcpSink(loop)
        wire_direct(loop, source, sink)
        # Break the return path: ACKs vanish.
        sink.route_back = [_Blackhole()]
        source.start()
        loop.run(until=5e-3)
        assert source.retransmits > 0
        assert source.cwnd == pytest.approx(1460.0)

    def test_backoff_doubles(self):
        loop = EventLoop()
        source = TcpSource(loop, size=10 * 1460, min_rto=1e-3)
        sink = TcpSink(loop)
        wire_direct(loop, source, sink)
        sink.route_back = [_Blackhole()]
        source.start()
        loop.run(until=20e-3)
        assert source._backoff >= 4


class _Blackhole:
    def receive(self, packet):
        pass


class TestFastRetransmit:
    def test_three_dupacks_trigger_recovery(self):
        loop = EventLoop()
        source = TcpSource(loop, size=100 * 1460)
        sink = TcpSink(loop)
        wire_direct(loop, source, sink)
        source.start()
        loop.run(until=1e-6)  # some packets in flight
        # Simulate 3 duplicate ACKs at snd_una.
        for __ in range(3):
            ack = Packet(flow=source, route=[source], ack=source.snd_una,
                         is_ack=True)
            source._handle_ack(ack)
        assert source.in_recovery
        assert source.retransmits >= 1

    def test_full_ack_exits_recovery(self):
        loop = EventLoop()
        source = TcpSource(loop, size=100 * 1460)
        sink = TcpSink(loop)
        wire_direct(loop, source, sink)
        source.start()
        loop.run(until=1e-6)
        for __ in range(3):
            source._handle_ack(
                Packet(flow=source, route=[source], ack=source.snd_una,
                       is_ack=True)
            )
        recover = source.recover_seq
        source._handle_ack(
            Packet(flow=source, route=[source], ack=recover, is_ack=True,
                   retransmit=True)
        )
        assert not source.in_recovery
        assert source.cwnd == pytest.approx(source.ssthresh)


class TestSink:
    def test_out_of_order_buffering(self):
        loop = EventLoop()
        acks = []

        class AckTap:
            def receive(self, packet):
                acks.append(packet.ack)

        sink = TcpSink(loop)
        sink.route_back = [AckTap()]
        flow = object()
        # Deliver segment 1 before segment 0.
        sink.receive(Packet(flow=flow, route=[sink], payload=1460, seq=1460))
        assert acks[-1] == 0  # still waiting for byte 0
        sink.receive(Packet(flow=flow, route=[sink], payload=1460, seq=0))
        assert acks[-1] == 2920  # both delivered cumulatively

    def test_duplicate_data_reacked(self):
        loop = EventLoop()
        acks = []

        class AckTap:
            def receive(self, packet):
                acks.append(packet.ack)

        sink = TcpSink(loop)
        sink.route_back = [AckTap()]
        flow = object()
        pkt = Packet(flow=flow, route=[sink], payload=1460, seq=0)
        sink.receive(pkt)
        dup = Packet(flow=flow, route=[sink], payload=1460, seq=0)
        sink.receive(dup)
        assert acks == [1460, 1460]

    def test_sink_rejects_acks(self):
        sink = TcpSink(EventLoop())
        with pytest.raises(ValueError):
            sink.receive(Packet(flow=None, route=[sink], is_ack=True))


class TestRttEstimation:
    def test_rto_tracks_srtt(self):
        loop = EventLoop()
        source = TcpSource(loop, size=1460, min_rto=1e-3)
        sink = TcpSink(loop)
        wire_direct(loop, source, sink)
        source.start()
        loop.run()
        assert source.srtt is not None
        assert source.srtt > 0
        assert source.rto >= 1e-3  # clamped to min RTO

    def test_retransmit_samples_discarded(self):
        loop = EventLoop()
        source = TcpSource(loop, size=1460)
        source.srtt = 1.0
        source._handle_ack(
            Packet(flow=source, route=[source], ack=0, is_ack=True,
                   retransmit=True, sent_time=0.0)
        )
        assert source.srtt == 1.0  # unchanged (ack==snd_una, no flight)


class TestValidation:
    def test_size_xor_scheduler(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            TcpSource(loop)
        with pytest.raises(ValueError):
            TcpSource(loop, size=10, scheduler=object())
        with pytest.raises(ValueError):
            TcpSource(loop, size=-1)

    def test_start_requires_route(self):
        source = TcpSource(EventLoop(), size=10)
        with pytest.raises(RuntimeError):
            source.start()
