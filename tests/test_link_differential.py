"""Differential test: the one-event queue against the two-event reference.

:class:`repro.sim.link.Queue` computes each packet's departure on
arrival and schedules only its arrival at the next element.  The
reference below is the element pair it replaced: a queue that schedules
an end-of-service event per packet, feeding a pipe that schedules the
arrival after the propagation delay.  Both are driven with the same
seeded arrival sequences -- random sizes, rates, buffers, ECN
thresholds, a mid-run rate change and a fail/restore -- whose event
times never coincide, and must agree exactly on every arrival time at
the next element, every drop, ECN mark, depth sample and forwarded
counter.
"""

from __future__ import annotations

import functools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventLoop
from repro.sim.link import Queue
from repro.sim.packet import Packet


class _RefPipe:
    """Reference propagation delay: one event per packet."""

    def __init__(self, loop, delay):
        self.loop = loop
        self.delay = delay

    def receive(self, packet):
        self.loop.schedule(self.delay, packet.forward)


class _RefQueue:
    """Reference drop-tail queue: one end-of-service event per packet.

    A rate change takes effect at the next service start, so a packet's
    service time is fixed when its service begins.
    """

    def __init__(self, loop, rate, max_packets, ecn_threshold):
        self.loop = loop
        self.rate = rate
        self.max_packets = max_packets
        self.ecn_threshold = ecn_threshold
        self._buffer = deque()
        self._busy = False
        self.drops = 0
        self.ecn_marks = 0
        self.packets_forwarded = 0
        self.bytes_forwarded = 0
        self.down = False

    @property
    def depth(self):
        return len(self._buffer)

    def set_rate(self, rate):
        self.rate = rate

    def fail(self):
        self.down = True
        self.drops += len(self._buffer)
        self._buffer.clear()

    def restore(self):
        self.down = False

    def receive(self, packet):
        if self.down:
            self.drops += 1
            return
        if (
            self.ecn_threshold is not None
            and not packet.is_ack
            and len(self._buffer) + self._busy >= self.ecn_threshold
        ):
            packet.ecn_ce = True
            self.ecn_marks += 1
        if not self._busy:
            self._busy = True
            self._serve(packet)
        elif len(self._buffer) < self.max_packets:
            self._buffer.append(packet)
        else:
            self.drops += 1

    def _serve(self, packet):
        self.loop.schedule(
            packet.size * 8 / self.rate, functools.partial(self._done, packet)
        )

    def _done(self, packet):
        self.packets_forwarded += 1
        self.bytes_forwarded += packet.size
        packet.forward()
        if self._buffer:
            self._serve(self._buffer.popleft())
        else:
            self._busy = False


class _Collector:
    def __init__(self, loop):
        self.loop = loop
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.loop.now, packet.seq, packet.ecn_ce))


def _scenario(seed):
    """One seeded arrival sequence plus the queue parameters."""
    rng = random.Random(seed)
    rate = rng.choice([1e9, 10e9, 40e9, 100e9]) * rng.uniform(0.5, 1.5)
    params = {
        "rate": rate,
        "max_packets": rng.randint(1, 8),
        "ecn_threshold": rng.choice([None, 1, 2, 3, 5]),
        "delay": rng.choice([0.0, rng.uniform(1e-7, 2e-6)]),
    }
    mean_service = 800 * 8 / rate
    t = 0.0
    arrivals = []
    for seq in range(rng.randint(40, 200)):
        # Bursts (short gaps) overflow small buffers; idle gaps drain.
        t += rng.expovariate(1.0 / (mean_service * rng.choice([0.2, 1.5])))
        arrivals.append((t, seq, rng.randint(0, 1460), rng.random() < 0.2))
    horizon = t
    actions = [
        (rng.uniform(0, horizon), "set_rate", rate * rng.uniform(0.2, 3.0)),
        (rng.uniform(0, horizon), "set_rate", rate * rng.uniform(0.2, 3.0)),
    ]
    fail_at = rng.uniform(0, horizon)
    actions.append((fail_at, "fail", None))
    actions.append((fail_at + rng.uniform(0, horizon / 4), "restore", None))
    samples = sorted(rng.uniform(0, horizon * 1.2) for __ in range(25))
    return params, arrivals, actions, samples


def _drive(queue_factory, seed):
    params, arrivals, actions, samples = _scenario(seed)
    loop = EventLoop()
    queue, route_head = queue_factory(loop, params)
    sink = _Collector(loop)
    route = route_head + [sink]

    def inject(seq, payload, is_ack):
        Packet(
            flow=None, route=route, payload=payload, seq=seq, is_ack=is_ack
        ).forward()

    def act(kind, value):
        if kind == "set_rate":
            queue.set_rate(value)
        else:
            getattr(queue, kind)()

    observed = []

    def sample():
        observed.append((
            loop.now, queue.depth, queue.drops, queue.ecn_marks,
            queue.packets_forwarded, queue.bytes_forwarded,
        ))

    for t, seq, payload, is_ack in arrivals:
        loop.schedule_at(t, functools.partial(inject, seq, payload, is_ack))
    for t, kind, value in actions:
        loop.schedule_at(t, functools.partial(act, kind, value))
    for t in samples:
        loop.schedule_at(t, sample)
    loop.run()
    sample()
    return sink.arrivals, observed


def _reference(loop, params):
    queue = _RefQueue(
        loop, params["rate"], params["max_packets"], params["ecn_threshold"]
    )
    return queue, [queue, _RefPipe(loop, params["delay"])]


def _analytic(loop, params):
    queue = Queue(
        loop, params["rate"], max_packets=params["max_packets"],
        ecn_threshold=params["ecn_threshold"], delay=params["delay"],
    )
    return queue, [queue]


@pytest.mark.parametrize("seed", range(40))
def test_matches_two_event_reference(seed):
    ref_arrivals, ref_observed = _drive(_reference, seed)
    new_arrivals, new_observed = _drive(_analytic, seed)
    times = [t for t, __, ___ in ref_arrivals]
    assert len(set(times)) == len(times), "scenario has coinciding events"
    assert new_arrivals == ref_arrivals
    assert new_observed == ref_observed


def test_scenarios_exercise_every_path():
    """The seeds above include drops, ECN marks and lost buffers."""
    drops = marks = 0
    for seed in range(40):
        __, observed = _drive(_analytic, seed)
        drops += observed[-1][2]
        marks += observed[-1][3]
    assert drops > 0 and marks > 0


def test_arrival_at_departure_instant_sees_packet_queued():
    """Tie rule: a packet departing exactly now still occupies the queue."""
    loop = EventLoop()
    queue = Queue(loop, rate=1e9, ecn_threshold=1)
    sink = _Collector(loop)
    first = Packet(flow=None, route=[queue, sink], payload=1000, seq=0)
    first.forward()
    departure = first.size * 8 / 1e9
    second = Packet(flow=None, route=[queue, sink], payload=1000, seq=1)
    loop.schedule_at(departure, second.forward)
    loop.run()
    assert second.ecn_ce
    assert queue.ecn_marks == 1
    assert [t for t, __, ___ in sink.arrivals] == [departure, 2 * departure]


def test_counters_exact_between_events():
    """Forwarded counters count a packet once its serialisation ends."""
    loop = EventLoop()
    queue = Queue(loop, rate=1e9, delay=1e-3)
    sink = _Collector(loop)
    packets = [
        Packet(flow=None, route=[queue, sink], payload=960, seq=i)
        for i in range(3)
    ]
    for packet in packets:
        packet.forward()
    service = 1000 * 8 / 1e9
    loop.run(until=1.5 * service)
    assert (queue.packets_forwarded, queue.bytes_forwarded) == (1, 1000)
    assert queue.depth == 1
    loop.run(until=3 * service)
    assert (queue.packets_forwarded, queue.bytes_forwarded) == (3, 3000)
    assert queue.depth == 0 and sink.arrivals == []


def test_fail_cancels_buffered_arrivals():
    loop = EventLoop()
    queue = Queue(loop, rate=1e9, delay=1e-6)
    sink = _Collector(loop)
    for seq in range(4):
        Packet(flow=None, route=[queue, sink], payload=960, seq=seq).forward()
    queue.fail()
    loop.run()
    assert [seq for __, seq, ___ in sink.arrivals] == [0]
    assert queue.drops == 3
    assert queue.packets_forwarded == 1
    assert loop.next_time() is None


def test_set_rate_validates():
    with pytest.raises(ValueError):
        Queue(EventLoop(), rate=1e9).set_rate(0)


#: A time grid on which every service time is a whole number of steps
#: (one byte per step), so departures are exact and arrivals and reads
#: can land on a departure instant, where the tie rule applies.
GRID = 2.0 ** -30
#: Wire sizes are multiples of 20 bytes and instants multiples of 20
#: steps, so such ties are common.
_instants = st.integers(0, 150).map(lambda k: 20 * k)


def _settle_run(arrivals, reads, settle):
    """Drive one queue; at each read instant, settle it if ``settle``.

    Returns the sink's arrivals, the final drop count, and per read the
    counters from the unsettled pending entries next to the counters
    read after :meth:`Queue.settle`.
    """
    loop = EventLoop()
    queue = Queue(loop, rate=8 / GRID, max_packets=4, delay=60 * GRID)
    sink = _Collector(loop)
    readings = []

    def read():
        if not settle:
            return
        now = loop.now
        pending = list(queue._pending)
        queued = [entry for entry in pending if entry[0] > now]
        unsettled = (
            max(len(queued) - 1, 0),
            queue._accepted - len(queued),
            queue._accepted_bytes - sum(entry[1] for entry in queued),
        )
        queue.settle()
        # Exactly the departed prefix goes; a packet departing now stays.
        assert list(queue._pending) == [e for e in pending if e[0] >= now]
        readings.append((unsettled, (
            queue.depth, queue.packets_forwarded, queue.bytes_forwarded,
        )))

    for seq, (at, size) in enumerate(arrivals):
        packet = Packet(flow=None, route=[queue, sink], payload=size - 40,
                        seq=seq)
        loop.schedule_at(at * GRID, packet.forward)
    for at in reads:
        loop.schedule_at(at * GRID, read)
    loop.run()
    return sink.arrivals, queue.drops, readings


@settings(max_examples=60, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(_instants, st.sampled_from([40, 100, 500])),
        min_size=1, max_size=40,
    ),
    reads=st.lists(_instants, max_size=20),
)
def test_settle_changes_no_reading_and_no_departure(arrivals, reads):
    """Settling between arrivals drops only packets already sent: every
    counter reads as from the unsettled entries, and every later arrival
    leaves when it would have without the settle."""
    settled, drops, readings = _settle_run(arrivals, reads, settle=True)
    plain, plain_drops, __ = _settle_run(arrivals, reads, settle=False)
    assert settled == plain and drops == plain_drops
    assert len(readings) == len(reads)
    for unsettled, after in readings:
        assert after == unsettled
