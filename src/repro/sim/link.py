"""Directed links: a drop-tail output queue plus its propagation delay.

A directed link ``u -> v`` is one :class:`Queue` -- htsim's element model
and the paper's output-queued switch port -- at one event per packet.  A
FIFO at a known rate knows each packet's departure on arrival, ``max(now,
last departure) + size*8/rate``, so the queue schedules only the arrival
at the next element (``departure + delay``) and keeps the pending
departures, which give the depth for drops, ECN and :meth:`Queue.fail`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.sim.events import Event, EventLoop
from repro.sim.packet import Packet

#: (departure time, wire size, arrival event at the next element).  Only
#: a packet queued behind another is ever cancelled or re-timed, so only
#: its event is kept: the others' would deepen mid-run checkpoint pickles.
_Entry = Tuple[float, int, Optional[Event]]


class Queue:
    """Drop-tail FIFO output queue serialising at the link rate.

    Each arrival first drops the pending entries that departed before
    it.  Between arrivals, :meth:`settle` does the same for whatever
    reads the queue: the counters (:attr:`depth`,
    :attr:`packets_forwarded`, :attr:`bytes_forwarded`), :meth:`fail`
    and :meth:`set_rate`, and checkpoint encoding
    (:func:`repro.ckpt.snapshot.dumps`), so a checkpoint carries only
    the packets still queued.  It drops only entries the next arrival
    would drop, so it never changes what the queue does.

    Args:
        loop: the event loop.
        rate: link rate, bits/second; change it mid-run with
            :meth:`set_rate`.
        max_packets: buffer capacity in packets *excluding* the one in
            service (htsim-style; the paper's switches default to 100).
        ecn_threshold: mark packets with Congestion Experienced when the
            instantaneous queue depth is at or above this many packets
            on arrival (DCTCP's step marking at K).  None disables it.
        tracer: optional :class:`repro.obs.Tracer`; drops and ECN marks
            are always traced, per-packet depth samples only when the
            tracer is ``verbose``.
        plane: dataplane index stamped on trace events.
        delay: propagation delay to the next element, seconds.
    """

    __slots__ = (
        "loop", "rate", "delay", "max_packets", "name", "ecn_threshold",
        "_pending", "_accepted", "_accepted_bytes", "drops", "ecn_marks",
        "down", "_trace", "plane",
    )

    def __init__(
        self,
        loop: EventLoop,
        rate: float,
        max_packets: int = 100,
        name: str = "",
        ecn_threshold: Optional[int] = None,
        tracer=None,
        plane: Optional[int] = None,
        delay: float = 0.0,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if max_packets < 1:
            raise ValueError(f"max_packets must be >= 1, got {max_packets}")
        if ecn_threshold is not None and ecn_threshold < 1:
            raise ValueError(
                f"ecn_threshold must be >= 1, got {ecn_threshold}"
            )
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.loop = loop
        self.rate = rate
        self.delay = delay
        self.max_packets = max_packets
        self.name = name
        self.ecn_threshold = ecn_threshold
        #: Packets not yet known to have left, the one in service first.
        self._pending: Deque[_Entry] = deque()
        self._accepted = 0
        self._accepted_bytes = 0
        self.drops = 0
        self.ecn_marks = 0
        #: Mid-run failure flag: a down link black-holes everything
        #: (buffered packets are lost too, like a cut fiber).
        self.down = False
        self._trace = tracer
        self.plane = plane

    def _emit(self, kind: str, **fields) -> None:
        self._trace.emit(
            kind, self.loop.now, queue=self.name, plane=self.plane, **fields
        )

    def settle(self) -> None:
        """Drop the pending entries that departed before ``now``.

        :meth:`receive` runs the same loop inline on every arrival; a
        packet departing exactly now stays (the tie rule).
        """
        now = self.loop.now
        pending = self._pending
        while pending and pending[0][0] < now:
            pending.popleft()

    def _queued(self) -> List[_Entry]:
        """Packets still serialising or waiting once ``now`` has run."""
        self.settle()
        now = self.loop.now
        return [entry for entry in self._pending if entry[0] > now]

    @property
    def depth(self) -> int:
        """Packets buffered (excluding the one being serialised)."""
        return max(len(self._queued()) - 1, 0)

    @property
    def packets_forwarded(self) -> int:
        """Packets that finished serialisation, exact at any instant."""
        return self._accepted - len(self._queued())

    @property
    def bytes_forwarded(self) -> int:
        """Wire bytes that finished serialisation, exact at any instant."""
        return self._accepted_bytes - sum(e[1] for e in self._queued())

    def _take_waiting(self) -> List[Tuple[int, Callable[[], None]]]:
        """Unschedule the packets waiting behind the one in service;
        returns their sizes and arrival callbacks."""
        taken = []
        for __, size, event in self._queued()[1:]:
            self._pending.pop()
            taken.append((size, event.fn))
            self.loop.cancel(event)
        return taken

    def fail(self) -> None:
        """Cut the link: the packet in service still leaves; the ones
        waiting behind it and every later arrival are lost."""
        self.down = True
        lost = self._take_waiting()
        if lost:
            self.drops += len(lost)
            self._accepted -= len(lost)
            self._accepted_bytes -= sum(size for size, __ in lost)
            if self._trace is not None:
                self._emit("queue.fail", lost=len(lost))

    def restore(self) -> None:
        self.down = False

    def set_rate(self, rate: float) -> None:
        """Change the service rate mid-run.

        Service time is fixed when service starts: the packet in service
        keeps its departure and the ones waiting behind it are re-timed
        at the new rate.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        pending = self._pending
        for size, arrive in self._take_waiting():
            departure = pending[-1][0] + size * 8 / rate
            pending.append((departure, size, self.loop.schedule_at(
                departure + self.delay, arrive
            )))

    def receive(self, packet: Packet) -> None:
        loop = self.loop
        now = loop.now
        pending = self._pending
        # A packet departing exactly now still occupies the queue.
        while pending and pending[0][0] < now:
            pending.popleft()
        queued = len(pending)  # includes the packet in service
        if self.down:
            self.drops += 1
            if self._trace is not None:
                self._emit(
                    "queue.drop", reason="down", depth=max(queued - 1, 0)
                )
            return
        if (
            self.ecn_threshold is not None
            and not packet.is_ack
            and queued >= self.ecn_threshold
        ):
            packet.ecn_ce = True
            self.ecn_marks += 1
            if self._trace is not None:
                self._emit("queue.ecn", depth=max(queued - 1, 0))
        if queued > self.max_packets:
            self.drops += 1
            if self._trace is not None:
                self._emit("queue.drop", reason="overflow", depth=queued - 1)
            return
        size = packet.size
        departure = (pending[-1][0] if queued else now) + size * 8 / self.rate
        arrival = loop.schedule_at(departure + self.delay, packet.forward)
        pending.append((departure, size, arrival if queued else None))
        self._accepted += 1
        self._accepted_bytes += size
        if queued and self._trace is not None and self._trace.verbose:
            self._emit("queue.depth", depth=queued)
