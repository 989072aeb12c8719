"""Binary-heap event loop for the packet simulator."""

from __future__ import annotations

import heapq
import math
import time
from typing import Callable, List, Optional, Tuple


class Event:
    """A scheduled callback; pass it to :meth:`EventLoop.cancel`."""

    __slots__ = ("time", "fn", "cancelled")

    def __init__(self, time: float, fn: Callable[[], None]):
        self.time = time
        self.fn = fn
        self.cancelled = False


class EventLoop:
    """Deterministic discrete-event loop.

    Ties are broken by insertion order, so runs are reproducible given
    the same schedule of calls.

    Args:
        obs: optional :class:`repro.obs.Registry`; when enabled, each
            :meth:`run` records the event count, wall-clock duration,
            and heap high-water mark.  The per-event hot loop is never
            instrumented -- telemetry costs one check per ``run`` call,
            not per event.
    """

    def __init__(self, obs=None):
        self.now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        # Plain int (not itertools.count): checkpointing pickles the
        # whole loop, and the tie-break sequence must survive exactly.
        self._seq = 0
        self.events_processed = 0
        #: Deepest the heap has ever been (cancelled events included).
        self.max_heap_depth = 0
        self._interrupt_at = math.inf
        self._running = False
        self._obs = obs

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Run ``fn`` after ``delay`` seconds; returns a cancellable handle."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self.now + delay, fn)

    def schedule_at(self, time: float, fn: Callable[[], None]) -> Event:
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past ({time} < {self.now})"
            )
        event = Event(time, fn)
        heap = self._heap
        heapq.heappush(heap, (time, self._seq, event))
        self._seq += 1
        if len(heap) > self.max_heap_depth:
            self.max_heap_depth = len(heap)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event``: the loop skips it, and its callback goes now."""
        event.cancelled = True
        event.fn = None

    def next_time(self) -> Optional[float]:
        """Time of the earliest live event, or None when none is left.

        Cancelled entries at the top of the heap are discarded on the
        way; they would be skipped when popped anyway.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def interrupt(self, at: Optional[float] = None) -> None:
        """Ask the in-progress :meth:`run` to stop early.

        The loop finishes the current callback, processes any further
        events up to and including time ``at`` (default: the current
        time), and returns without advancing past it.  A co-simulator
        calls this from inside an event callback when that callback
        created work for *another* engine behind the horizon this run
        was launched toward -- the frontier the caller computed is now
        stale, and continuing would process packet events that causally
        depend on unsimulated foreign state.  No-op unless a run is in
        progress; consumed (reset) when that run returns.
        """
        if not self._running:
            return
        at = self.now if at is None else max(at, self.now)
        if at < self._interrupt_at:
            self._interrupt_at = at

    def run(
        self,
        until: float = math.inf,
        max_events: int = 500_000_000,
    ) -> None:
        """Process events in time order until the queue drains or ``until``."""
        obs = self._obs
        timing = obs is not None and obs.enabled
        if timing:
            t0 = time.perf_counter()
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        self._running = True
        try:
            while heap:
                entry = heappop(heap)
                event_time, __, event = entry
                if event_time > until or event_time > self._interrupt_at:
                    # Put it back: (time, seq) is a total order, so the
                    # heap pops exactly as if it had only been peeked.
                    heapq.heappush(heap, entry)
                    break
                if event.cancelled:
                    continue
                self.now = event_time
                fn = event.fn
                event.fn = None  # spent: a handle still held pins nothing
                fn()
                processed += 1
                if processed > max_events:
                    raise RuntimeError(f"exceeded {max_events} events")
        finally:
            self._running = False
        end = min(until, self._interrupt_at)
        self._interrupt_at = math.inf
        if math.isfinite(end) and end > self.now:
            self.now = end
        self.events_processed += processed
        if timing:
            obs.counter("sim.events.processed").inc(processed)
            obs.gauge("sim.events.max_heap_depth").max(self.max_heap_depth)
            obs.histogram("sim.events.run_seconds", wallclock=True).observe(
                time.perf_counter() - t0
            )
