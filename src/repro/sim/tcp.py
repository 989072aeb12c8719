"""TCP NewReno source and sink.

Implements the congestion-control behaviour the paper's experiments rest
on: slow start from a 10-segment initial window, AIMD congestion
avoidance, triple-duplicate-ACK fast retransmit with NewReno partial-ACK
recovery, and go-back-N retransmission timeouts with a 10 ms minimum RTO
(the DCTCP-recommended datacenter tuning the paper adopts).

Sources are source-routed: the caller provides the forward element route
(ending at the :class:`TcpSink`) and the sink's reverse route (ending
back at the source).  Congestion-avoidance growth is a hook
(:meth:`TcpSource._ca_increase`) so MPTCP can substitute its coupled
increase.

A source can serve a fixed ``size`` or draw bytes from an external
``scheduler`` (MPTCP's shared send buffer); see :mod:`repro.sim.mptcp`.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.sim.events import Event, EventLoop
from repro.sim.packet import Packet
from repro.units import DEFAULT_MIN_RTO, MSS

#: Upper bound on exponential RTO backoff.
MAX_RTO = 1.0


class TcpSource:
    """One TCP NewReno sender.

    Args:
        loop: event loop.
        size: bytes to send; None when a ``scheduler`` supplies data.
        scheduler: object with ``request(nbytes) -> granted`` and
            ``remaining`` (MPTCP shared buffer); mutually exclusive
            semantics with a fixed ``size``.
        mss: maximum segment size (payload bytes).
        initial_cwnd: initial window in segments.
        min_rto: minimum retransmission timeout.
        on_complete: called once when every byte is cumulatively ACKed.
        on_ack: progress hook (used by MPTCP for completion/coupling).
    """

    def __init__(
        self,
        loop: EventLoop,
        size: Optional[int] = None,
        scheduler=None,
        mss: int = MSS,
        initial_cwnd: int = 10,
        min_rto: float = DEFAULT_MIN_RTO,
        on_complete: Optional[Callable[["TcpSource"], None]] = None,
        on_ack: Optional[Callable[["TcpSource"], None]] = None,
        name: str = "tcp",
        tracer=None,
    ):
        if (size is None) == (scheduler is None):
            raise ValueError("exactly one of size/scheduler must be given")
        if size is not None and size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        self.loop = loop
        self.scheduler = scheduler
        #: Optional repro.obs Tracer; congestion events (RTO, fast
        #: retransmit) are traced with the current cwnd/ssthresh/RTO so
        #: operators can reconstruct per-subflow congestion behaviour.
        self.tracer = tracer
        self.assigned = size if size is not None else 0
        self.mss = mss
        self.min_rto = min_rto
        self.on_complete = on_complete
        self.on_ack = on_ack
        self.name = name

        self.route_out: List = []  # set by the network builder

        # Sender state (bytes).
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = float(initial_cwnd * mss)
        self.ssthresh = math.inf
        self.dup_acks = 0
        self.in_recovery = False
        self.recover_seq = 0

        # RTT estimation / RTO.
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = min_rto
        self._rtx_event: Optional[Event] = None
        self._rtx_deadline = 0.0
        self._backoff = 1

        # Bookkeeping.
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.retransmits = 0
        self.packets_sent = 0
        self._completed = False

    # --- public API --------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (route must be wired first).

        A source aborted before its start time never starts.
        """
        if not self.route_out:
            raise RuntimeError("route_out not wired")
        if self._completed:
            return
        self.start_time = self.loop.now
        if self._total_size == 0 and self._no_more_data:
            self._finish()
            return
        self._try_send()

    @property
    def completed(self) -> bool:
        return self._completed

    def abort(self) -> None:
        """Stop transmitting without completing (e.g. app-level failover).

        Cancels the retransmission timer and ignores all future ACKs; no
        completion callback fires.  The application can then re-launch
        the remaining bytes as a new flow on a different path.
        """
        self._completed = True
        self._cancel_timer()

    @property
    def flightsize(self) -> int:
        return self.snd_nxt - self.snd_una

    # --- data supply ----------------------------------------------------------

    @property
    def _total_size(self) -> int:
        return self.assigned

    @property
    def _no_more_data(self) -> bool:
        return self.scheduler is None or self.scheduler.remaining == 0

    def _available(self) -> int:
        """Bytes ready to send at ``snd_nxt``, pulling from the scheduler."""
        avail = self.assigned - self.snd_nxt
        if avail <= 0 and self.scheduler is not None:
            grant = self.scheduler.request(self.mss)
            self.assigned += grant
            avail = self.assigned - self.snd_nxt
        return max(avail, 0)

    # --- transmission -----------------------------------------------------------

    def _try_send(self) -> None:
        while self.flightsize < self.cwnd:
            avail = self._available()
            if avail <= 0:
                break
            payload = min(self.mss, avail)
            self._transmit(self.snd_nxt, payload, retransmit=False)
            self.snd_nxt += payload

    def _transmit(self, seq: int, payload: int, retransmit: bool) -> None:
        packet = Packet(
            flow=self,
            route=self.route_out,
            payload=payload,
            seq=seq,
            sent_time=self.loop.now,
            retransmit=retransmit,
        )
        self.packets_sent += 1
        if retransmit:
            self.retransmits += 1
        if self._rtx_event is None:
            self._arm_timer()
        packet.forward()

    def _retransmit_head(self) -> None:
        payload = min(self.mss, self.assigned - self.snd_una)
        if payload > 0:
            self._transmit(self.snd_una, payload, retransmit=True)

    # --- timer ---------------------------------------------------------------------

    def _arm_timer(self) -> None:
        # A deadline, not an event per restart: a later deadline leaves
        # the pending event to re-arm itself when it fires early; an
        # earlier one (the RTO shrank) needs a fresh event.
        deadline = self.loop.now + min(self.rto * self._backoff, MAX_RTO)
        self._rtx_deadline = deadline
        if self._rtx_event is None or self._rtx_event.time > deadline:
            self._cancel_timer()
            self._rtx_event = self.loop.schedule_at(deadline, self._on_timeout)

    def _cancel_timer(self) -> None:
        if self._rtx_event is not None:
            self.loop.cancel(self._rtx_event)
            self._rtx_event = None

    def _on_timeout(self) -> None:
        if self.loop.now < self._rtx_deadline:
            self._rtx_event = self.loop.schedule_at(
                self._rtx_deadline, self._on_timeout
            )
            return
        self._rtx_event = None
        if self._completed or self.flightsize == 0:
            return
        if self.tracer is not None:
            self.tracer.emit(
                "tcp.rto", self.loop.now, flow=self.name, cwnd=self.cwnd,
                rto=self.rto, backoff=self._backoff,
                flightsize=self.flightsize,
            )
        # Go-back-N: shrink to one segment and restart from snd_una.
        self.ssthresh = max(self.flightsize / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)
        self.in_recovery = False
        self.dup_acks = 0
        self._backoff = min(self._backoff * 2, 64)
        payload = min(self.mss, self.assigned - self.snd_una)
        self.snd_nxt = self.snd_una + payload
        self._retransmit_head()
        if self._rtx_event is None:
            self._arm_timer()

    # --- RTT estimation ----------------------------------------------------------------

    def _sample_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = max(self.srtt + 4 * self.rttvar, self.min_rto)

    # --- congestion control hooks ---------------------------------------------------------

    def _ca_increase(self, newly_acked: int) -> None:
        """Congestion-avoidance growth (~1 MSS per RTT for plain TCP)."""
        self.cwnd += self.mss * newly_acked / self.cwnd

    def _slow_start_increase(self, newly_acked: int) -> None:
        self.cwnd += newly_acked

    # --- ACK processing --------------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Entry point for ACKs arriving over the reverse route."""
        if not packet.is_ack:
            raise ValueError("TcpSource received a non-ACK packet")
        self._handle_ack(packet)

    def _handle_ack(self, packet: Packet) -> None:
        if self._completed:
            return
        ack = packet.ack
        if ack > self.snd_una:
            newly = ack - self.snd_una
            self.snd_una = ack
            self.dup_acks = 0
            self._backoff = 1
            if not packet.retransmit:
                self._sample_rtt(self.loop.now - packet.sent_time)
            if self.in_recovery:
                if ack >= self.recover_seq:
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # Partial ACK: retransmit the next hole, deflate.
                    self._retransmit_head()
                    self.cwnd = max(
                        self.cwnd - newly + self.mss, float(self.mss)
                    )
            elif self.cwnd < self.ssthresh:
                self._slow_start_increase(newly)
            else:
                self._ca_increase(newly)

            if self.flightsize > 0:
                self._arm_timer()
            else:
                self._cancel_timer()

            if self.on_ack is not None:
                self.on_ack(self)
            if self.snd_una >= self.assigned and self._no_more_data:
                # All assigned bytes ACKed; if the scheduler has nothing
                # left, this source is done.
                if self.scheduler is None:
                    self._finish()
                return
            self._try_send()
        elif ack == self.snd_una and self.flightsize > 0:
            # Duplicate ACK (stale ACKs below snd_una are ignored).
            self.dup_acks += 1
            if self.dup_acks == 3 and not self.in_recovery:
                if self.tracer is not None:
                    self.tracer.emit(
                        "tcp.fast_rtx", self.loop.now, flow=self.name,
                        cwnd=self.cwnd, flightsize=self.flightsize,
                    )
                self.ssthresh = max(
                    self.flightsize / 2.0, 2.0 * self.mss
                )
                self.in_recovery = True
                self.recover_seq = self.snd_nxt
                self._retransmit_head()
                self.cwnd = self.ssthresh + 3.0 * self.mss
            elif self.in_recovery:
                self.cwnd += self.mss  # window inflation
                self._try_send()

    def _finish(self) -> None:
        if self._completed:
            return
        self._completed = True
        self.finish_time = self.loop.now
        self._cancel_timer()
        if self.on_complete is not None:
            self.on_complete(self)


class TcpSink:
    """Receiver: cumulative ACKs, out-of-order buffering."""

    def __init__(self, loop: EventLoop, name: str = "sink"):
        self.loop = loop
        self.name = name
        self.route_back: List = []  # set by the network builder
        self.rcv_nxt = 0
        self._ooo: dict = {}  # seq -> payload
        self.packets_received = 0

    def receive(self, packet: Packet) -> None:
        if packet.is_ack:
            raise ValueError("TcpSink received an ACK")
        self.packets_received += 1
        seq, payload = packet.seq, packet.payload
        if seq == self.rcv_nxt:
            self.rcv_nxt += payload
            while self.rcv_nxt in self._ooo:
                self.rcv_nxt += self._ooo.pop(self.rcv_nxt)
        elif seq > self.rcv_nxt:
            self._ooo[seq] = payload
        # else: duplicate of already-delivered data; just re-ACK.
        ack = Packet(
            flow=packet.flow,
            route=self.route_back,
            payload=0,
            ack=self.rcv_nxt,
            is_ack=True,
            sent_time=packet.sent_time,
            retransmit=packet.retransmit,
            # ECN echo: a DCTCP receiver reflects CE marks per packet.
            ece=packet.ecn_ce,
        )
        ack.forward()
