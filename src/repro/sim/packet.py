"""Packets and source routes.

Packets are source-routed the way htsim routes them: each carries the
list of network elements (link queues, finally a protocol sink) it will
visit, plus the index of its current position.  Elements call
:meth:`Packet.forward` to hand the packet to the next element.
"""

from __future__ import annotations

from typing import Any, List

#: TCP/IP header bytes; ACK-only packets are exactly this big.
HEADER_BYTES = 40


class Packet:
    """One data segment or ACK.

    Attributes:
        flow: opaque owner (the TCP/MPTCP source), used by sinks.
        size: wire size in bytes (payload + headers).
        seq: first payload byte's sequence number (data packets).
        payload: payload bytes carried (0 for pure ACKs).
        ack: cumulative ACK sequence (ACK packets).
        is_ack: ACK flag.
        route: element list ending at the destination sink.
        hop: index into ``route`` of the element currently holding it.
        sent_time: when the source (re)transmitted it, for RTT sampling.
        retransmit: set on retransmissions (their RTT samples are
            discarded, Karn's algorithm).
    """

    __slots__ = (
        "flow", "size", "seq", "payload", "ack", "is_ack",
        "route", "hop", "sent_time", "retransmit", "ecn_ce", "ece",
    )

    def __init__(
        self,
        flow: Any,
        route: List[Any],
        payload: int = 0,
        seq: int = 0,
        ack: int = 0,
        is_ack: bool = False,
        sent_time: float = 0.0,
        retransmit: bool = False,
        ece: bool = False,
    ):
        self.flow = flow
        self.route = route
        self.payload = payload
        self.size = payload + HEADER_BYTES
        self.seq = seq
        self.ack = ack
        self.is_ack = is_ack
        self.hop = -1
        self.sent_time = sent_time
        self.retransmit = retransmit
        #: Congestion Experienced: set by an ECN queue over threshold.
        self.ecn_ce = False
        #: ECN Echo: set on ACKs by a DCTCP receiver echoing CE marks.
        self.ece = ece

    def forward(self) -> None:
        """Hand the packet to the next element on its route."""
        self.hop += 1
        self.route[self.hop].receive(self)

    def __repr__(self) -> str:
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"Packet({kind}, seq={self.seq}, ack={self.ack}, "
            f"payload={self.payload}, hop={self.hop}/{len(self.route)})"
        )
