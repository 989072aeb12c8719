"""Cross-shard MPTCP coupling state.

A spanning connection's subflows live on different shards, but LIA
(RFC 6356) couples their congestion-avoidance increase through three
aggregate terms -- ``total_cwnd``, ``max_i cwnd_i/rtt_i^2`` and
``sum_i cwnd_i/rtt_i`` -- and the subflows share one send-buffer pool.
Those are the *only* two pieces of cross-plane state in the paper's
model (planes are disjoint in the core), so the epoch barrier
exchanges exactly them:

* each shard exports a per-connection **digest**: per-subflow
  ``(cwnd, srtt)``, its local pool ``remaining``, ACKed bytes, open-
  window demand and recovery window, a drained flag and drain time,
  and the counters the composed record needs;
* the engine folds all remote digests into a :class:`RemoteTerms`
  view per shard and rebalances the shared pool across shards with a
  deterministic largest-remainder split: every shard keeps a floor of
  its window demand, and the bytes above all floors go by the bytes
  each shard ACKed since the last barrier
  (:func:`repro.shard.engine._rebalance`).

:class:`PartialMptcpSource` is the shard-side connection object: a
normal :class:`~repro.sim.mptcp.MptcpSource` restricted to the local
subflows, whose :meth:`coupling_terms` add the epoch-stale remote
terms and whose pool can be topped up (or clawed back) at barriers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.mptcp import _DEFAULT_RTT, MptcpSource


def lia_terms(
    subflows: Sequence[Tuple[float, Optional[float]]],
) -> Tuple[float, float, float]:
    """LIA aggregate terms from ``(cwnd, srtt)`` pairs.

    Same arithmetic (and accumulation order) as
    :meth:`MptcpSource.coupling_terms`, so a digest computed remotely
    combines consistently with live local terms.
    """
    total = 0.0
    max_term = 0.0
    sum_term = 0.0
    for cwnd, srtt in subflows:
        rtt = srtt or _DEFAULT_RTT
        total += cwnd
        term = cwnd / rtt ** 2
        if term > max_term:
            max_term = term
        sum_term += cwnd / rtt
    return total, max_term, sum_term


def largest_remainder(total: int, weights: Sequence[int]) -> List[int]:
    """Split ``total`` integer units by integer ``weights``, exactly.

    Pure integer largest-remainder (quotas via ``//``, leftovers to the
    largest integer remainders, ties to the lowest index): fully
    deterministic, sums exactly to ``total``, and -- when ``total <=
    sum(weights)`` -- never hands any slot more than its weight, which
    is what lets the engine use link/demand capacities directly as
    weights without clamping.
    """
    n = len(weights)
    if n == 0:
        raise ValueError("need at least one weight")
    if any(w < 0 for w in weights):
        raise ValueError(f"weights must be >= 0: {list(weights)}")
    if total <= 0:
        return [0] * n
    wsum = sum(weights)
    if wsum == 0:
        weights = [1] * n
        wsum = n
    shares = [total * w // wsum for w in weights]
    leftover = total - sum(shares)
    order = sorted(
        range(n), key=lambda i: (-(total * weights[i] % wsum), i)
    )
    for i in order[:leftover]:
        shares[i] += 1
    return shares


class RemoteTerms:
    """Epoch-stale LIA terms of a connection's *remote* subflows.

    Mutable on purpose: the worker holds one instance per spanning
    connection and overwrites it in place at each barrier, so the
    source object needs no re-wiring.
    """

    __slots__ = ("total_cwnd", "max_term", "sum_term")

    def __init__(
        self,
        total_cwnd: float = 0.0,
        max_term: float = 0.0,
        sum_term: float = 0.0,
    ):
        self.total_cwnd = total_cwnd
        self.max_term = max_term
        self.sum_term = sum_term

    def set(self, total_cwnd: float, max_term: float, sum_term: float) -> None:
        self.total_cwnd = total_cwnd
        self.max_term = max_term
        self.sum_term = sum_term


class PartialMptcpSource(MptcpSource):
    """The local-shard slice of a spanning MPTCP connection.

    Carries only the subflows whose planes this shard owns, seeded with
    an initial share of the connection's bytes.  Differences from the
    serial source:

    * :meth:`coupling_terms` adds the epoch-stale :class:`RemoteTerms`.
    * Draining the local pool records ``drain_time`` but does **not**
      complete the connection -- the engine decides global completion
      from all shards' digests, and a barrier :meth:`grant` can revive
      the subflows with freshly rebalanced bytes.
    """

    def __init__(self, *, gid: int, remote: Optional[RemoteTerms] = None,
                 **kwargs):
        super().__init__(**kwargs)
        self.gid = gid
        self.remote = remote if remote is not None else RemoteTerms()
        #: Simulated time the local pool last drained (all local bytes
        #: ACKed, nothing left to pull); None while active.
        self.drain_time: Optional[float] = None

    # --- coupled congestion control ---------------------------------------

    def coupling_terms(self) -> tuple:
        total, max_term, sum_term = super().coupling_terms()
        total += self.remote.total_cwnd
        if self.remote.max_term > max_term:
            max_term = self.remote.max_term
        sum_term += self.remote.sum_term
        return total, max_term, sum_term

    # --- barrier-side pool management -------------------------------------

    def grant(self, delta: int) -> None:
        """Apply a barrier rebalance: add (or claw back) pool bytes.

        A positive delta revives idle subflows -- a scheduler-fed
        subflow that ran dry parks itself with no pending events, so we
        must kick ``_try_send`` after refilling the pool.
        """
        if delta == 0:
            return
        if delta < 0 and self.remaining + delta < 0:
            raise ValueError(
                f"flow {self.gid}: cannot claw back {-delta} bytes from a "
                f"pool of {self.remaining}"
            )
        self.remaining += delta
        if delta > 0:
            self.drain_time = None
            if self.start_time is not None and not self._completed:
                for sf in self.subflows:
                    if sf.start_time is None:
                        sf.start()
                    elif not sf.completed:
                        sf._try_send()

    def digest(self) -> Dict:
        """This shard's slice of the connection, for the epoch barrier."""
        return {
            "subflows": [(sf.cwnd, sf.srtt) for sf in self.subflows],
            "remaining": self.remaining,
            "acked": self.acked_bytes,
            "drained": self.drain_time is not None,
            "drain_time": self.drain_time,
            # Bytes the local windows could take right now: the pull
            # pressure the serial scheduler would see.  The engine
            # rebalances the pool toward demand + one epoch of rate, so
            # as epoch -> 0 byte placement converges to the serial
            # demand-driven pull.
            "demand": sum(
                max(0, int(sf.cwnd) - sf.flightsize)
                for sf in self.subflows
            ),
            # Window of subflows currently in fast recovery: the engine
            # never claws their new-data float away (recovery with
            # nothing new to send cannot clock ACKs and degrades to a
            # full RTO).
            "recovery_cwnd": sum(
                int(sf.cwnd) for sf in self.subflows if sf.in_recovery
            ),
            "retransmits": self.retransmits,
            "packets_sent": self.packets_sent,
        }

    # --- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        # Unlike the serial source, a zero-byte local share is not the
        # end of the connection: park drained (subflows unstarted, so
        # they don't self-complete against the empty pool) and wait for
        # a barrier grant to start them.
        self.start_time = self.loop.now
        if self.remaining == 0:
            self._finish()
            return
        for subflow in self.subflows:
            subflow.start()

    def _finish(self) -> None:
        # Local drain, not connection completion: stay revivable.
        if self.drain_time is None:
            self.drain_time = self.loop.now

    def finalize(self) -> None:
        """Engine-directed teardown once the connection completed globally."""
        self._completed = True
        for sf in self.subflows:
            if not sf.completed:
                sf.abort()


def split_bytes(size: int, counts: Sequence[int]) -> List[int]:
    """Initial byte split across shards, proportional to subflow count.

    The serial pull scheduler hands bytes to whichever subflow's window
    opens; an even per-subflow split is the matching prior before any
    cwnd/RTT signal exists.  Deterministic largest-remainder, so every
    run (and every backend) starts identically.
    """
    return largest_remainder(size, [int(c) for c in counts])
