"""MPTCP with LIA (Linked-Increases Algorithm) coupled congestion control.

An :class:`MptcpSource` carries one logical flow over several TCP
subflows, each pinned to one (plane, path) of the P-Net -- exactly the
paper's MPTCP + K-shortest-paths transport (section 4, [43]).

* **Data scheduling**: subflows pull MSS-sized chunks from a shared
  remaining-bytes pool whenever their window opens, so faster subflows
  naturally carry more (a simple pull scheduler; real MPTCP's
  lowest-RTT-first scheduler converges to the same steady split).
* **Coupled increase** (RFC 6356): in congestion avoidance, subflow i
  grows per ACK by ``min(alpha * acked * MSS / cwnd_total,
  acked * MSS / cwnd_i)`` with ``alpha = cwnd_total *
  max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i / rtt_i)^2`` -- no more
  aggressive on any bottleneck than a single TCP.  Slow start stays
  uncoupled (standard behaviour, and the source of the paper's
  small-flow advantage on parallel planes).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.events import EventLoop
from repro.sim.tcp import TcpSource
from repro.units import DEFAULT_MIN_RTO, MSS

#: RTT guess used for coupling before a subflow has a sample.
_DEFAULT_RTT = 100e-6


class _CoupledSubflow(TcpSource):
    """A TCP subflow whose CA increase is linked to its siblings."""

    def __init__(self, parent: "MptcpSource", **kwargs):
        super().__init__(**kwargs)
        self.parent = parent

    def _ca_increase(self, newly_acked: int) -> None:
        total_cwnd, max_term, sum_term = self.parent.coupling_terms()
        if total_cwnd <= 0 or sum_term <= 0:
            return
        alpha = total_cwnd * max_term / (sum_term * sum_term)
        coupled = alpha * newly_acked * self.mss / total_cwnd
        uncoupled = newly_acked * self.mss / self.cwnd
        self.cwnd += min(coupled, uncoupled)


class MptcpSource:
    """One logical flow striped over N subflows.

    The network builder wires each subflow's ``route_out`` (and each
    sink's ``route_back``) before :meth:`start`.

    Args:
        loop: event loop.
        size: total bytes to deliver.
        n_subflows: how many subflows to create.
        on_complete: fired when every byte is ACKed on its subflow.
    """

    def __init__(
        self,
        loop: EventLoop,
        size: int,
        n_subflows: int,
        mss: int = MSS,
        initial_cwnd: int = 10,
        min_rto: float = DEFAULT_MIN_RTO,
        on_complete: Optional[Callable[["MptcpSource"], None]] = None,
        name: str = "mptcp",
        tracer=None,
    ):
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if n_subflows < 1:
            raise ValueError(f"need >= 1 subflow, got {n_subflows}")
        self.loop = loop
        self.size = size
        self.remaining = size  # unassigned bytes (the shared send buffer)
        self.on_complete = on_complete
        self.name = name
        self.tracer = tracer
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self._completed = False
        self.subflows: List[_CoupledSubflow] = [
            _CoupledSubflow(
                parent=self,
                loop=loop,
                scheduler=self,
                mss=mss,
                initial_cwnd=initial_cwnd,
                min_rto=min_rto,
                on_ack=self._on_subflow_ack,
                name=f"{name}/sub{i}",
                tracer=tracer,
            )
            for i in range(n_subflows)
        ]

    # --- scheduler interface (called by subflows) -----------------------------

    def request(self, nbytes: int) -> int:
        """Grant up to ``nbytes`` from the shared pool."""
        grant = min(nbytes, self.remaining)
        self.remaining -= grant
        return grant

    # --- coupled congestion control ------------------------------------------

    def coupling_terms(self) -> "tuple":
        """LIA coupling terms over this connection's subflows.

        Returns ``(total_cwnd, max_term, sum_term)`` where ``max_term =
        max_i cwnd_i / rtt_i^2`` and ``sum_term = sum_i cwnd_i / rtt_i``.
        Overridable: a plane-sharded run (:mod:`repro.shard`) combines
        the live local terms with epoch-stale digests of the subflows
        running on other shards.
        """
        total = 0.0
        max_term = 0.0
        sum_term = 0.0
        for sf in self.subflows:
            rtt = sf.srtt or _DEFAULT_RTT
            total += sf.cwnd
            term = sf.cwnd / rtt ** 2
            if term > max_term:
                max_term = term
            sum_term += sf.cwnd / rtt
        return total, max_term, sum_term

    # --- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._completed:
            return  # aborted before its start time
        self.start_time = self.loop.now
        if self.size == 0:
            self._finish()
            return
        for subflow in self.subflows:
            subflow.start()

    @property
    def completed(self) -> bool:
        return self._completed

    def abort(self) -> None:
        """Abort every subflow; no completion callback fires.

        Mirrors :meth:`TcpSource.abort` for app-level (or fault-injected)
        fail-over: the caller re-launches the un-ACKed remainder as a new
        flow on live paths.
        """
        self._completed = True
        for subflow in self.subflows:
            subflow.abort()

    @property
    def acked_bytes(self) -> int:
        return sum(sf.snd_una for sf in self.subflows)

    @property
    def retransmits(self) -> int:
        return sum(sf.retransmits for sf in self.subflows)

    @property
    def packets_sent(self) -> int:
        return sum(sf.packets_sent for sf in self.subflows)

    def _on_subflow_ack(self, __subflow: TcpSource) -> None:
        if self._completed or self.remaining > 0:
            return
        if all(sf.snd_una >= sf.assigned for sf in self.subflows):
            self._finish()

    def _finish(self) -> None:
        if self._completed:
            return
        self._completed = True
        self.finish_time = self.loop.now
        if self.tracer is not None:
            # Subflow balance: how many bytes each subflow carried --
            # the per-subflow visibility MPTCP-aware monitoring needs.
            self.tracer.emit(
                "mptcp.balance", self.loop.now, flow=self.name,
                subflow_bytes=[sf.snd_una for sf in self.subflows],
            )
        if self.on_complete is not None:
            self.on_complete(self)
