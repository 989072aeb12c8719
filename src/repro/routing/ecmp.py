"""The stable flow hash behind ECMP path choice (paper section 4).

In a P-Net running ECMP, the end host hashes each flow onto one of the N
dataplanes, and the switches inside that plane hash the flow onto one of
the equal-cost shortest paths.  :class:`repro.core.path_selection.
EcmpPolicy` models exactly that with two :func:`flow_hash` draws (the
plane, then the path); the control policies re-hash moved flows with
the same function.

The hash must be stable across the run but vary across flows; we use
``hashlib.blake2b`` keyed by the flow 5-tuple stand-in ``(src, dst,
flow_id)`` so results are reproducible across processes (Python's
builtin ``hash`` is salted per process).
"""

from __future__ import annotations

import hashlib


def flow_hash(src: str, dst: str, flow_id: int, salt: int = 0) -> int:
    """Stable 64-bit hash of a flow identifier."""
    digest = hashlib.blake2b(
        f"{src}|{dst}|{flow_id}|{salt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")
