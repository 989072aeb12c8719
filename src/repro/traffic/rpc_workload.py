"""Ping-pong RPC workload specification (paper section 5.2.1).

Each host runs one or more closed-loop RPC chains: send a request of
``request_bytes`` to a random server, wait for the ``response_bytes``
response, record the end-to-end completion time, repeat for ``rounds``.
The paper uses 1500 B (one MTU) requests for the latency study and 100 kB
requests for the concurrency study, with 1--10 concurrent chains per host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.units import MTU


@dataclass
class RpcWorkload:
    """A closed-loop request/response workload.

    Args:
        hosts: participating hosts (every host is client and server).
        request_bytes: request payload (paper: 1500 B or 100 kB).
        response_bytes: response payload (paper: same MTU-sized response).
        rounds: requests per chain.
        concurrency: independent chains per host (paper: 1-10).
        seed: destination RNG seed.
    """

    hosts: Sequence[str]
    request_bytes: int = MTU
    response_bytes: int = MTU
    rounds: int = 1000
    concurrency: int = 1
    seed: int = 0

    def __post_init__(self):
        if len(self.hosts) < 2:
            raise ValueError("need at least two hosts")
        if min(self.request_bytes, self.response_bytes) <= 0:
            raise ValueError("payload sizes must be positive")
        if self.rounds < 1 or self.concurrency < 1:
            raise ValueError("rounds and concurrency must be >= 1")

    def chains(self) -> List[Tuple[str, int]]:
        """(client, chain_index) for every chain in the workload."""
        return [
            (host, chain)
            for host in self.hosts
            for chain in range(self.concurrency)
        ]

    def destination_sequence(self, client: str, chain: int) -> List[str]:
        """The random server sequence one chain visits (deterministic)."""
        rng = random.Random(f"rpc-{self.seed}-{client}-{chain}")
        others = [h for h in self.hosts if h != client]
        return [rng.choice(others) for __ in range(self.rounds)]
