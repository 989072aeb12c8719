"""One serializable bundle for every random stream a run owns.

The determinism culture of this repo is "seed everything explicitly";
the restore-path hazard is the opposite failure: a component that
*re-seeds from a constant* when a run is restored, silently rewinding
its stream.  :class:`RngBundle` closes that hole by giving a run one
named registry of ``random.Random`` streams whose *positions* -- not
just seeds -- are captured in every checkpoint and restored exactly.

Usage::

    rng = RngBundle(seed=7)
    chaos = rng.stream("faults.chaos")      # seeded from (7, name)
    ...
    ckpt.save(root, network=net, rng=rng)   # positions ride along
    # after restore: rng.stream("faults.chaos") continues mid-sequence

Simulation engines themselves draw no randomness mid-run (a source-scan
test pins that); the bundle covers setup-and-control-plane streams:
chaos schedule generation, workload synthesis, and any future
randomized controller.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple


class RngBundle:
    """Named, independently-seeded, checkpointable random streams.

    Args:
        seed: the bundle's master seed.  Each named stream is seeded
            from ``stable_hash((seed, name))``, so streams are
            independent, order-of-creation independent, and stable
            across processes.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(
        self, name: str, seed: Optional[int] = None
    ) -> random.Random:
        """The named ``random.Random`` stream (created on first use).

        With ``seed`` the stream is ``random.Random(seed)`` exactly --
        byte-compatible with pre-bundle code that seeded directly, so
        golden outputs keyed to historic seeds survive the migration.
        Without it, the seed derives from ``(bundle seed, name)``.
        Either way only the *first* call seeds; later calls return the
        stream wherever its position is (including after a restore).
        """
        rng = self._streams.get(name)
        if rng is None:
            if seed is not None:
                rng = random.Random(seed)
            else:
                # Imported here, not at module level: repro.exp.cache
                # uses repro.ckpt.store for atomic writes, so a
                # top-level import would close a cycle through the
                # package __init__.
                from repro.exp.cache import stable_hash

                rng = random.Random(
                    int(stable_hash((self.seed, name)), 16) & (2**63 - 1)
                )
            self._streams[name] = rng
        return rng

    def names(self) -> List[str]:
        return sorted(self._streams)

    # --- explicit state transport (also used by pickle) ---------------------

    def state(self) -> Dict[str, Any]:
        """Serializable snapshot: every stream's exact position."""
        return {
            "seed": self.seed,
            "streams": {
                name: _freeze(rng.getstate())
                for name, rng in sorted(self._streams.items())
            },
        }

    def restore(self, state: Dict[str, Any]) -> "RngBundle":
        """Load a :meth:`state` snapshot into this bundle (in place).

        Bundles written by earlier versions also carry an always-empty
        ``"numpy"`` table, which is ignored.
        """
        self.seed = int(state["seed"])
        self._streams = {}
        for name, frozen in state["streams"].items():
            rng = random.Random()
            rng.setstate(_thaw(frozen))
            self._streams[name] = rng
        return self

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "RngBundle":
        return cls().restore(state)

    def __getstate__(self) -> Dict[str, Any]:
        return self.state()

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # __init__ is bypassed by pickle; restore() rebuilds everything.
        self.restore(state)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RngBundle) and self.state() == other.state()


def _freeze(state: Tuple) -> Tuple:
    """``random.Random.getstate()`` made JSON-friendly-ish (pure tuples)."""
    version, internal, gauss = state
    return (version, tuple(internal), gauss)


def _thaw(frozen: Tuple) -> Tuple:
    version, internal, gauss = frozen
    return (version, tuple(internal), gauss)
