"""Named, independently seeded random streams.

Every stochastic component of the simulation (churn arrivals, session
durations, routing tie-breaks, adversary selection, ...) draws from its own
substream derived from a single root seed.  This keeps components
*statistically decoupled*: adding an extra probe draw does not shift the
churn sequence, so ablations compare like with like.
"""

from __future__ import annotations

from typing import Dict, Iterator

import numpy as np


class RandomStreams:
    """A factory of named :class:`numpy.random.Generator` substreams.

    >>> streams = RandomStreams(seed=7)
    >>> churn = streams["churn"]
    >>> churn2 = streams["churn"]
    >>> churn is churn2       # stable per name
    True

    Substreams are derived with :class:`numpy.random.SeedSequence` spawn
    keys hashed from the stream name, so the mapping name -> stream is
    order-independent.
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def __getitem__(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        if not isinstance(name, str) or not name:
            raise ValueError("stream name must be a non-empty string")
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed deterministically from (root seed, name).
            name_key = [ord(c) for c in name]
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(name_key))
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen

    def get(self, name: str) -> np.random.Generator:
        """Alias for ``streams[name]``."""
        return self[name]

    def spawn(self, name: str) -> "RandomStreams":
        """A child :class:`RandomStreams` rooted at a name-derived seed.

        Useful to give each peer its own family of streams.
        """
        child_seed = int(self[name].integers(0, 2**63 - 1))
        return RandomStreams(seed=child_seed)

    def names(self) -> Iterator[str]:
        """Names of streams created so far."""
        return iter(self._streams)

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
