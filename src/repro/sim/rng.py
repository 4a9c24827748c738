"""Seeded random-number streams for reproducible simulations.

Every stochastic component in the library draws from a named stream derived
from a single root seed. Streams are independent: adding draws to one stream
does not perturb another, so experiments stay comparable when a workload
gains a new source of randomness.

Workload traffic is drawn in bulk from the numpy generators
(:meth:`SeededStreams.get_numpy`); the :class:`random.Random` streams
(:meth:`SeededStreams.get`) serve the one-at-a-time draws — contact
lists, link latency and loss, fault injection.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

__all__ = ["SeededStreams", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (unlike ``hash``, which is salted per process).
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededStreams:
    """A registry of independent named :class:`random.Random` streams.

    Example:
        >>> streams = SeededStreams(42)
        >>> a = streams.get("arrivals")
        >>> b = streams.get("payload")
        >>> a is streams.get("arrivals")
        True
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = root_seed
        self._streams: dict[str, random.Random] = {}
        self._np_streams: dict[str, object] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.root_seed, name))
            self._streams[name] = stream
        return stream

    def get_numpy(self, name: str):
        """Return a ``numpy.random.Generator`` for ``name`` (bulk draws).

        Numpy generators live in their own namespace (the seed is derived
        from ``"numpy:" + name``), so a python stream and a numpy stream
        with the same name stay independent. The workloads draw whole
        arrays of inter-arrival times and targets from these in one call
        while keeping per-seed determinism.
        """
        generator = self._np_streams.get(name)
        if generator is None:
            seed = derive_seed(self.root_seed, f"numpy:{name}")
            generator = np.random.Generator(np.random.PCG64(seed))
            self._np_streams[name] = generator
        return generator

    def spawn(self, name: str) -> "SeededStreams":
        """Create a child registry whose root seed is derived from ``name``.

        Useful for giving each simulated entity (user, ISP) its own family
        of streams without global coordination.
        """
        return SeededStreams(derive_seed(self.root_seed, name))
