"""The paper's ``NNC`` nonce source.

Section 4.3: "A nonce is an integer generated by a function called NNC.
The sequence of nonces generated by a process using the function NNC has
two properties: unpredictability and nonrepetition."

:class:`NonceSource` provides exactly that — a per-process generator whose
outputs never repeat (enforced, not just probabilistic) and are drawn from
a seeded CSPRNG-style stream so they are unpredictable to other parties.
:class:`NonceRegistry` is the receiver-side dual: it remembers seen nonces
and flags replays.
"""

from __future__ import annotations

import hashlib

from ..errors import ReplayDetected

__all__ = ["NonceSource", "NonceRegistry", "NONCE_BITS"]

NONCE_BITS = 64


class NonceSource:
    """Generates never-repeating, hard-to-predict 64-bit nonces.

    The stream is a hash chain: ``nonce_i = H(seed, i)`` truncated to
    :data:`NONCE_BITS`. Nonrepetition is *verified* against the set of all
    previously issued nonces, so the property the paper requires holds
    unconditionally, not just with high probability.
    """

    def __init__(self, seed: int, *, owner: str = "") -> None:
        self._seed = seed
        self._owner = owner
        self._counter = 0
        self._issued: set[int] = set()

    def next(self) -> int:
        """The paper's ``NNC``: issue the next nonce."""
        while True:
            self._counter += 1
            material = f"{self._owner}:{self._seed}:{self._counter}".encode("utf-8")
            digest = hashlib.sha256(material).digest()
            nonce = int.from_bytes(digest[: NONCE_BITS // 8], "big")
            if nonce not in self._issued:
                self._issued.add(nonce)
                return nonce


class NonceRegistry:
    """Receiver-side replay detection: remembers every nonce it has seen.

    The Zmail bank keeps one registry per peer ISP; a repeated nonce on a
    buy/sell request is the signature of a replay attack.
    """

    def __init__(self) -> None:
        self._seen: set[int] = set()

    def check_and_record(self, nonce: int) -> None:
        """Record ``nonce``; raise :class:`ReplayDetected` if already seen."""
        if nonce in self._seen:
            raise ReplayDetected(f"nonce {nonce} was already used")
        self._seen.add(nonce)

    def __len__(self) -> int:
        return len(self._seen)
