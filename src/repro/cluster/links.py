"""Sequence-numbered inter-shard links: the cluster's only data plane.

Cross-shard letters travel as *batches*: each worker emits exactly one
batch per peer shard per epoch (empty batches included), tagged with the
epoch that produced it. The receive side (:class:`InterShardLink`)
enforces the FIFO contract the determinism argument needs:

* a batch tagged below the expected epoch is a **duplicate** (a
  restarted worker replaying its journaled epoch) and is dropped;
* a batch tagged above it is a **gap** — letters were lost — and raises
  :class:`~repro.errors.SimulationError` rather than silently diverging.

Each letter additionally carries a per-source-ISP sequence number
assigned at route time (:class:`LetterSequencer`). Delivery at a barrier
sorts the merged inbound set by ``(src_isp, seq)`` — a pure function of
shard-invariant data — which is what makes the delivered order identical
regardless of how ISPs are spread over workers.

Letters cross process boundaries as plain tuples (no pickled protocol
objects), so the wire format is explicit and version-checkable.
"""

from __future__ import annotations

from ..core.transfer import Letter
from ..errors import SimulationError
from ..sim.workload import Address, TrafficKind

__all__ = [
    "encode_letter",
    "decode_letter",
    "LetterSequencer",
    "ShardOutbox",
    "InterShardLink",
]


def encode_letter(letter: Letter, seq: int) -> tuple:
    """Flatten a letter (plus its per-source-ISP ``seq``) to a wire tuple."""
    return (
        seq,
        letter.sender.isp,
        letter.sender.user,
        letter.recipient.isp,
        letter.recipient.user,
        letter.kind.value,
        letter.paid,
        letter.content,
    )


def decode_letter(wire: tuple) -> tuple[int, Letter]:
    """Rebuild ``(seq, Letter)`` from :func:`encode_letter` output."""
    try:
        seq, s_isp, s_user, r_isp, r_user, kind, paid, content = wire
        letter = Letter(
            Address(s_isp, s_user),
            Address(r_isp, r_user),
            TrafficKind(kind),
            paid=bool(paid),
            content=content,
        )
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"malformed wire letter {wire!r}: {exc}") from exc
    return int(seq), letter


class LetterSequencer:
    """Per-source-ISP monotone sequence numbers for barrier ordering."""

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next: dict[int, int] = {}

    def stamp(self, src_isp: int) -> int:
        """The next sequence number for a letter leaving ``src_isp``."""
        seq = self._next.get(src_isp, 0)
        self._next[src_isp] = seq + 1
        return seq

    def state_dict(self) -> dict:
        return {str(isp): seq for isp, seq in sorted(self._next.items())}

    def load_state(self, state: dict) -> None:
        self._next = {int(isp): int(seq) for isp, seq in state.items()}


class ShardOutbox:
    """Send side: per-destination-shard letter buffers for one epoch."""

    __slots__ = ("src_shard", "_buffers")

    def __init__(self, src_shard: int, peer_shards: list[int]) -> None:
        self.src_shard = src_shard
        self._buffers: dict[int, list[tuple]] = {s: [] for s in peer_shards}

    def add(self, dst_shard: int, wire_letter: tuple) -> None:
        self._buffers[dst_shard].append(wire_letter)

    def flush(self, epoch: int) -> dict[int, dict]:
        """Drain every buffer into one tagged batch per peer shard."""
        batches = {}
        for dst_shard, letters in self._buffers.items():
            batches[dst_shard] = {
                "src_shard": self.src_shard,
                "epoch": epoch,
                "letters": letters,
            }
            self._buffers[dst_shard] = []
        return batches


class InterShardLink:
    """Receive side of one ``src_shard → here`` link: FIFO enforcement."""

    __slots__ = ("src_shard", "expected_epoch")

    def __init__(self, src_shard: int, *, expected_epoch: int = 0) -> None:
        self.src_shard = src_shard
        self.expected_epoch = expected_epoch

    def accept(self, batch: dict) -> list[tuple] | None:
        """Validate one inbound batch.

        Returns its wire letters, or ``None`` for a dropped duplicate.

        Raises:
            SimulationError: wrong link, or an epoch gap (lost batch).
        """
        if batch.get("src_shard") != self.src_shard:
            raise SimulationError(
                f"batch from shard {batch.get('src_shard')!r} arrived on "
                f"the link from shard {self.src_shard}"
            )
        epoch = batch.get("epoch")
        if not isinstance(epoch, int):
            raise SimulationError(f"batch missing epoch tag: {batch!r}")
        if epoch < self.expected_epoch:
            return None  # duplicate from a restarted sender; already applied
        if epoch > self.expected_epoch:
            raise SimulationError(
                f"link from shard {self.src_shard}: expected epoch "
                f"{self.expected_epoch}, got {epoch} (batch lost)"
            )
        self.expected_epoch += 1
        return batch["letters"]
