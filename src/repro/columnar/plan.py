"""Chunk planning: k-way merge of column streams into sorted batches.

A *column stream* is ``(kind, chunks)`` where ``chunks`` iterates
``(times, sender_gids, recipient_gids)`` numpy triples in time order
(see ``generate_columns`` on the workload classes). The merger combines
every stream into one globally time-ordered sequence of
:class:`ChunkPlan` batches without ever materializing the full workload:
each round it buffers at most one pending chunk per stream, cuts all
buffers at the *horizon* — the smallest last-buffered time across live
streams, below which no stream can still produce an arrival — and
stable-sorts the concatenated prefix.

Tie-breaking matches :func:`repro.sim.workload.merge_workloads` exactly:
``heapq.merge`` breaks equal keys by input order, and a stable argsort
over a stream-ordered concatenation does the same. This merge is the
request order of every executor: the columnar executor reads its
plans, and :meth:`repro.core.scenario.Scenario.request_rows` expands
them into the rows the direct loop, the cluster shards and the arena
match replay. A tie-break change here therefore moves every
direct-semantics run; ``tests/test_sim_traffic_pins.py`` holds the
merge to ``heapq.merge`` over request objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..sim.workload import TrafficKind

__all__ = ["KIND_ORDER", "ChunkPlan", "merge_column_streams"]

#: Fixed kind-code table: index into this tuple is the uint8 code carried
#: in :attr:`ChunkPlan.kinds`.
KIND_ORDER = tuple(TrafficKind)


@dataclass(frozen=True, slots=True)
class ChunkPlan:
    """One globally time-sorted batch of sends as parallel columns."""

    times: object  # float64[n] — non-decreasing
    senders: object  # int64[n] — flat user gids
    recipients: object  # int64[n]
    kinds: object  # uint8[n] — indices into KIND_ORDER

    def __len__(self) -> int:
        return len(self.times)


def merge_column_streams(
    streams: list[tuple[TrafficKind, Iterator[tuple]]],
) -> Iterator[ChunkPlan]:
    """Merge per-workload column streams into sorted :class:`ChunkPlan`\\ s."""
    import numpy as np

    kind_code = {kind: code for code, kind in enumerate(KIND_ORDER)}
    # Per stream: [chunk iterator or None when exhausted, buffered triple
    # or None when drained, kind code]. List order is stream order — the
    # tie-break contract.
    entries = [
        [iter(chunks), None, kind_code[kind]] for kind, chunks in streams
    ]
    while True:
        alive = []
        for entry in entries:
            while entry[1] is None and entry[0] is not None:
                try:
                    candidate = next(entry[0])
                except StopIteration:
                    entry[0] = None
                    break
                if len(candidate[0]):
                    entry[1] = candidate
            if entry[1] is not None:
                alive.append(entry)
        if not alive:
            return
        horizon = min(entry[1][0][-1] for entry in alive)
        parts_t, parts_s, parts_r, parts_k = [], [], [], []
        for entry in alive:
            times, senders, recipients = entry[1]
            cut = int(np.searchsorted(times, horizon, side="right"))
            if cut == 0:
                continue
            parts_t.append(times[:cut])
            parts_s.append(senders[:cut])
            parts_r.append(recipients[:cut])
            parts_k.append(np.full(cut, entry[2], dtype=np.uint8))
            entry[1] = (
                (times[cut:], senders[cut:], recipients[cut:])
                if cut < len(times)
                else None
            )
        times = np.concatenate(parts_t)
        order = np.argsort(times, kind="stable")
        yield ChunkPlan(
            times=times[order],
            senders=np.concatenate(parts_s)[order],
            recipients=np.concatenate(parts_r)[order],
            kinds=np.concatenate(parts_k)[order],
        )
