"""Credit-array verification and misbehaviour inference (§4.4).

After a snapshot round the bank holds every compliant ISP's credit array.
For honest ISPs and a consistent cut, ``credit_i[j] + credit_j[i] == 0``
for every pair. :func:`verify_credit_matrix` finds the violating pairs;
:func:`infer_suspects` goes one step further than the paper (which stops
at "the bank may make further investigation") and ranks ISPs by how many
inconsistent pairs they appear in — a cheater that misreports against
many peers stands out, while a single inconsistent pair leaves an
ambiguous two-element suspect set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["InconsistentPair", "ReconciliationReport", "verify_credit_matrix", "infer_suspects"]

#: Bad pairs an ISP must appear in to stand out as a prime suspect.
MIN_PAIR_COUNT = 2


@dataclass(frozen=True)
class InconsistentPair:
    """One violated anti-symmetry constraint."""

    isp_a: int
    isp_b: int
    credit_ab: int  # what a reported about b
    credit_ba: int  # what b reported about a

    @property
    def discrepancy(self) -> int:
        """The nonzero sum — magnitude of the disagreement."""
        return self.credit_ab + self.credit_ba


@dataclass
class ReconciliationReport:
    """Outcome of one §4.4 verification round."""

    round_seq: int
    isps_polled: int
    pairs_checked: int
    inconsistent: list[InconsistentPair] = field(default_factory=list)
    suspects: list[int] = field(default_factory=list)
    settlement_operations: int = 0  # for the E6 cost comparison
    settlement_bytes: int = 0

    @property
    def consistent(self) -> bool:
        """Whether every pair satisfied anti-symmetry."""
        return not self.inconsistent

    def flagged_isps(self) -> set[int]:
        """Every ISP appearing in at least one inconsistent pair."""
        flagged: set[int] = set()
        for pair in self.inconsistent:
            flagged.add(pair.isp_a)
            flagged.add(pair.isp_b)
        return flagged


def verify_credit_matrix(
    reports: dict[int, dict[int, int]]
) -> list[InconsistentPair]:
    """Check anti-symmetry over all reported credit arrays.

    Args:
        reports: ``{isp_id: {peer_id: credit}}`` as collected by the bank.
            Missing entries default to 0 (an ISP that exchanged no mail
            with a peer reports nothing for it).

    Returns:
        The inconsistent pairs, ordered by ``(isp_a, isp_b)``.
    """
    bad: list[InconsistentPair] = []
    isps = sorted(reports)
    for index, a in enumerate(isps):
        for b in isps[index + 1 :]:
            credit_ab = reports[a].get(b, 0)
            credit_ba = reports[b].get(a, 0)
            if credit_ab + credit_ba != 0:
                bad.append(InconsistentPair(a, b, credit_ab, credit_ba))
    return bad


def infer_suspects(inconsistent: list[InconsistentPair]) -> list[int]:
    """Rank likely cheaters from the pattern of inconsistent pairs.

    An ISP misreporting its traffic is inconsistent with *every* honest
    peer it exchanged mail with, so ISPs appearing in
    :data:`MIN_PAIR_COUNT` or more bad pairs are prime suspects. With a
    single bad pair the evidence cannot separate the two parties, so
    both are returned.

    Returns:
        Suspect ISP ids, most-implicated first.
    """
    if not inconsistent:
        return []
    counts: dict[int, int] = {}
    for pair in inconsistent:
        counts[pair.isp_a] = counts.get(pair.isp_a, 0) + 1
        counts[pair.isp_b] = counts.get(pair.isp_b, 0) + 1
    heavy = [isp for isp, c in counts.items() if c >= MIN_PAIR_COUNT]
    if heavy:
        return sorted(heavy, key=lambda isp: (-counts[isp], isp))
    # Ambiguous: single isolated pair(s); report all participants.
    return sorted(counts, key=lambda isp: (-counts[isp], isp))
