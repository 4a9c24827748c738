"""E18 (extension) — the bank's economic audit catches e-penny minting.

The paper stops at "the bank may make further investigation". This
experiment completes it: across reconciliation rounds the bank bounds
each ISP's legitimate e-penny holdings from observable flows (initial
endowment + purchases + net mail inflow from credit arrays) and flags
ISPs whose cumulative sales exceed the bound. Sweeps the minted amount:
small frauds stay under the ceiling until the ISP cashes out; cashing out
is exactly what makes minting profitable, so profit implies detection.
"""

from conftest import report

from repro.core.audit import minting_audit


def run_audit(mint: int):
    alerts = minting_audit(mint, seed=18)
    return {
        "minted": mint,
        "flagged_isps": [a.isp_id for a in alerts],
        "detected_excess": alerts[0].excess if alerts else 0,
        "cashed_out": any(a.isp_id == 1 for a in alerts),
    }


def test_e18_minting_detection_sweep(benchmark):
    def sweep():
        return [run_audit(mint) for mint in (0, 3000, 6000, 12000)]

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    honest = rows[0]
    assert honest["flagged_isps"] == []  # no false alarms
    # Every real mint that gets cashed out is flagged, and the detected
    # excess grows with the minted amount.
    assert all(row["flagged_isps"] == [1] for row in rows[1:])
    excesses = [row["detected_excess"] for row in rows[1:]]
    assert excesses == sorted(excesses)
    report(
        "E18",
        "the solvency audit flags ISPs that mint e-pennies the moment the "
        "fraud is cashed out; honest ISPs are never flagged",
        rows,
    )
