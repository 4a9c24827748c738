"""E8 — daily limits bound zombie liability and detect infections (§5).

Sweeps the limit value and the outbreak rate over one day of world
documents, each run on the direct and columnar executors: liability is
always capped at the limit and every zombie is detected (it necessarily
hits its limit). The limit also flags an innocent user who happens to
send more than it in a day; the sweep prints how many it flags next to
how many the normal workload predicts, and asserts none only where that
prediction is negligible.
"""

import math

from conftest import report, run_document

from repro.sim import DAY, HOUR, Address

ISPS, USERS, RATE_PER_DAY = 3, 12, 5.0
ZOMBIES = [Address(i % ISPS, 2 + i) for i in range(3)]


def outbreak(limit: int, rate_per_hour: float) -> dict:
    """Three zombies blasting for 12 hours amid a day of normal mail."""
    return {
        "schema_version": 1,
        "name": f"e8-limit{limit}-rate{rate_per_hour:g}",
        "seed": 21,
        "topology": {"n_isps": ISPS, "users_per_isp": USERS},
        "economics": {
            "default_daily_limit": limit,
            "default_user_balance": 1_000,
            "auto_topup_amount": 0,
        },
        "traffic": {
            "duration": DAY,
            "normal_rate_per_day": RATE_PER_DAY,
            "zombies": [
                {"isp": z.isp, "user": z.user, "rate_per_hour": rate_per_hour,
                 "start": 0.0, "end": 12 * HOUR}
                for z in ZOMBIES
            ],
        },
    }


def run_outbreak(limit: int, rate_per_hour: float) -> dict:
    result = run_document(outbreak(limit, rate_per_hour))
    isps = result.network.isps
    detected = {d.address for d in result.zombie_detections}
    return {
        "detected": len(detected & set(ZOMBIES)),
        "false_alarms": len(detected - set(ZOMBIES)),
        "max_liability": max(
            1_000 - isps[z.isp].ledger.user(z.user).balance for z in ZOMBIES
        ),
        "blocked": result.blocked_limit,
    }


def expected_false_alarms(limit: int) -> float:
    """Innocent users expected to send more than ``limit`` mails in the
    day: their number times P(X > limit) for X ~ Poisson(RATE_PER_DAY)."""
    innocents = ISPS * USERS - len(ZOMBIES)
    mean = RATE_PER_DAY
    tail = math.fsum(
        math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))
        for k in range(limit + 1, limit + 200)
    )
    return innocents * tail


def test_e8_limit_sweep(benchmark):
    def sweep():
        rows = []
        for limit in (10, 50, 200):
            result = run_outbreak(limit, rate_per_hour=150.0)
            rows.append(
                {
                    "daily_limit": limit,
                    "zombies": len(ZOMBIES),
                    "detected": result["detected"],
                    "false_alarms": result["false_alarms"],
                    "expected_false_alarms": round(
                        expected_false_alarms(limit), 3
                    ),
                    "max_liability": result["max_liability"],
                    "virus_mail_blocked": result["blocked"],
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    for row in rows:
        assert row["detected"] == row["zombies"]  # all detected
        assert row["max_liability"] <= row["daily_limit"]  # bounded
        if row["expected_false_alarms"] < 0.01:
            assert row["false_alarms"] == 0
    # Lower limits bound liability tighter and block more virus mail.
    assert rows[0]["max_liability"] <= rows[-1]["max_liability"]
    report(
        "E8a",
        "the daily limit bounds zombie liability and detects every zombie; "
        "it flags innocent users only as often as normal traffic crosses it",
        rows,
    )


def test_e8_outbreak_rate_sweep(benchmark):
    def sweep():
        rows = []
        for rate in (30.0, 150.0, 600.0):
            result = run_outbreak(limit=50, rate_per_hour=rate)
            rows.append(
                {
                    "zombie_rate_per_hour": rate,
                    "detected": result["detected"],
                    "max_liability": result["max_liability"],
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    assert all(row["max_liability"] <= 50 for row in rows)
    report(
        "E8b",
        "liability stays bounded no matter how fast the zombie blasts",
        rows,
    )
