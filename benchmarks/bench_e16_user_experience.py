"""E16 (headline synthesis) — what a user actually sees in the inbox.

The paper's motivation is user experience: spam drowning inboxes. This
experiment runs the full deployment — normal correspondence plus funded
spammers on compliant ISPs plus free-riding spammers on non-compliant
ISPs — and measures the inbox spam fraction for users of compliant vs
non-compliant ISPs as adoption grows. It synthesises E2 (economics cut
off compliant-side spam), the §5 policy lever (non-compliant mail is
segregated), and the adoption incentive of E9 (compliant users' inboxes
are visibly cleaner, which is what drives switching).
"""

from conftest import report, run_document

from repro.sim import DAY

N_ISPS = 8
USERS = 10


def world(n_compliant: int) -> dict:
    """ISPs ``n_compliant`` and up do not comply. One spammer on isp0
    pays from a 200 e¢ war chest; one per non-compliant ISP sends free."""
    spam = {"volume": 2_000, "duration": 5 * DAY}
    return {
        "schema_version": 1,
        "name": f"e16-compliant{n_compliant}",
        "seed": 16,
        "topology": {
            "n_isps": N_ISPS,
            "users_per_isp": USERS,
            "noncompliant": list(range(n_compliant, N_ISPS)),
        },
        "economics": {
            "default_user_balance": 60,
            "auto_topup_amount": 0,
            "default_daily_limit": 100_000,
            "noncompliant_policy": "segregate",
        },
        "traffic": {
            "duration": 5 * DAY,
            "normal_rate_per_day": 8.0,
            "spammers": [{"isp": 0, "war_chest": 200, **spam}]
            + [{"isp": isp, **spam} for isp in range(n_compliant, N_ISPS)],
        },
    }


def run_world(n_compliant: int):
    return run_document(world(n_compliant))


def test_e16_inbox_spam_vs_adoption(benchmark):
    def sweep():
        rows = []
        for n_compliant in (2, 4, 6, 8):
            result = run_world(n_compliant)
            compliant = result.network.compliant_isps().values()
            rows.append(
                {
                    "compliant_isps": n_compliant,
                    "inbox_total": sum(
                        user.inbox
                        for isp in compliant
                        for user in isp.ledger.users()
                    ),
                    "spam_delivered_all": result.spam_delivered,
                    # Free-riding spam segregated into compliant users'
                    # junk folders, never their inboxes.
                    "spam_junked_not_inboxed": result.junked,
                    # Paid spam refused once the war chest ran dry.
                    "compliant_spammer_blocked": result.blocked_balance,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    # Spam aimed at compliant users costs money: the more of the network
    # complies, the sooner the spammer's war chest chokes the campaign.
    blocked = [row["compliant_spammer_blocked"] for row in rows]
    assert blocked[-1] > blocked[0]
    assert blocked[-1] > 1_000  # full adoption: most of the blast refused
    # Free-riding spam lands in junk folders, not inboxes...
    assert all(row["spam_junked_not_inboxed"] > 0 for row in rows[:-1])
    # ...and at full adoption no free-riding spammers exist at all.
    assert rows[-1]["spam_junked_not_inboxed"] == 0
    report(
        "E16",
        "compliant-ISP users' inboxes stay clean: paid spam is throttled "
        "by money, free spam is segregated; incentives grow with adoption",
        rows,
    )


def test_e16_windfall_to_receivers(benchmark):
    """§1.2: whatever paid spam does arrive is compensated attention."""

    def run():
        isps = run_world(4).network.isps
        return sum(
            max(0, user.net_epenny_flow)
            for isp_id in range(1, 4)  # compliant ISPs other than spammer's
            for user in isps[isp_id].ledger.users()
        )

    windfall = benchmark.pedantic(run, iterations=1, rounds=1)
    assert windfall > 0
    report(
        "E16b",
        "received spam is a windfall: e-pennies land with the receivers",
        [{"aggregate_receiver_windfall_epennies": windfall}],
    )
