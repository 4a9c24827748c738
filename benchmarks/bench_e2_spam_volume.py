"""E2 — "the amount of spam will undoubtedly decrease substantially" (§1.2).

Two parts: (a) the market projection — profit-maximising spammers
re-optimise under Zmail pricing and aggregate spam volume collapses from
the calibrated 60% share; (b) a behavioural simulation — a funded
spammer in a world document, run on the direct and columnar executors,
is cut off by its war chest.
"""

from conftest import report, run_document

from repro.core import ZmailConfig, ZmailNetwork
from repro.economics import CampaignModel, project_market
from repro.economics.adaptive import AdaptiveSpammer
from repro.sim import DAY, Address

CAMPAIGNS = [
    CampaignModel(1_000_000, 0.00003, 25.0),
    CampaignModel(1_000_000, 0.00005, 40.0),
    CampaignModel(1_000_000, 0.00001, 200.0),
    CampaignModel(1_000_000, 0.002, 30.0),
]


def market_projection():
    return project_market(campaigns=CAMPAIGNS)


def test_e2_market_volume_collapse(benchmark):
    before, after = benchmark(market_projection)
    assert before.spam_share > 0.55
    assert after.spam_volume < 0.35 * before.spam_volume  # "substantially"
    assert after.isp_annual_cost < before.isp_annual_cost
    report(
        "E2a",
        "profit-maximising spam volume decreases substantially under Zmail",
        [
            {
                "regime": s.regime,
                "spam_volume": int(s.spam_volume),
                "spam_share": f"{s.spam_share:.0%}",
                "isp_cost_$": int(s.isp_annual_cost),
            }
            for s in (before, after)
        ],
    )


#: A 20,000-mail campaign from isp0's user 0 with a 2,000 e¢ war chest.
FUNDED = {
    "schema_version": 1,
    "name": "e2-funded-campaign",
    "seed": 7,
    "topology": {"n_isps": 4, "users_per_isp": 25},
    "economics": {
        "default_daily_limit": 10**9,
        "default_user_balance": 50,
        "auto_topup_amount": 0,
    },
    "traffic": {
        "duration": DAY,
        "normal_rate_per_day": 0.0,
        "spammers": [{"isp": 0, "volume": 20_000, "war_chest": 2_000}],
    },
}


def test_e2_war_chest_bounds_campaign(benchmark):
    result = benchmark.pedantic(
        run_document, args=(FUNDED,), iterations=1, rounds=1
    )
    assert result.conserved
    metrics = result.network.metrics
    delivered = (
        metrics.counter("send.sent_paid").value
        + metrics.counter("send.delivered_local").value
    )
    blocked = result.blocked_balance
    # Delivery is bounded by funding (war chest + initial balance + windfalls
    # the spammer's own address happens to receive), not by bandwidth.
    assert delivered < 3_000
    assert blocked > 15_000
    report(
        "E2b",
        "a spammer's reach is bounded by money, not bandwidth",
        [
            {
                "war_chest_epennies": 2_000,
                "attempted": result.sends_attempted,
                "delivered": delivered,
                "blocked_broke": blocked,
            }
        ],
    )


def test_e2_adaptive_spammer_no_oracle(benchmark):
    """E2 dynamic form: a spammer with NO knowledge of the regime, only
    observed profit, grows under free riding and collapses under Zmail."""
    def run_both():
        rows = []
        for label, compliant_flags, spammer_isp, epenny in (
            ("status-quo", [True, True, False], 2, 0.0),
            ("zmail", [True, True, True], 0, 0.01),
        ):
            net = ZmailNetwork(
                n_isps=3, users_per_isp=10, compliant=compliant_flags,
                config=ZmailConfig(
                    default_daily_limit=10**6,
                    default_user_balance=10**6,
                    auto_topup_amount=0,
                ),
                seed=82,
            )
            # Conversion between the two break-evens: profitable at
            # $0.0001/msg, a loser at $0.0101/msg.
            spammer = AdaptiveSpammer(
                network=net,
                address=Address(spammer_isp, 0),
                conversion_rate=0.0002,
                epenny_dollars=epenny,
                initial_volume=10_000,
                seed=82,
            )
            spammer.run(periods=10)
            rows.append(
                {
                    "regime": label,
                    "initial_volume": 10_000,
                    "final_volume": spammer.final_volume(),
                    "total_profit_$": round(spammer.total_profit(), 2),
                    "collapsed": spammer.collapsed(below=1000),
                }
            )
        return rows

    rows = benchmark.pedantic(run_both, iterations=1, rounds=1)
    status_quo, zmail = rows
    assert status_quo["final_volume"] > status_quo["initial_volume"]
    assert zmail["collapsed"]
    report(
        "E2c",
        "an adaptive spammer needs no oracle: market feedback alone grows "
        "free-riding campaigns and extinguishes paid ones",
        rows,
    )
