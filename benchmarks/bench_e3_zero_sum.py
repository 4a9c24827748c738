"""E3 — zero-sum conservation at scale (§1.2, §4.1).

Drives over 100k messages (plus buy/sell churn via pool rebalancing and
auto top-ups) through a world document on the direct and columnar
executors and checks exact integer conservation of total value, plus
throughput of the accounting hot path.
"""

from conftest import report, run_document

from repro.core import ZmailNetwork
from repro.sim import DAY

# 200 users at 50 mails a day; 10 days fall just short of 100k sends.
WORLD = {
    "schema_version": 1,
    "name": "e3-zero-sum",
    "seed": 3,
    "topology": {"n_isps": 5, "users_per_isp": 40},
    "economics": {"default_user_balance": 30, "auto_topup_amount": 20},
    "traffic": {"duration": 11 * DAY, "normal_rate_per_day": 50.0},
}


def test_e3_conservation_100k_messages(benchmark):
    result = benchmark.pedantic(
        run_document, args=(WORLD,), iterations=1, rounds=1
    )
    net = result.network
    assert result.sends_attempted >= 100_000
    assert result.conserved and result.all_reconciliations_consistent
    topups = net.metrics.counter("topup.count").value
    rebalances = (
        net.metrics.counter("bank.buys").value
        + net.metrics.counter("bank.sells").value
    )
    report(
        "E3",
        "every transaction is zero-sum: total value is exactly conserved",
        [
            {
                "messages": result.sends_attempted,
                "topups": topups,
                "bank_rebalances": rebalances,
                "total_value": net.total_value(),
                "expected": net.expected_total_value(),
                "conserved": result.conserved,
            }
        ],
    )


def test_e3_transfer_throughput(benchmark):
    """Messages/second through the full accounting path."""
    from repro.sim.workload import Address, TrafficKind

    net = ZmailNetwork(n_isps=2, users_per_isp=10, seed=1)
    net.fund_user(Address(0, 0), epennies=10**7)
    counter = iter(range(10**9))

    def one_send():
        i = next(counter)
        net.send(Address(0, 0), Address(1, i % 10), TrafficKind.NORMAL)

    benchmark(one_send)
    report(
        "E3-throughput",
        "the bulk-accounting hot path is cheap (no per-message bank round trip)",
        [{"path": "send+deliver+ledger", "note": "see pytest-benchmark table"}],
    )
