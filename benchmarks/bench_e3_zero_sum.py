"""E3 — zero-sum conservation at scale (§1.2, §4.1).

Drives over 100k messages (plus buy/sell churn via pool rebalancing and
auto top-ups) through a world document on the direct and columnar
executors and checks exact integer conservation of total value, plus
throughput of the accounting hot path and a count of what that path
does: every funded send is one ledger transfer and no bank trade.
"""

from collections import Counter

from conftest import report, run_document

from repro.core import ZmailConfig, ZmailNetwork
from repro.core.transfer import SendStatus
from repro.obs import ListSink, TraceRecorder
from repro.sim import DAY
from repro.sim.workload import Address, TrafficKind

# Ten funded senders at half the default 200/day limit: no send is
# refused, so every one must take the full paid path.
SENDERS = 10
SENDS_PER_SENDER = 100

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


def funded_send_counts() -> dict:
    """Drive ``SENDERS x SENDS_PER_SENDER`` funded sends and count them."""
    sink = ListSink()
    net = ZmailNetwork(
        n_isps=2, users_per_isp=SENDERS, seed=1,
        tracer=TraceRecorder(sink=sink),
    )
    senders = [Address(0, user) for user in range(SENDERS)]
    for sender in senders:
        net.fund_user(sender, epennies=SENDS_PER_SENDER)
    before = sum(net.isps[0].ledger.user(s.user).balance for s in senders)
    for i in range(SENDS_PER_SENDER):
        for sender in senders:
            net.send(sender, Address(1, i % SENDERS), TrafficKind.NORMAL)
    after = sum(net.isps[0].ledger.user(s.user).balance for s in senders)
    events = sink.events()
    types = Counter(event["type"] for event in events)
    return {
        "sends": SENDERS * SENDS_PER_SENDER,
        "ledger_transfers": sum(
            1 for event in events if event["type"] == "deliver" and event["ok"]
        ),
        "epennies_moved": before - after,
        "bank_trades": types["bank.trade"],
        "topups": types["topup"],
    }


def test_e3_transfer_throughput(benchmark):
    """Messages/second through the full accounting path.

    Virtual time stands still while the benchmark repeats the send, so
    the daily limit is lifted out of reach and the sender funded for
    every call: each timed send takes the paid path, none the refusal.
    """
    net = ZmailNetwork(
        n_isps=2, users_per_isp=10, seed=1,
        config=ZmailConfig(default_daily_limit=10**9),
    )
    net.fund_user(Address(0, 0), epennies=10**7)
    counter = iter(range(10**9))
    statuses = Counter()

    def one_send():
        i = next(counter)
        receipt = net.send(Address(0, 0), Address(1, i % 10), TrafficKind.NORMAL)
        statuses[receipt.status] += 1

    benchmark(one_send)
    assert net.metrics.counter("send.blocked_limit").value == 0
    assert set(statuses) == {SendStatus.SENT_PAID}
    counts = funded_send_counts()
    n = counts["sends"]
    assert counts["ledger_transfers"] == counts["epennies_moved"] == n
    assert counts["bank_trades"] == counts["topups"] == 0
    report(
        "E3-throughput",
        "the bulk-accounting hot path is cheap (no per-message bank round "
        "trip): N funded sends are N ledger transfers and zero bank trades",
        [{"path": "send+deliver+ledger", **counts}],
    )
