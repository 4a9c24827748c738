"""E4 — normal users "neither pay nor profit" on average (§1.2).

Balanced correspondence (a world document, run on the direct and
columnar executors): per-user net e-penny flow distribution should be
centred on zero with small spread, and the buffer needed to ride out the
fluctuations is pocket change. Sweeps the send/receive imbalance to show
where neutrality breaks (deliberately unbalanced users pay).
"""

from conftest import report, run_document

from repro.core import ZmailNetwork
from repro.economics import analyze_user_flows, required_buffer
from repro.sim import DAY, Address, SeededStreams, TrafficKind
from repro.sim.workload import NormalUserWorkload

WORLD = {
    "schema_version": 1,
    "name": "e4-balanced",
    "seed": 6,
    "topology": {"n_isps": 3, "users_per_isp": 20},
    "traffic": {"duration": 20 * DAY, "normal_rate_per_day": 10.0},
}


def test_e4_balanced_users_are_neutral(benchmark):
    result = benchmark.pedantic(
        run_document, args=(WORLD,), iterations=1, rounds=1
    )
    summary = analyze_user_flows(result.network, tolerance=100)
    # Population-level neutrality is exact (every debit credits someone).
    assert abs(summary.mean_net_flow) < 0.5
    # Individual imbalance is popularity-driven and stays well below the
    # gross traffic volume: the "neither pay nor profit" regime.
    assert summary.stddev_net_flow < 0.5 * summary.mean_sent
    assert summary.fraction_within > 0.8  # most users within 100 e¢ ($1)
    report(
        "E4",
        "users who receive as much as they send neither pay nor profit; "
        "individual drift stays tiny next to gross volume",
        [
            {
                "users": summary.users,
                "mean_net_epennies": round(summary.mean_net_flow, 3),
                "stddev": round(summary.stddev_net_flow, 1),
                "gross_sent_per_user": round(summary.mean_sent, 1),
                "min": summary.min_net_flow,
                "max": summary.max_net_flow,
                "within_$1": f"{summary.fraction_within:.0%}",
            }
        ],
    )


def test_e4_imbalance_sweep(benchmark):
    """Users who send extra mail beyond what they receive pay for it."""

    def run_sweep():
        rows = []
        for extra_sends in (0, 50, 200):
            net = ZmailNetwork(n_isps=2, users_per_isp=10, seed=8)
            workload = NormalUserWorkload(
                n_isps=2, users_per_isp=10, rate_per_day=10.0,
                streams=SeededStreams(8),
            )
            net.run_workload(workload.generate(10 * DAY))
            heavy = Address(0, 0)
            net.fund_user(heavy, epennies=extra_sends)
            for i in range(extra_sends):
                net.send(heavy, Address(1, i % 10), TrafficKind.NORMAL)
            isp = net.isps[0]
            rows.append(
                {
                    "extra_sends": extra_sends,
                    "heavy_user_net": isp.ledger.user(0).net_epenny_flow,
                }
            )
        return rows

    rows = benchmark(run_sweep)
    assert rows[0]["heavy_user_net"] > rows[1]["heavy_user_net"]
    assert rows[1]["heavy_user_net"] > rows[2]["heavy_user_net"]
    report(
        "E4-imbalance",
        "net cost scales with send/receive imbalance (senders-of-more pay)",
        rows,
    )


def test_e4_required_buffer(benchmark):
    rows = benchmark(
        lambda: [
            {
                "msgs_per_day": rate,
                "days": 30,
                "buffer_epennies": required_buffer(rate, 30),
                "buffer_dollars": required_buffer(rate, 30) / 100.0,
            }
            for rate in (5, 20, 100)
        ]
    )
    # Even a heavy correspondent's float is a few dollars.
    assert rows[-1]["buffer_dollars"] < 10.0
    report(
        "E4-buffer",
        "initial balances needed to buffer fluctuations are pocket change",
        rows,
    )
