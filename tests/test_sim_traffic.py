"""The auditor's view: credit arrays equal ground-truth traffic imbalances."""

import random
from collections import Counter

from repro.core import ZmailNetwork
from repro.sim.workload import Address, TrafficKind


def expected_credit_array(sent: Counter, isp_id: int, n_isps: int) -> dict:
    """Paid mail ``isp_id`` sent to each peer minus what it received,
    omitting balanced pairs."""
    imbalance = {
        peer: sent[isp_id, peer] - sent[peer, isp_id]
        for peer in range(n_isps) if peer != isp_id
    }
    return {peer: value for peer, value in imbalance.items() if value}


class TestCreditOracle:
    def drive(self, seed=70, messages=1500, n_isps=4):
        net = ZmailNetwork(n_isps=n_isps, users_per_isp=5, seed=seed)
        sent = Counter()
        rng = random.Random(seed)
        for _ in range(messages):
            src = Address(rng.randrange(n_isps), rng.randrange(5))
            dst = Address(rng.randrange(n_isps), rng.randrange(5))
            receipt = net.send(src, dst, TrafficKind.NORMAL)
            if receipt.status.value == "sent_paid":
                sent[src.isp, dst.isp] += 1
        return net, sent

    def test_credit_arrays_match_ground_truth(self):
        net, sent = self.drive()
        for isp_id, isp in net.compliant_isps().items():
            expected = expected_credit_array(sent, isp_id, net.n_isps)
            actual = {k: v for k, v in isp.credit.items() if v}
            assert actual == expected, f"isp {isp_id}"

    def test_snapshot_reply_matches_ground_truth(self):
        net, sent = self.drive(seed=71)
        isps = net.compliant_isps()
        for isp in isps.values():
            isp.begin_snapshot(0)
        for isp_id, isp in isps.items():
            reply = isp.snapshot_reply()
            isp.resume_sending()
            nonzero = {k: v for k, v in reply.items() if v}
            assert nonzero == expected_credit_array(sent, isp_id, net.n_isps)
