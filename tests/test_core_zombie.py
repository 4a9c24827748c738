"""Tests for zombie containment and detection (§4.1, §5)."""

from repro.core import ZmailConfig, ZmailNetwork
from repro.core.transfer import SendStatus
from repro.core.zombie import ZombieMonitor
from repro.sim import HOUR, SeededStreams
from repro.sim.workload import Address, ZombieBurstWorkload


def make_net(limit=50):
    config = ZmailConfig(
        default_daily_limit=limit,
        default_user_balance=10_000,
        auto_topup_amount=0,
    )
    return ZmailNetwork(n_isps=2, users_per_isp=5, config=config, seed=4)


class TestContainment:
    def test_zombie_blocked_at_limit(self):
        net = make_net(limit=20)
        zombie = Address(0, 1)
        statuses = [
            net.send(zombie, Address(1, i % 5)).status for i in range(100)
        ]
        sent = sum(1 for s in statuses if s is SendStatus.SENT_PAID)
        blocked = sum(1 for s in statuses if s is SendStatus.BLOCKED_LIMIT)
        assert sent == 20
        assert blocked == 80

    def test_liability_bounded_by_limit(self):
        """§5: the user loses at most `limit` e-pennies per day."""
        net = make_net(limit=20)
        zombie = Address(0, 1)
        before = net.isps[0].ledger.user(1).balance
        for i in range(500):
            net.send(zombie, Address(1, i % 5))
        assert before - net.isps[0].ledger.user(1).balance == 20

    def test_limit_resets_next_day(self):
        net = make_net(limit=20)
        zombie = Address(0, 1)
        for i in range(30):
            net.send(zombie, Address(1, i % 5))
        net.advance_day_to(1)
        receipt = net.send(zombie, Address(1, 0))
        assert receipt.status is SendStatus.SENT_PAID

    def test_normal_users_unaffected(self):
        net = make_net(limit=50)
        for day in range(3):
            for i in range(10):
                receipt = net.send(Address(0, 2), Address(1, i % 5))
                assert receipt.status is SendStatus.SENT_PAID
            net.advance_day_to(day + 1)


class TestDetection:
    def run_outbreak(self, limit=30):
        net = make_net(limit=limit)
        monitor = ZombieMonitor(net)
        zombie = Address(0, 3)
        workload = ZombieBurstWorkload(
            zombie=zombie, n_isps=2, users_per_isp=5,
            rate_per_hour=100.0, start=0.0, end=6 * HOUR,
            streams=SeededStreams(9),
        )
        net.run_workload(workload.generate())
        return net, monitor, zombie

    def test_zombie_detected(self):
        net, monitor, zombie = self.run_outbreak()
        fresh = monitor.poll()
        assert any(d.address == zombie for d in fresh)
        assert monitor.detected(zombie)

    def test_detection_reports_limit_bound(self):
        net, monitor, zombie = self.run_outbreak(limit=30)
        monitor.poll()
        detection = next(d for d in monitor.detections if d.address == zombie)
        assert detection.liability_epennies <= 30

    def test_poll_reports_each_zombie_once(self):
        net, monitor, zombie = self.run_outbreak()
        first = monitor.poll()
        second = monitor.poll()
        assert len(first) == 1
        assert second == []

    def test_innocent_users_not_flagged(self):
        net, monitor, zombie = self.run_outbreak()
        monitor.poll()
        flagged = {d.address for d in monitor.detections}
        assert flagged == {zombie}

    def test_total_bounded_liability(self):
        net, monitor, _ = self.run_outbreak(limit=30)
        monitor.poll()
        assert monitor.detections
        assert all(d.liability_epennies <= 30 for d in monitor.detections)


class TestWarningMessage:
    def test_warning_contents(self):
        from repro.core.zombie import ZombieDetection, warning_message

        detection = ZombieDetection(
            address=Address(2, 7), messages_before_block=40, daily_limit=40
        )
        message = warning_message(detection)
        assert message.headers.get("To") == "user7@isp2.example"
        assert message.headers.get("From") == "postmaster@isp2.example"
        assert "daily limit of 40" in message.body
        assert "virus" in message.body

    def test_warning_serializes(self):
        from repro.core.zombie import ZombieDetection, warning_message
        from repro.smtp.message import MailMessage

        detection = ZombieDetection(
            address=Address(0, 1), messages_before_block=10, daily_limit=10
        )
        wire = warning_message(detection).serialize()
        parsed = MailMessage.parse(wire)
        assert parsed.subject.startswith("Warning")
