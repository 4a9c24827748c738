"""Tests for the economic (anti-minting) audit."""

import pytest

from repro.core.audit import EconomicAuditor, minting_audit


class TestAuditorUnit:
    def test_honest_flows_clear(self):
        auditor = EconomicAuditor()
        auditor.register_isp(0, initial_endowment=1000)
        auditor.note_purchase(0, 500)
        auditor.note_sale(0, 1200)
        assert auditor.check() == []

    def test_minting_flagged(self):
        auditor = EconomicAuditor()
        auditor.register_isp(0, initial_endowment=1000)
        auditor.note_sale(0, 1500)
        alerts = auditor.check()
        assert len(alerts) == 1
        assert alerts[0].excess == 500

    def test_mail_inflow_raises_ceiling(self):
        auditor = EconomicAuditor()
        auditor.register_isp(0, initial_endowment=100)
        # Net receiver: credit array sums to -400 (received 400 more).
        auditor.ingest_credit_reports({0: {1: -400}})
        auditor.note_sale(0, 450)
        assert auditor.check() == []

    def test_mail_outflow_lowers_ceiling(self):
        auditor = EconomicAuditor()
        auditor.register_isp(0, initial_endowment=100)
        auditor.ingest_credit_reports({0: {1: 80}})  # net sender
        auditor.note_sale(0, 100)
        alerts = auditor.check()
        assert len(alerts) == 1
        assert alerts[0].excess == 80

    def test_duplicate_registration_rejected(self):
        auditor = EconomicAuditor()
        auditor.register_isp(0, initial_endowment=1)
        with pytest.raises(ValueError):
            auditor.register_isp(0, initial_endowment=1)

    def test_unknown_isps_in_reports_ignored(self):
        auditor = EconomicAuditor()
        auditor.register_isp(0, initial_endowment=1)
        auditor.ingest_credit_reports({9: {0: 5}})  # not tracked: no crash
        assert auditor.check() == []


class TestAuditorIntegration:
    """Wire the auditor to a real deployment's observable flows."""

    def test_honest_deployment_all_clear(self):
        assert minting_audit(0, seed=90) == []

    def test_minting_isp_detected_via_excess_sales(self):
        """ISP 1 mints 5000 e-pennies; users sell them back; the pool
        swells; the ISP sells to the bank beyond its solvency ceiling."""
        alerts = minting_audit(5000, seed=90)
        assert [a.isp_id for a in alerts] == [1]
        assert alerts[0].excess > 0

    def test_detection_threshold_scales_with_mint(self):
        small_alerts = {a.isp_id: a for a in minting_audit(5000, seed=91)}
        large_alerts = {a.isp_id: a for a in minting_audit(9000, seed=91)}
        assert large_alerts[1].excess > small_alerts[1].excess
