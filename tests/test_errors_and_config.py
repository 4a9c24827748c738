"""Tests for the exception hierarchy and ZmailConfig validation."""

import pytest

from repro import errors
from repro.core.config import NonCompliantMailPolicy, ZmailConfig
from repro.errors import ConfigError


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in errors.__all__:
            if name == "ReproError":
                continue
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_subsystem_groupings(self):
        assert issubclass(errors.InsufficientBalance, errors.LedgerError)
        assert issubclass(errors.UnknownISP, errors.LedgerError)
        assert issubclass(errors.ReplayDetected, errors.ProtocolError)
        assert issubclass(errors.DecryptionError, errors.CryptoError)
        assert issubclass(errors.SMTPTemporaryError, errors.SMTPError)
        assert issubclass(errors.GuardError, errors.APNError)

    def test_single_except_clause_catches_all(self):
        caught = []
        for cls in (errors.InsufficientFunds, errors.SnapshotInProgress,
                    errors.ChannelClosed):
            try:
                if cls in (errors.SMTPTemporaryError, errors.SMTPPermanentError):
                    raise cls(450, "x")
                raise cls("boom")
            except errors.ReproError as exc:
                caught.append(type(exc))
        assert len(caught) == 3

    def test_smtp_reply_errors_carry_codes(self):
        err = errors.SMTPPermanentError(550, "no such user")
        assert err.code == 550
        assert "550" in str(err)
        temp = errors.SMTPTemporaryError(451, "try later")
        assert temp.code == 451


class TestZmailConfigValidation:
    def test_defaults_valid(self):
        ZmailConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"default_daily_limit": -1},
            {"default_user_balance": -1},
            {"default_user_account": -5},
            {"minavail": 10, "maxavail": 5},
            {"minavail": -1},
            {"initial_pool": -1},
            {"initial_bank_account": -1},
            {"snapshot_quiesce_seconds": 0.0},
            {"auto_topup_amount": -1},
            {"reconciliation_period": 1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ZmailConfig(**kwargs)

    def test_frozen(self):
        config = ZmailConfig()
        with pytest.raises(AttributeError):
            config.default_daily_limit = 5  # type: ignore[misc]

    def test_all_policies_constructible(self):
        for policy in NonCompliantMailPolicy:
            ZmailConfig(noncompliant_policy=policy)
