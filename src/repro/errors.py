"""Exception hierarchy for the Zmail reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing subsystem-specific conditions.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "LedgerError",
    "InsufficientBalance",
    "InsufficientFunds",
    "UnknownUser",
    "UnknownISP",
    "ProtocolError",
    "ReplayDetected",
    "SnapshotInProgress",
    "NotCompliant",
    "CryptoError",
    "DecryptionError",
    "KeyError_",
    "SMTPError",
    "SMTPProtocolError",
    "SMTPTemporaryError",
    "SMTPPermanentError",
    "SimulationError",
    "APNError",
    "GuardError",
    "ChannelClosed",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


# --------------------------------------------------------------------------
# Ledger / accounting errors
# --------------------------------------------------------------------------


class LedgerError(ReproError):
    """Base class for accounting failures in the e-penny ledger."""


class InsufficientBalance(LedgerError):
    """A user tried to spend more e-pennies than their balance holds."""


class InsufficientFunds(LedgerError):
    """A user or ISP tried to spend more real pennies than their account holds."""


class UnknownUser(LedgerError):
    """An operation referenced a user id that the ISP does not manage."""


class UnknownISP(LedgerError):
    """An operation referenced an ISP id outside the configured universe."""


# --------------------------------------------------------------------------
# Protocol errors
# --------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for Zmail protocol violations."""


class ReplayDetected(ProtocolError):
    """A nonce or sequence number was reused; the message is a replay."""


class SnapshotInProgress(ProtocolError):
    """Sending is paused while a credit-array snapshot is being taken."""


class NotCompliant(ProtocolError):
    """A compliant-only operation was attempted by a non-compliant ISP."""


# --------------------------------------------------------------------------
# Crypto errors
# --------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for failures in the toy crypto substrate."""


class DecryptionError(CryptoError):
    """Ciphertext failed to decrypt (wrong key or corrupted payload)."""


class KeyError_(CryptoError):
    """A key is malformed or of the wrong type for the operation."""


# --------------------------------------------------------------------------
# SMTP errors
# --------------------------------------------------------------------------


class SMTPError(ReproError):
    """Base class for the SMTP substrate."""


class SMTPProtocolError(SMTPError):
    """The peer violated the SMTP command/reply grammar."""


class SMTPTemporaryError(SMTPError):
    """A 4xx reply: the operation failed but may be retried."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"{code} {message}")
        self.code = code
        self.message = message


class SMTPPermanentError(SMTPError):
    """A 5xx reply: the operation failed permanently."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"{code} {message}")
        self.code = code
        self.message = message


# --------------------------------------------------------------------------
# Simulation / APN errors
# --------------------------------------------------------------------------


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class APNError(ReproError):
    """Base class for the Abstract Protocol notation engine."""


class GuardError(APNError):
    """An action guard raised or returned a non-boolean value."""


class ChannelClosed(APNError):
    """A send or receive was attempted on a closed channel."""
