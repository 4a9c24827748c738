"""Toy public-key crypto substrate for the Zmail spec.

Implements the paper's three operators:

* ``NCR(k, d)`` — encryption (:func:`ncr` / :func:`ncr_object`)
* ``DCR(k, d)`` — decryption (:func:`dcr` / :func:`dcr_object`)
* ``NNC`` — nonce generation (:class:`NonceSource`)

Everything is built from scratch (Miller–Rabin, modular arithmetic,
schoolbook RSA with light padding). It is **simulation-grade**: adequate to
exercise the protocol's confidentiality and replay-protection logic, and
explicitly not suitable for protecting real data.

The encryption has one user, the model-checked AP spec
(:mod:`repro.apn.zmail_spec`). The executable bank
(:class:`repro.core.bank.Bank`) takes plaintext buy/sell requests and
uses only :class:`NonceRegistry` for replay protection.
"""

from .keys import KeyPair, PrivateKey, PublicKey
from .nonce import NONCE_BITS, NonceRegistry, NonceSource
from .numbers import egcd, generate_prime, is_probable_prime, modinv
from .rsa import dcr, dcr_object, generate_keypair, ncr, ncr_object

__all__ = [
    "PublicKey",
    "PrivateKey",
    "KeyPair",
    "NonceSource",
    "NonceRegistry",
    "NONCE_BITS",
    "egcd",
    "modinv",
    "is_probable_prime",
    "generate_prime",
    "generate_keypair",
    "ncr",
    "dcr",
    "ncr_object",
    "dcr_object",
]
