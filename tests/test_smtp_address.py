"""Tests for address parsing and the simulator address convention."""

import pytest

from repro.errors import SMTPProtocolError
from repro.sim.workload import Address
from repro.smtp.address import (
    EmailAddress,
    from_sim_address,
    parse_address,
    to_sim_address,
)


class TestParseAddress:
    @pytest.mark.parametrize(
        "raw,local,domain",
        [
            ("alice@example.com", "alice", "example.com"),
            ("<bob@isp0.example>", "bob", "isp0.example"),
            ("  carol@mail.example.org  ", "carol", "mail.example.org"),
            ("user+tag@example.com", "user+tag", "example.com"),
            ("first.last@example.com", "first.last", "example.com"),
        ],
    )
    def test_valid(self, raw, local, domain):
        address = parse_address(raw)
        assert address.local == local
        assert address.domain == domain

    @pytest.mark.parametrize(
        "raw",
        [
            "no-at-sign",
            "@example.com",
            "user@",
            "user@@example.com",
            "user@-bad.example",
            "user@exa mple.com",
            "sp ace@example.com",
            "",
        ],
    )
    def test_invalid(self, raw):
        with pytest.raises(SMTPProtocolError):
            parse_address(raw)

    def test_str_round_trip(self):
        assert str(parse_address("a@b.example")) == "a@b.example"


class TestSimConvention:
    def test_round_trip(self):
        sim = Address(isp=3, user=17)
        assert to_sim_address(from_sim_address(sim)) == sim

    def test_from_sim_format(self):
        assert str(from_sim_address(Address(0, 5))) == "user5@isp0.example"

    def test_to_sim_accepts_strings(self):
        assert to_sim_address("user2@isp1.example") == Address(1, 2)

    def test_to_sim_rejects_foreign(self):
        with pytest.raises(SMTPProtocolError, match="convention"):
            to_sim_address("alice@gmail.example")

    def test_to_sim_accepts_email_address_objects(self):
        assert to_sim_address(EmailAddress("user9", "isp4.example")) == Address(4, 9)
