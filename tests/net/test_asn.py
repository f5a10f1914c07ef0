"""Unit tests for the AS registry (whois)."""

import random

import pytest

from repro.net.asn import ASRegistry, AutonomousSystem
from repro.net.ipv4 import IPv4Address
from repro.net.prefixset import PrefixSet


class TestASRegistry:
    def test_register_and_get(self):
        reg = ASRegistry()
        asys = reg.register(7001, "test-isp", ["80.0.1.0/24"])
        assert reg.get(7001) is asys
        assert asys.name == "test-isp"

    def test_whois_finds_owner(self):
        reg = ASRegistry()
        reg.register(7001, "isp-a", ["80.0.1.0/24"])
        reg.register(7002, "isp-b", ["80.0.2.0/24"])
        assert reg.whois("80.0.1.55").number == 7001
        assert reg.whois("80.0.2.55").number == 7002

    def test_whois_unknown_address(self):
        reg = ASRegistry()
        reg.register(7001, "isp-a", ["80.0.1.0/24"])
        assert reg.whois("9.9.9.9") is None

    def test_duplicate_as_number_rejected(self):
        reg = ASRegistry()
        reg.register(7001, "isp-a", ["80.0.1.0/24"])
        with pytest.raises(ValueError):
            reg.register(7001, "isp-dup", ["80.0.9.0/24"])

    def test_multiple_prefixes_per_as(self):
        reg = ASRegistry()
        reg.register(7001, "isp-a", ["80.0.1.0/24", "81.0.0.0/16"])
        assert reg.whois("81.0.200.1").number == 7001

    def test_iteration_and_len(self):
        reg = ASRegistry()
        reg.register(7001, "a", ["80.0.1.0/24"])
        reg.register(7002, "b", ["80.0.2.0/24"])
        assert len(reg) == 2
        assert {a.number for a in reg} == {7001, 7002}

    def test_invalid_as_number(self):
        with pytest.raises(ValueError):
            AutonomousSystem(0, "bad")


class TestLazyPrefixIndex:
    def test_whois_after_late_registration(self):
        reg = ASRegistry()
        reg.register(7001, "isp-a", ["80.0.1.0/24"])
        assert reg.whois("80.0.2.9") is None
        reg.register(7002, "isp-b", ["80.0.2.0/24"])
        assert reg.whois("80.0.2.9").number == 7002
        assert reg.whois("80.0.1.9").number == 7001

    def test_lookups_equal_an_eager_prefix_set(self):
        rng = random.Random(5)
        reg = ASRegistry()
        blocks = []
        for number in range(64500, 64560):
            prefixes = [
                f"{rng.randrange(20, 30)}.{rng.randrange(256)}.0.0/"
                f"{rng.choice((12, 16, 20))}"
                for _ in range(rng.randrange(1, 4))
            ]
            asys = reg.register(number, f"isp-{number}", prefixes)
            blocks.extend((net, number) for net in asys.prefixes)
        eager = PrefixSet(blocks)
        probes = [
            IPv4Address(rng.randrange(20 << 24, 30 << 24))
            for _ in range(2000)
        ]
        for addr in probes:
            asys = reg.whois(addr)
            assert (asys.number if asys else None) == eager.lookup(addr)

    def test_duplicate_rejected_after_whois(self):
        reg = ASRegistry()
        reg.register(7001, "isp-a", ["80.0.1.0/24"])
        assert reg.whois("80.0.1.1").number == 7001
        with pytest.raises(ValueError):
            reg.register(7001, "isp-dup", ["80.0.9.0/24"])
        assert reg.whois("80.0.9.1") is None
