"""The static-resolution index's memo entries are frozen, and every
response a resolver hands out is still the caller's own."""

import pytest

from repro.dns.infrastructure import DnsInfrastructure
from repro.dns.records import RRType, ResourceRecord
from repro.dns.resolver import StubResolver
from repro.dns.zone import Zone
from repro.flags import set_columnar_enabled

FIELDS = ("chain", "addresses", "ns_names")


@pytest.fixture()
def resolver():
    previous = set_columnar_enabled(True)
    try:
        infra = DnsInfrastructure()
    finally:
        set_columnar_enabled(previous)
    assert infra.static_index is not None
    zone = Zone("example.com")
    zone.add(ResourceRecord("example.com", RRType.NS, "ns1.example.com"))
    zone.add(ResourceRecord("www.example.com", RRType.A, "10.0.0.1"))
    zone.add(ResourceRecord("www.example.com", RRType.A, "10.0.0.2"))
    zone.add(ResourceRecord(
        "shop.example.com", RRType.CNAME, "lb.cloud.net"
    ))
    infra.add_zone(zone)
    cloud = Zone("cloud.net")
    cloud.add(ResourceRecord("lb.cloud.net", RRType.A, "54.0.0.1"))
    infra.add_zone(cloud)
    return StubResolver(infra)


@pytest.mark.parametrize("qname, rtype", [
    ("www.example.com", RRType.A),
    ("shop.example.com", RRType.A),
    ("example.com", RRType.NS),
    ("ghost.example.com", RRType.A),
])
def test_memo_fields_are_tuples(resolver, qname, rtype):
    memo = resolver.infra.static_index.peek(qname, rtype, resolver)
    assert memo is not None
    for field in FIELDS:
        value = getattr(memo, field)
        assert type(value) is tuple
        if not value:
            assert value is tuple()


def test_memo_holds_the_resolved_answer(resolver):
    index = resolver.infra.static_index
    memo = index.peek("shop.example.com", RRType.A, resolver)
    assert memo.chain == ("lb.cloud.net",)
    assert [str(a) for a in memo.addresses] == ["54.0.0.1"]
    assert index.peek("shop.example.com", RRType.A, resolver) is memo


@pytest.mark.parametrize("fresh", [False, True])
def test_dig_answers_are_owned_lists(resolver, fresh):
    first = resolver.dig("shop.example.com", fresh=fresh)
    for field in FIELDS:
        assert type(getattr(first, field)) is list
    first.chain.append("poison.example.com")
    first.addresses.clear()
    first.ns_names.append("poison.example.com")
    second = resolver.dig("shop.example.com", fresh=fresh)
    assert second.chain == ["lb.cloud.net"]
    assert [str(a) for a in second.addresses] == ["54.0.0.1"]
    assert second.ns_names == []
    memo = resolver.infra.static_index.peek(
        "shop.example.com", RRType.A, resolver
    )
    assert memo.chain == ("lb.cloud.net",)


def test_index_lookup_answers_are_owned_lists(resolver):
    index = resolver.infra.static_index
    answer = index.lookup("WWW.Example.com.", RRType.A, resolver)
    assert type(answer.addresses) is list
    answer.addresses.clear()
    again = index.lookup("www.example.com", RRType.A, resolver)
    assert [str(a) for a in again.addresses] == ["10.0.0.1", "10.0.0.2"]
