"""The tuple-per-name zone answers exactly as the dict-of-lists zone did.

:class:`Zone` keeps one tuple of records per name, grouped by type in
first-seen order.  A hypothesis property drives it and
:class:`~tests.dns.reference_zone.ReferenceZone` (the ``{rtype:
[records]}`` storage it replaced) through the same sequence of adds,
removes and dynamic names, and after every step compares every
accessor whose answer depends on record order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.records import RRType, ResourceRecord
from repro.dns.zone import DynamicName, Zone
from tests.dns.reference_zone import ReferenceZone

ORIGIN = "example.com"
NAMES = [
    "example.com",
    "www.example.com",
    "shop.example.com",
    "a.b.example.com",
    "deep.a.b.example.com",
]
QUERY_NAMES = NAMES + ["missing.example.com"]
ADDRESSES = ["10.0.0.1", "10.0.0.2", "10.0.0.3", "54.1.2.3"]
TARGETS = [
    "lb.elb.amazonaws.com",
    "ns1.example.com",
    "www.example.com",
    "edge.cdn.example.net",
]
TYPES = [RRType.A, RRType.CNAME, RRType.NS]


def _rotating_answer(qname, rtype, vantage, index):
    return [ResourceRecord(qname, RRType.A, f"10.9.{index % 256}.1")]


def _spelled(name: str, variant: int) -> str:
    """``name`` as a caller might spell it: as is, upper case, or with
    a trailing dot."""
    if variant == 1:
        return name.upper()
    if variant == 2:
        return name + "."
    return name


adds = st.tuples(
    st.just("add"),
    st.sampled_from(NAMES),
    st.sampled_from(TYPES),
    st.integers(0, 3),
    st.sampled_from([60, 300]),
)
removes = st.tuples(
    st.just("remove"),
    st.sampled_from(QUERY_NAMES),
    st.sampled_from([None] + TYPES),
    st.integers(0, 2),
)
dynamics = st.tuples(st.just("add_dynamic"), st.sampled_from(NAMES))
# Adds are drawn most often, so names pile up several records of
# mixed types before a remove thins them.
operations = st.lists(
    st.one_of(adds, adds, adds, removes, dynamics), max_size=40
)


def _apply(zone, op) -> None:
    kind = op[0]
    if kind == "add":
        _, name, rtype, pick, ttl = op
        value = ADDRESSES[pick] if rtype is RRType.A else TARGETS[pick]
        zone.add(ResourceRecord(name, rtype, value, ttl=ttl))
    elif kind == "remove":
        _, name, rtype, variant = op
        zone.remove(_spelled(name, variant), rtype)
    else:
        zone.add_dynamic(DynamicName(op[1], _rotating_answer))


def _assert_same(zone: Zone, reference: ReferenceZone) -> None:
    assert zone.transfer() == reference.transfer()
    assert zone.names() == reference.names()
    assert zone.cname_links() == reference.cname_links()
    assert zone.nameserver_names() == reference.nameserver_names()
    for name in QUERY_NAMES:
        assert zone.has_name(name) == reference.has_name(name)
        for rtype in TYPES:
            # Dynamic names advance a query counter on every lookup;
            # both zones see the same lookups, so they stay in step.
            assert zone.lookup(name, rtype) == reference.lookup(
                name, rtype
            ), (name, rtype)


@given(operations)
@settings(max_examples=300, deadline=None)
def test_tuple_zone_answers_as_dict_of_lists(ops):
    zone = Zone(ORIGIN, axfr_allowed=True)
    reference = ReferenceZone(ORIGIN, axfr_allowed=True)
    for op in ops:
        _apply(zone, op)
        _apply(reference, op)
        _assert_same(zone, reference)


def test_records_grouped_by_first_seen_type():
    # A, CNAME, A on one name: the second A joins the first, ahead of
    # the CNAME, as it would in a per-type list.
    zone = Zone(ORIGIN, axfr_allowed=True)
    first = ResourceRecord("www.example.com", RRType.A, "10.0.0.1")
    alias = ResourceRecord("www.example.com", RRType.CNAME, "lb.example.net")
    second = ResourceRecord("www.example.com", RRType.A, "10.0.0.2")
    for record in (first, alias, second):
        zone.add(record)
    assert zone.transfer() == [first, second, alias]
    assert zone.lookup("www.example.com", RRType.A) == [first, second]
    assert zone.lookup("www.example.com", RRType.NS) == [alias]


def test_removed_type_rejoins_at_the_end():
    zone = Zone(ORIGIN, axfr_allowed=True)
    a = ResourceRecord("example.com", RRType.A, "10.0.0.1")
    ns = ResourceRecord("example.com", RRType.NS, "ns1.example.com")
    zone.add(a)
    zone.add(ns)
    zone.remove("example.com", RRType.A)
    assert zone.transfer() == [ns]
    zone.add(a)
    assert zone.transfer() == [ns, a]
    assert zone.nameserver_names() == ["ns1.example.com"]
    zone.remove("example.com", RRType.A)
    zone.remove("example.com", RRType.NS)
    assert not zone.has_name("example.com")
    assert zone.names() == []
