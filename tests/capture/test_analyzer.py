"""Unit tests for the Bro-like analyzer, on hand-built traces."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.analyzer import (
    BroAnalyzer,
    ContentTypeStats,
    DomainTraffic,
    ProtocolStats,
)
from repro.capture.flow import FlowRecord, Trace, registrable_domain
from repro.columnar.tables import ColumnarTrace
from repro.flags import set_columnar_enabled
from repro.net.ipv4 import IPv4Address
from repro.net.prefixset import PrefixSet
from repro.obs import Observability
from repro.world import World, WorldConfig

EC2_IP = IPv4Address.parse("54.0.0.10")
AZURE_IP = IPv4Address.parse("23.96.0.10")
OTHER_IP = IPv4Address.parse("93.0.0.10")

RANGES = {
    "ec2": PrefixSet(["54.0.0.0/16"]),
    "azure": PrefixSet(["23.96.0.0/16"]),
}


def flow(dst=EC2_IP, proto="tcp", dport=80, size=1000, host=None,
         cn=None, ctype=None, clen=None):
    return FlowRecord(
        ts=0.0, duration=1.0, src="campus-1", dst=dst, proto=proto,
        dport=dport, total_bytes=size, http_host=host,
        content_type=ctype, content_length=clen, tls_common_name=cn,
    )


@pytest.fixture()
def analyzer():
    return BroAnalyzer(RANGES)


class TestClassification:
    def test_cloud_attribution(self, analyzer):
        assert analyzer.cloud_of(flow(dst=EC2_IP)) == "ec2"
        assert analyzer.cloud_of(flow(dst=AZURE_IP)) == "azure"
        assert analyzer.cloud_of(flow(dst=OTHER_IP)) is None

    @pytest.mark.parametrize("proto,dport,label", [
        ("tcp", 80, "HTTP (TCP)"),
        ("tcp", 443, "HTTPS (TCP)"),
        ("tcp", 25, "Other (TCP)"),
        ("udp", 53, "DNS (UDP)"),
        ("udp", 123, "Other (UDP)"),
        ("icmp", 0, "ICMP"),
    ])
    def test_protocol_labels(self, analyzer, proto, dport, label):
        assert analyzer.protocol_of(flow(proto=proto, dport=dport)) == label


class TestAggregation:
    def test_cloud_shares(self, analyzer):
        trace = Trace([
            flow(dst=EC2_IP, size=800),
            flow(dst=AZURE_IP, size=200),
            flow(dst=OTHER_IP, size=999),  # filtered out
        ])
        shares = analyzer.cloud_shares(trace)
        assert shares["ec2"].bytes == 800
        assert shares["azure"].flows == 1
        assert set(shares) == {"ec2", "azure"}

    def test_protocol_breakdown_scopes(self, analyzer):
        trace = Trace([
            flow(dst=EC2_IP, dport=80, size=100),
            flow(dst=EC2_IP, dport=443, size=300),
            flow(dst=AZURE_IP, dport=80, size=50),
        ])
        breakdown = analyzer.protocol_breakdown(trace)
        assert breakdown["ec2"]["HTTP (TCP)"].bytes == 100
        assert breakdown["overall"]["HTTP (TCP)"].bytes == 150
        assert breakdown["azure"]["HTTP (TCP)"].flows == 1

    def test_domain_traffic_via_host_and_cn(self, analyzer):
        trace = Trace([
            flow(host="www.foo.com", size=100),
            flow(host="api.foo.com", size=50),
            flow(dport=443, cn="foo.com", size=500),
            flow(dst=AZURE_IP, host="www.bar.com", size=75),
        ])
        domains = analyzer.domain_traffic(trace)
        assert domains["foo.com"].http_bytes == 150
        assert domains["foo.com"].https_bytes == 500
        assert domains["foo.com"].total_bytes == 650
        assert domains["bar.com"].provider == "azure"

    def test_top_domains_sorted(self, analyzer):
        trace = Trace([
            flow(host="small.com", size=10),
            flow(host="big.com", size=1000),
        ])
        top = analyzer.top_domains_by_volume(trace, "ec2", 5)
        assert top[0].domain == "big.com"

    def test_content_types(self, analyzer):
        trace = Trace([
            flow(ctype="text/html", clen=100),
            flow(ctype="text/html", clen=300),
            flow(ctype="image/png", clen=50),
        ])
        stats = analyzer.content_types(trace)
        html = stats[0]
        assert html.content_type == "text/html"
        assert html.bytes == 400
        assert html.mean_bytes == 200
        assert html.max_bytes == 300

    def test_flow_count_distribution(self, analyzer):
        trace = Trace([
            flow(host="a.com"), flow(host="a.com"), flow(host="b.com"),
        ])
        counts = analyzer.flow_count_distribution(trace, "ec2", "http")
        assert counts == [1, 2]

    def test_flow_size_distribution(self, analyzer):
        trace = Trace([
            flow(host="a.com", size=10), flow(host="b.com", size=30),
        ])
        assert analyzer.flow_size_distribution(
            trace, "ec2", "http"
        ) == [10, 30]

    def test_concentration(self, analyzer):
        trace = Trace(
            [flow(host="big.com") for _ in range(9)]
            + [flow(host="small.com")]
        )
        assert analyzer.top_domain_flow_concentration(
            trace, "ec2", top_n=1
        ) == pytest.approx(0.9)


# -- the aggregate against the per-query scans it replaced -------------------


class ReferenceScan(BroAnalyzer):
    """The per-query trace loops the aggregate replaced, kept as the
    reference: every query walks every flow and classifies it again."""

    def cloud_shares(self, trace):
        shares = defaultdict(ProtocolStats)
        for f in trace:
            cloud = self.cloud_of(f)
            if cloud is None:
                continue
            shares[cloud].bytes += f.total_bytes
            shares[cloud].flows += 1
        return dict(shares)

    def protocol_breakdown(self, trace):
        result = {
            "ec2": defaultdict(ProtocolStats),
            "azure": defaultdict(ProtocolStats),
            "overall": defaultdict(ProtocolStats),
        }
        for f in trace:
            cloud = self.cloud_of(f)
            if cloud is None:
                continue
            label = self.protocol_of(f)
            for bucket in (cloud, "overall"):
                stats = result[bucket][label]
                stats.bytes += f.total_bytes
                stats.flows += 1
        return {k: dict(v) for k, v in result.items()}

    def domain_traffic(self, trace):
        domains = {}
        for f in trace:
            cloud = self.cloud_of(f)
            if cloud is None:
                continue
            if f.dport == 80 and f.http_host:
                name = registrable_domain(f.http_host)
                entry = domains.setdefault(
                    name, DomainTraffic(domain=name, provider=cloud)
                )
                entry.http_bytes += f.total_bytes
                entry.http_flows += 1
                entry.http_flow_sizes.append(f.total_bytes)
            elif f.dport == 443 and f.tls_common_name:
                name = registrable_domain(f.tls_common_name)
                entry = domains.setdefault(
                    name, DomainTraffic(domain=name, provider=cloud)
                )
                entry.https_bytes += f.total_bytes
                entry.https_flows += 1
                entry.https_flow_sizes.append(f.total_bytes)
        return domains

    def top_domains_by_volume(self, trace, provider, count=15):
        domains = [
            d for d in self.domain_traffic(trace).values()
            if d.provider == provider
        ]
        domains.sort(key=lambda d: d.total_bytes, reverse=True)
        return domains[:count]

    def content_types(self, trace):
        stats = {}
        for f in trace:
            if f.content_type is None or f.content_length is None:
                continue
            if self.cloud_of(f) is None:
                continue
            entry = stats.setdefault(
                f.content_type, ContentTypeStats(f.content_type)
            )
            entry.bytes += f.content_length
            entry.count += 1
            entry.max_bytes = max(entry.max_bytes, f.content_length)
        return sorted(stats.values(), key=lambda s: s.bytes, reverse=True)

    def flow_count_distribution(self, trace, provider, protocol):
        attr = "http_flows" if protocol == "http" else "https_flows"
        return sorted(
            getattr(d, attr)
            for d in self.domain_traffic(trace).values()
            if d.provider == provider and getattr(d, attr) > 0
        )

    def flow_size_distribution(self, trace, provider, protocol):
        attr = (
            "http_flow_sizes" if protocol == "http" else "https_flow_sizes"
        )
        sizes = []
        for d in self.domain_traffic(trace).values():
            if d.provider == provider:
                sizes.extend(getattr(d, attr))
        sizes.sort()
        return sizes

    def hourly_volume(self, trace):
        buckets = [0] * 24
        for f in trace:
            if self.cloud_of(f) is None:
                continue
            buckets[int(f.ts % 86400.0) // 3600] += f.total_bytes
        return buckets

    def flow_duration_distribution(self, trace, provider, protocol):
        port = 80 if protocol == "http" else 443
        return sorted(
            f.duration for f in trace
            if f.dport == port and f.proto == "tcp"
            and self.cloud_of(f) == provider
        )

    def top_domain_flow_concentration(self, trace, provider, top_n=100):
        counts = sorted(
            (
                d.http_flows
                for d in self.domain_traffic(trace).values()
                if d.provider == provider
            ),
            reverse=True,
        )
        total = sum(counts)
        if total == 0:
            return 0.0
        return sum(counts[:top_n]) / total


def answers(analyzer, trace) -> str:
    """Every query's answer, as one ``repr``: equal strings mean equal
    values, equal key order, and Python (not NumPy) number types."""
    out = [
        list(analyzer.cloud_shares(trace).items()),
        [
            (bucket, list(stats.items()))
            for bucket, stats in analyzer.protocol_breakdown(trace).items()
        ],
        list(analyzer.domain_traffic(trace).items()),
        analyzer.content_types(trace),
        analyzer.hourly_volume(trace),
    ]
    for provider in ("ec2", "azure", "elsewhere"):
        for count in (1, 3, 15):
            out.append(analyzer.top_domains_by_volume(trace, provider, count))
        for protocol in ("http", "https"):
            out.append(analyzer.flow_count_distribution(
                trace, provider, protocol
            ))
            out.append(analyzer.flow_size_distribution(
                trace, provider, protocol
            ))
            out.append(analyzer.flow_duration_distribution(
                trace, provider, protocol
            ))
        for top_n in (1, 2, 100):
            out.append(analyzer.top_domain_flow_concentration(
                trace, provider, top_n
            ))
    return repr(out)


#: Azure's second block overlaps EC2's: the first provider listed wins.
OVERLAPPING = {
    "ec2": PrefixSet(["54.0.0.0/16"]),
    "azure": PrefixSet(["54.0.0.0/24", "23.96.0.0/16"]),
}
#: No Azure ranges at all: Azure's buckets stay empty.
EC2_ONLY = {"ec2": PrefixSet(["54.0.0.0/16"])}

flows = st.builds(
    FlowRecord,
    ts=st.floats(0.0, 7 * 86400.0, exclude_max=True),
    duration=st.floats(0.0, 5000.0),
    src=st.sampled_from(["campus-1", "campus-2"]),
    dst=st.sampled_from([
        EC2_IP, AZURE_IP, OTHER_IP,
        IPv4Address.parse("54.0.9.1"), IPv4Address.parse("23.96.4.4"),
    ]),
    proto=st.sampled_from(["tcp", "udp", "icmp", "gre"]),
    dport=st.sampled_from([0, 25, 53, 80, 443]),
    total_bytes=st.integers(0, 10**6),
    http_host=st.sampled_from([
        None, "", "www.foo.com", "api.foo.com", "foo.co.uk",
        "x.foo.co.uk", "bar.net",
    ]),
    content_type=st.sampled_from([None, "", "text/html", "image/png"]),
    content_length=st.one_of(st.none(), st.integers(0, 10**6)),
    tls_common_name=st.sampled_from([
        None, "", "foo.com", "cdn.bar.net", "bar.net",
    ]),
)


class TestAggregateEqualsScans:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(flows, max_size=40),
        st.sampled_from([RANGES, OVERLAPPING, EC2_ONLY]),
    )
    def test_every_query_on_both_trace_kinds(self, records, ranges):
        expected = answers(ReferenceScan(ranges), Trace(records))
        assert answers(BroAnalyzer(ranges), Trace(records)) == expected
        columnar = ColumnarTrace(Trace(records).flow_table())
        assert answers(BroAnalyzer(ranges), columnar) == expected
        assert columnar._materialized is None

    @pytest.mark.parametrize("columnar", [True, False])
    def test_generated_capture(self, columnar):
        previous = set_columnar_enabled(columnar)
        try:
            world = World(WorldConfig(seed=7, num_domains=120))
            trace = world.capture_trace()
        finally:
            set_columnar_enabled(previous)
        assert isinstance(trace, ColumnarTrace) == columnar
        ranges = {
            "ec2": world.ec2.published_range_set(),
            "azure": world.azure.published_range_set(),
        }
        analyzer = BroAnalyzer(ranges)
        got = answers(analyzer, trace)
        if columnar:
            assert trace._materialized is None
        assert got == answers(ReferenceScan(ranges), trace)

    def test_one_aggregate_per_trace(self):
        obs = Observability.collecting()
        analyzer = BroAnalyzer(RANGES, obs=obs)
        trace = Trace([flow(host="a.com"), flow(dport=443, cn="b.com")])
        answers(analyzer, trace)
        builds = [
            span.name for span in obs.tracer.walk()
            if span.category == "view"
        ]
        assert builds == ["capture-aggregate"]
        trace.add(flow(host="c.com"))  # a new length rebuilds
        assert "c.com" in analyzer.domain_traffic(trace)
        other = Trace([flow(host="d.com")])
        assert list(analyzer.domain_traffic(other)) == ["d.com"]

    def test_returned_values_are_copies(self, analyzer):
        trace = Trace([flow(host="a.com", ctype="text/html", clen=5)])
        analyzer.domain_traffic(trace)["a.com"].http_flow_sizes.append(9)
        analyzer.content_types(trace)[0].bytes = 0
        analyzer.hourly_volume(trace)[0] = -1
        assert answers(analyzer, trace) == answers(
            ReferenceScan(RANGES), trace
        )
