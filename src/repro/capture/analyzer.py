"""The Bro-like trace analyzer.

Consumes a :class:`Trace` plus the published cloud IP ranges and
produces the aggregates behind §3: per-cloud volume (Table 1), protocol
mix (Table 2), per-domain traffic ranking via HTTP hostnames and TLS
common names (Table 5), HTTP content types (Table 6), and per-domain
flow-count / flow-size distributions (Figure 3).

The analyzer sees only what Bro saw: packet-derived fields.  Cloud
attribution is by destination address against published ranges, domain
attribution by hostname/common-name aggregation.

Every query reads one :class:`CaptureAggregate` per trace: a single
pass over the trace's :class:`~repro.columnar.tables.FlowTable` columns
that classifies each flow once (the cloud test vectorized over the
destination column) and keeps every tally the queries read.  No row
objects are built for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.capture.flow import FlowRecord, Trace, registrable_domain
from repro.net.prefixset import PrefixSet
from repro.obs import NOOP, Observability

#: Protocol labels, indexed by the aggregate's per-flow label codes.
PROTOCOL_LABELS = (
    "ICMP", "HTTP (TCP)", "HTTPS (TCP)", "DNS (UDP)",
    "Other (TCP)", "Other (UDP)",
)
_HTTP = PROTOCOL_LABELS.index("HTTP (TCP)")
_HTTPS = PROTOCOL_LABELS.index("HTTPS (TCP)")


def protocol_label(proto: str, dport: int) -> str:
    """Bro-style protocol class from the transport and server port."""
    if proto == "icmp":
        return "ICMP"
    if proto == "tcp":
        if dport == 80:
            return "HTTP (TCP)"
        if dport == 443:
            return "HTTPS (TCP)"
        return "Other (TCP)"
    if proto == "udp":
        if dport == 53:
            return "DNS (UDP)"
        return "Other (UDP)"
    return "Other (TCP)"


@dataclass
class ProtocolStats:
    """Byte and flow tallies for one protocol class."""

    bytes: int = 0
    flows: int = 0


@dataclass
class DomainTraffic:
    """Per-domain HTTP(S) traffic."""

    domain: str
    provider: str
    http_bytes: int = 0
    https_bytes: int = 0
    http_flows: int = 0
    https_flows: int = 0
    http_flow_sizes: List[int] = field(default_factory=list)
    https_flow_sizes: List[int] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        return self.http_bytes + self.https_bytes


@dataclass
class ContentTypeStats:
    """Aggregate for one HTTP content type (Table 6)."""

    content_type: str
    bytes: int = 0
    count: int = 0
    max_bytes: int = 0

    @property
    def mean_bytes(self) -> float:
        return self.bytes / self.count if self.count else 0.0


def _tally(keys, weights) -> List[Tuple[int, int, int, int]]:
    """(key, weight sum, count, max weight floored at 0) per distinct
    key, in first-occurrence order: the order a flow-by-flow scan
    inserts dict keys."""
    import numpy as np

    uniq, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse, weights)
    peaks = np.zeros(len(uniq), dtype=np.int64)
    np.maximum.at(peaks, inverse, weights)
    order = np.argsort(first, kind="stable")
    return list(zip(
        uniq[order].tolist(), sums[order].tolist(),
        counts[order].tolist(), peaks[order].tolist(),
    ))


def _domain_codes(pool: List[str], names: Dict[str, int]):
    """Registrable-domain id per pool entry, plus a trailing -1 that the
    None code (-1) indexes; empty names attribute nothing."""
    import numpy as np

    codes = [
        names.setdefault(registrable_domain(name), len(names))
        if name else -1
        for name in pool
    ]
    return np.array(codes + [-1], dtype=np.int64)


class CaptureAggregate:
    """Every §3 tally of one flow table, from one classifying pass.

    A flow's cloud is the first provider (in ``cloud_ranges`` order)
    whose published ranges hold its destination; flows outside every
    range are not cloud traffic and count nowhere.  HTTP flows (port 80
    with a Host) and HTTPS flows (port 443 with a certificate name) are
    attributed to their registrable domain, whose provider is the cloud
    of its first attributed flow.  Tallies keep first-occurrence order
    and sizes keep trace order, so each query answers exactly what a
    flow-by-flow scan would.
    """

    def __init__(self, table, cloud_ranges: Dict[str, PrefixSet]):
        import numpy as np

        from repro.columnar.dataset import prefix_membership

        self.providers: List[str] = list(cloud_ranges)
        size = table.total_bytes
        dport = table.dport
        dst = table.dst_value.astype(np.int64)
        cloud = np.full(len(table), -1, dtype=np.int64)
        for code, ranges in enumerate(cloud_ranges.values()):
            cloud[(cloud < 0) & prefix_membership(ranges, dst)] = code
        inside = cloud >= 0

        # Label each distinct (protocol, port) pair once.
        ports, port_index = np.unique(dport, return_inverse=True)
        labels = np.array(
            [
                [PROTOCOL_LABELS.index(protocol_label(proto, port))
                 for port in ports.tolist()]
                for proto in table.proto_pool
            ],
            dtype=np.int64,
        ).reshape(len(table.proto_pool), len(ports))
        label = labels[table.proto_code, port_index]
        #: (provider code, bytes, flows, _) per cloud (Table 1).
        self.clouds = _tally(cloud[inside], size[inside])
        #: bucket -> (label code, bytes, flows, _) (Table 2).
        self.protocols: Dict[str, List[Tuple[int, int, int, int]]] = {}
        for bucket in ("ec2", "azure"):
            mask = inside & (cloud == self._code(bucket))
            self.protocols[bucket] = _tally(label[mask], size[mask])
        self.protocols["overall"] = _tally(label[inside], size[inside])

        # Content types (Table 6): bytes, count and max per type.
        length = table.content_length
        typed = inside & (table.ct_code >= 0) & (length >= 0)
        self.content = sorted(
            (
                ContentTypeStats(table.ct_pool[ct], nbytes, count, peak)
                for ct, nbytes, count, peak in _tally(
                    table.ct_code[typed], length[typed]
                )
            ),
            key=lambda stats: stats.bytes,
            reverse=True,
        )

        hour = np.remainder(table.ts[inside], 86400.0).astype(np.int64)
        hourly = np.zeros(24, dtype=np.int64)
        np.add.at(hourly, hour // 3600, size[inside])
        self.hourly: List[int] = hourly.tolist()

        #: (provider code, HTTP or HTTPS label) -> sorted durations.
        self.durations: Dict[Tuple[int, int], List[float]] = {
            (code, web): np.sort(
                table.duration[(label == web) & (cloud == code)]
            ).tolist()
            for code in range(len(self.providers))
            for web in (_HTTP, _HTTPS)
        }

        # Domains (Table 5, Figure 3).
        names: Dict[str, int] = {}
        host = _domain_codes(table.host_pool, names)[table.host_code]
        tls = _domain_codes(table.tls_pool, names)[table.tls_code]
        http = (dport == 80) & (host >= 0)
        https = (dport == 443) & (tls >= 0)
        domain = np.where(http, host, np.where(https, tls, -1))
        flows = np.flatnonzero(inside & (domain >= 0))
        uniq, first, inverse = np.unique(
            domain[flows], return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order] = np.arange(len(uniq))
        # key = 2 * domain position + (1 for HTTPS): sorting by it
        # groups each domain's HTTP then HTTPS flows, in trace order.
        key = 2 * rank[inverse] + https[flows]
        by_name = list(names)
        self.domains: List[str] = [by_name[i] for i in uniq[order]]
        self.domain_provider: List[int] = (
            cloud[flows][first[order]].tolist()
        )
        counts = np.bincount(key, minlength=2 * len(uniq))
        volume = np.zeros(2 * len(uniq), dtype=np.int64)
        np.add.at(volume, key, size[flows])
        self.domain_flows: List[int] = counts.tolist()
        self.domain_bytes: List[int] = volume.tolist()
        perm = np.argsort(key, kind="stable")
        self._key = key[perm]
        self._sizes = size[flows][perm]
        self._bounds: List[int] = [0] + np.cumsum(counts).tolist()

    def _code(self, provider: str) -> int:
        """Provider code; -1 (matching no flow) for an unknown name."""
        try:
            return self.providers.index(provider)
        except ValueError:
            return -1

    def domain(self, index: int) -> DomainTraffic:
        """A fresh :class:`DomainTraffic` for the index-th domain."""
        b, lo = self._bounds, 2 * index
        return DomainTraffic(
            domain=self.domains[index],
            provider=self.providers[self.domain_provider[index]],
            http_bytes=self.domain_bytes[lo],
            https_bytes=self.domain_bytes[lo + 1],
            http_flows=self.domain_flows[lo],
            https_flows=self.domain_flows[lo + 1],
            http_flow_sizes=self._sizes[b[lo]:b[lo + 1]].tolist(),
            https_flow_sizes=self._sizes[b[lo + 1]:b[lo + 2]].tolist(),
        )

    def domains_of(self, provider: str) -> List[int]:
        """Indices of the domains attributed to ``provider``."""
        code = self._code(provider)
        return [
            index for index, owner in enumerate(self.domain_provider)
            if owner == code
        ]

    def sizes_of(self, provider: str, https: bool) -> List[int]:
        """Sizes of every HTTP (or HTTPS) flow of the provider's
        domains, sorted."""
        import numpy as np

        owner = np.array(self.domain_provider, dtype=np.int64)
        keep = (owner[self._key >> 1] == self._code(provider)) & (
            (self._key & 1) == int(https)
        )
        return np.sort(self._sizes[keep]).tolist()


class BroAnalyzer:
    """Runs the paper's §3 aggregations over a trace.

    Every query reads the trace's :class:`CaptureAggregate`, built on
    the first query.  It is memoized for the last trace queried, keyed
    by the trace object and its length: analysed traces are treated as
    immutable, and appending a flow (a new length) rebuilds it.
    """

    def __init__(
        self,
        cloud_ranges: Dict[str, PrefixSet],
        obs: Observability = NOOP,
    ):
        self.cloud_ranges = cloud_ranges
        self.obs = obs
        self._memo: Optional[Tuple[Trace, int, CaptureAggregate]] = None

    def aggregate(self, trace: Trace) -> CaptureAggregate:
        """The trace's aggregate, built on its first query."""
        memo = self._memo
        if memo is None or memo[0] is not trace or memo[1] != len(trace):
            with self.obs.tracer.span("capture-aggregate", category="view"):
                aggregate = CaptureAggregate(
                    trace.flow_table(), self.cloud_ranges
                )
            memo = self._memo = (trace, len(trace), aggregate)
        return memo[2]

    # -- classification ------------------------------------------------------

    def cloud_of(self, flow: FlowRecord) -> Optional[str]:
        for provider, ranges in self.cloud_ranges.items():
            if flow.dst in ranges:
                return provider
        return None

    @staticmethod
    def protocol_of(flow: FlowRecord) -> str:
        return protocol_label(flow.proto, flow.dport)

    # -- Table 1 ------------------------------------------------------------

    def cloud_shares(self, trace: Trace) -> Dict[str, ProtocolStats]:
        """Bytes/flows per cloud (flows initiated inside the campus)."""
        aggregate = self.aggregate(trace)
        return {
            aggregate.providers[code]: ProtocolStats(nbytes, nflows)
            for code, nbytes, nflows, _ in aggregate.clouds
        }

    # -- Table 2 ------------------------------------------------------------

    def protocol_breakdown(
        self, trace: Trace
    ) -> Dict[str, Dict[str, ProtocolStats]]:
        """Per-cloud and overall protocol mix.

        Returns {'ec2': {...}, 'azure': {...}, 'overall': {...}} keyed
        by protocol label.
        """
        return {
            bucket: {
                PROTOCOL_LABELS[code]: ProtocolStats(nbytes, nflows)
                for code, nbytes, nflows, _ in rows
            }
            for bucket, rows in self.aggregate(trace).protocols.items()
        }

    # -- Table 5 / Figure 3 ---------------------------------------------------

    def domain_traffic(self, trace: Trace) -> Dict[str, DomainTraffic]:
        """HTTP(S) traffic aggregated by registrable domain.

        HTTP flows are attributed via the Host header; HTTPS flows via
        the server certificate's common name (TLS hides the Host).
        """
        aggregate = self.aggregate(trace)
        return {
            name: aggregate.domain(index)
            for index, name in enumerate(aggregate.domains)
        }

    def top_domains_by_volume(
        self, trace: Trace, provider: str, count: int = 15
    ) -> List[DomainTraffic]:
        aggregate = self.aggregate(trace)
        volume = aggregate.domain_bytes
        ranked = sorted(
            aggregate.domains_of(provider),
            key=lambda i: volume[2 * i] + volume[2 * i + 1],
            reverse=True,
        )
        return [aggregate.domain(index) for index in ranked[:count]]

    # -- Table 6 ---------------------------------------------------------------

    def content_types(self, trace: Trace) -> List[ContentTypeStats]:
        """HTTP content-type aggregates, sorted by byte count."""
        return [replace(stats) for stats in self.aggregate(trace).content]

    # -- Figure 3 -----------------------------------------------------------------

    def flow_count_distribution(
        self, trace: Trace, provider: str, protocol: str
    ) -> List[int]:
        """Per-domain flow counts (the Figure 3a/3b CDF inputs).

        ``protocol`` is 'http' or 'https'.
        """
        aggregate = self.aggregate(trace)
        offset = 0 if protocol == "http" else 1
        counts = (
            aggregate.domain_flows[2 * index + offset]
            for index in aggregate.domains_of(provider)
        )
        return sorted(count for count in counts if count > 0)

    def flow_size_distribution(
        self, trace: Trace, provider: str, protocol: str
    ) -> List[int]:
        """All flow sizes for one cloud+protocol (Figure 3c/3d)."""
        return self.aggregate(trace).sizes_of(
            provider, https=protocol != "http"
        )

    def hourly_volume(self, trace: Trace) -> List[int]:
        """Bytes per hour-of-day across the capture week.

        The border traffic is diurnal — campus clients work during the
        day — which is why the capture's peak hours dominate volume.
        """
        return list(self.aggregate(trace).hourly)

    def flow_duration_distribution(
        self, trace: Trace, provider: str, protocol: str
    ) -> List[float]:
        """All flow durations for one cloud+protocol (§3.3's omitted
        duration CDFs: heavy-tailed, with flows lasting hours)."""
        aggregate = self.aggregate(trace)
        web = _HTTP if protocol == "http" else _HTTPS
        return list(
            aggregate.durations.get((aggregate._code(provider), web), [])
        )

    def top_domain_flow_concentration(
        self, trace: Trace, provider: str, top_n: int = 100
    ) -> float:
        """Fraction of the cloud's HTTP flows from its top-N domains."""
        aggregate = self.aggregate(trace)
        counts = sorted(
            (
                aggregate.domain_flows[2 * index]
                for index in aggregate.domains_of(provider)
            ),
            reverse=True,
        )
        total = sum(counts)
        if total == 0:
            return 0.0
        return sum(counts[:top_n]) / total
