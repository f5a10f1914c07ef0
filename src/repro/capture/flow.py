"""Flow records: the capture's unit of observation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.net.ipv4 import IPv4Address

#: Two-level public suffixes our TLD mix can produce.
_TWO_LEVEL_SUFFIXES = {"co.uk"}


def registrable_domain(hostname: str) -> str:
    """The registrable (aggregation) domain of a hostname.

    ``a.b.example.com`` → ``example.com``; ``x.example.co.uk`` →
    ``example.co.uk``.  Mirrors the paper's "aggregating the hostnames
    and common names by domain".
    """
    labels = hostname.lower().rstrip(".").split(".")
    if len(labels) >= 3 and ".".join(labels[-2:]) in _TWO_LEVEL_SUFFIXES:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:]) if len(labels) >= 2 else hostname


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One flow as Bro would log it.

    ``src`` is an anonymized campus client label (the paper anonymized
    university addresses); ``dst`` is the outside (cloud) address.
    Application fields are present only where Bro could extract them:
    ``http_host``/``content_type``/``content_length`` for HTTP,
    ``tls_common_name`` for HTTPS.
    """

    ts: float
    duration: float
    src: str
    dst: IPv4Address
    proto: str  # 'tcp' | 'udp' | 'icmp'
    dport: int
    total_bytes: int
    http_host: Optional[str] = None
    content_type: Optional[str] = None
    content_length: Optional[int] = None
    tls_common_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.total_bytes < 0:
            raise ValueError("negative flow size")
        if self.duration < 0:
            raise ValueError("negative duration")


class Trace:
    """An ordered collection of flow records."""

    def __init__(self, flows: Iterable[FlowRecord] = ()):
        self.flows: List[FlowRecord] = list(flows)

    def add(self, flow: FlowRecord) -> None:
        self.flows.append(flow)

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self):
        return iter(self.flows)

    def total_bytes(self) -> int:
        return sum(flow.total_bytes for flow in self.flows)

    def flow_table(self):
        """The flows packed into a
        :class:`~repro.columnar.tables.FlowTable`, in trace order."""
        from repro.columnar.tables import FlowTableBuilder

        builder = FlowTableBuilder()
        for flow in self.flows:
            builder.add(
                flow.ts, flow.duration, flow.src, flow.dst.value,
                flow.proto, flow.dport, flow.total_bytes,
                http_host=flow.http_host,
                content_type=flow.content_type,
                content_length=flow.content_length,
                tls_common_name=flow.tls_common_name,
            )
        return builder.build(sort_by_ts=False)

    def sort_by_time(self) -> None:
        self.flows.sort(key=lambda f: f.ts)
