"""Edge cases for the columnar tables: empty and singleton captures.

The paper-scale paths must degrade to the degenerate shapes without
special-casing: a world with no flows and a single-row table.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.capture.flow import FlowRecord  # noqa: E402
from repro.columnar.tables import (  # noqa: E402
    ColumnarTrace,
    FlowTableBuilder,
)
from repro.net.ipv4 import IPv4Address  # noqa: E402


def _add_row(builder, ts=1.5):
    builder.add(
        ts, 0.25, "10.0.0.1", 167837697, "tcp", 80, 900,
        http_host="www.example.com",
        content_type="text/html",
        content_length=800,
    )


def test_empty_table():
    table = FlowTableBuilder().build()
    assert len(table) == 0
    assert table.total_bytes_sum() == 0
    assert table.materialize() == []


def test_empty_trace_roundtrip():
    trace = ColumnarTrace(FlowTableBuilder().build())
    assert len(trace) == 0
    assert trace.total_bytes() == 0
    assert list(trace) == []


def test_singleton_table_fields():
    builder = FlowTableBuilder()
    _add_row(builder)
    table = builder.build()
    assert len(table) == 1
    record = table.record(0)
    assert record == FlowRecord(
        ts=1.5,
        duration=0.25,
        src="10.0.0.1",
        dst=IPv4Address(167837697),
        proto="tcp",
        dport=80,
        total_bytes=900,
        http_host="www.example.com",
        content_type="text/html",
        content_length=800,
        tls_common_name=None,
    )


def test_singleton_none_fields_roundtrip():
    builder = FlowTableBuilder()
    builder.add(2.0, 0.1, "10.0.0.2", 1, "udp", 53, 120)
    record = builder.build().record(0)
    assert record.http_host is None
    assert record.content_type is None
    assert record.content_length is None
    assert record.tls_common_name is None


def test_sort_stability_on_equal_timestamps():
    builder = FlowTableBuilder()
    for i in range(6):
        builder.add(1.0, 0.1, f"10.0.0.{i}", i, "tcp", 80, 100 + i)
    table = builder.build()  # all equal ts: insertion order preserved
    assert [int(v) for v in table.dst_value] == list(range(6))


def test_empty_trace_mutation_and_sort():
    trace = ColumnarTrace(FlowTableBuilder().build())
    builder = FlowTableBuilder()
    _add_row(builder)
    flow = builder.build().record(0)
    trace.add(flow)
    trace.sort_by_time()
    assert list(trace) == [flow]
    assert trace.total_bytes() == flow.total_bytes
