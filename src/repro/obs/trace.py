"""Hierarchical tracing: nested timed spans over the pipeline.

A :class:`Tracer` records a forest of :class:`Span` objects — one per
``with tracer.span(...)`` block — nested by dynamic scope.  Spans carry
a name, a category (the aggregation axis: ``stage``, ``dataset-step``,
``campaign``, ``shard``, ``artifact``, ``experiment``), a start offset
relative to the tracer's epoch, a duration, and free-form metadata.

Two exports cover the two consumers:

* :meth:`Tracer.render_tree` — an indented human-readable tree with
  durations, for terminal inspection;
* :meth:`Tracer.chrome_trace` — Chrome ``trace_event`` JSON (load it in
  ``chrome://tracing`` or Perfetto), written by
  :meth:`Tracer.write_chrome` behind the CLI's ``--trace-out``.

The default tracer everywhere in the library is the shared
:data:`NULL_TRACER`: its :meth:`~NullTracer.span` returns one reusable
no-op context manager, so un-instrumented runs pay a single attribute
load and truthiness check per would-be span.  Wall-clock values live
only inside span objects — they never feed artifact keys, digests, or
RNG streams.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union


@dataclass
class Span:
    """One timed scope: name, category, offsets, metadata, children."""

    name: str
    category: str
    #: Seconds since the owning tracer's epoch.
    start_s: float
    #: Filled when the scope exits (None while open).
    duration_s: Optional[float] = None
    meta: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class _SpanScope:
    """Context manager closing one span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> bool:
        self._tracer._finish(self.span)
        return False


class _NullScope:
    """The single reusable scope the null tracer hands out."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class NullTracer:
    """The zero-cost default: every operation is a no-op."""

    enabled = False
    roots: tuple = ()

    def span(self, name: str, category: str = "", **meta) -> _NullScope:
        return _NULL_SCOPE

    def record(
        self, name: str, category: str = "", seconds: float = 0.0, **meta
    ) -> None:
        return None

    def seconds_by_name(self, category: str) -> Dict[str, float]:
        return {}

    def render_tree(self) -> str:
        return ""

    def chrome_trace(self) -> dict:
        return {"traceEvents": []}


class Tracer:
    """Collects a forest of nested timed spans."""

    enabled = True

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._epoch = self._clock()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- recording -----------------------------------------------------

    def span(self, name: str, category: str = "", **meta) -> _SpanScope:
        """Open a nested span; use as ``with tracer.span(...):``."""
        span = Span(
            name=name,
            category=category,
            start_s=self._clock() - self._epoch,
            meta=dict(meta) if meta else {},
        )
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)
        self._stack.append(span)
        return _SpanScope(self, span)

    def _finish(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of LIFO order"
            )
        self._stack.pop()
        span.duration_s = (self._clock() - self._epoch) - span.start_s

    def record(
        self, name: str, category: str = "", seconds: float = 0.0, **meta
    ) -> Span:
        """Attach an already-measured span (e.g. a duration a forked
        worker reported back) at the current nesting level."""
        span = Span(
            name=name,
            category=category,
            start_s=self._clock() - self._epoch,
            duration_s=seconds,
            meta={"synthetic": True, **meta},
        )
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)
        return span

    # -- queries -------------------------------------------------------

    def walk(self):
        for root in self.roots:
            yield from root.walk()

    def seconds_by_name(self, category: str) -> Dict[str, float]:
        """Total closed-span seconds per name within one category."""
        totals: Dict[str, float] = {}
        for span in self.walk():
            if span.category == category and span.duration_s is not None:
                totals[span.name] = totals.get(span.name, 0.0) + (
                    span.duration_s
                )
        return totals

    # -- exports -------------------------------------------------------

    def render_tree(self) -> str:
        """The span forest as an indented, durations-annotated tree."""
        lines: List[str] = []

        def emit(span: Span, depth: int) -> None:
            duration = (
                f"{span.duration_s * 1000:.1f}ms"
                if span.duration_s is not None else "open"
            )
            label = f"[{span.category}] " if span.category else ""
            meta = "".join(
                f" {key}={value}"
                for key, value in span.meta.items()
                if key != "synthetic"
            )
            lines.append(
                f"{'  ' * depth}{label}{span.name}  {duration}{meta}"
            )
            for child in span.children:
                emit(child, depth + 1)

        for root in self.roots:
            emit(root, 0)
        return "\n".join(lines)

    def chrome_trace(self) -> dict:
        """The span forest in Chrome ``trace_event`` JSON form."""
        events: List[dict] = []
        for span in self.walk():
            if span.duration_s is None:
                continue
            events.append({
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": int(span.start_s * 1e6),
                "dur": int(span.duration_s * 1e6),
                "pid": 0,
                "tid": 0,
                "args": {
                    key: value for key, value in span.meta.items()
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(self.chrome_trace(), fh, indent=2)
            fh.write("\n")
        return path


def nested_stage_seconds(
    tracer: Union[Tracer, NullTracer], category: str
) -> Dict[str, float]:
    """Seconds of the ``stage`` spans nested in each span of one
    category, summed per span name.

    Only the outermost nested stages count, so a stage built inside
    another stage is not counted twice.  A span's self time is its
    own seconds less this: an experiment's, once the stages it
    triggered (the world, dataset and capture the first experiment to
    ask builds) are taken out; a stage's, once the stages built
    inside it are.
    """
    def outermost(spans) -> float:
        return sum(
            span.duration_s
            if span.category == "stage" and span.duration_s is not None
            else outermost(span.children)
            for span in spans
        )

    totals: Dict[str, float] = {}
    for root in tracer.roots:
        for span in root.walk():
            if span.category == category and span.duration_s is not None:
                totals[span.name] = (
                    totals.get(span.name, 0.0) + outermost(span.children)
                )
    return totals


#: Shared no-op tracer — the library-wide default.
NULL_TRACER = NullTracer()
