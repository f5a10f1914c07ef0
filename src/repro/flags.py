"""Runtime feature switches shared across packages.

The columnar data plane (``repro.columnar`` plus the pure-Python static
DNS resolution index) is a drop-in accelerator: every vectorized path
reproduces the scalar RNG consumption order bit-for-bit, so the switch
only trades speed for speed.  It lives here — a dependency-free module —
so that numpy-free packages (``repro.dns``) can consult it without
importing ``repro.columnar`` (which fails fast when NumPy is absent).

Precedence: a programmatic override installed via
:func:`set_columnar_enabled` wins; otherwise the ``REPRO_COLUMNAR``
environment variable (anything but ``"0"`` enables); default on.

The deferred world's one knob is the chunk size
(:func:`set_chunk_size`): how many domain ranks its forked dataset
build deploys per chunk.  Whether a build forks at all is the
builder's decision (:meth:`DatasetBuilder.can_shard`), not a switch —
see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import os
from typing import Optional

_FORCED: Optional[bool] = None
_FORCED_CHUNK: Optional[int] = None

#: Ranks materialized per streaming chunk unless :func:`set_chunk_size`
#: overrides it.  Sized so a chunk's tenant state (zones, records, plans,
#: instances) stays tens of MB while the per-chunk fork/merge overhead
#: stays well under a percent of the build.
DEFAULT_CHUNK_SIZE = 6_250


def set_columnar_enabled(value: Optional[bool]) -> Optional[bool]:
    """Force the columnar plane on/off (``None`` restores env control).

    Returns the previous override so callers can restore it in a
    ``finally`` block.  Affects objects *constructed after* the call
    (worlds, generators); already-built objects keep the decision they
    captured.
    """
    global _FORCED
    previous = _FORCED
    _FORCED = value
    return previous


def columnar_runtime_enabled() -> bool:
    """Whether columnar fast paths should be used, ignoring NumPy
    availability (callers that need NumPy gate on import separately)."""
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_COLUMNAR", "1") != "0"


def set_chunk_size(value: Optional[int]) -> Optional[int]:
    """Force the streaming chunk size (``None`` restores the default).

    Returns the previous override.  The chunk size bounds how many
    domain ranks a streaming build materializes at once; output bytes
    are chunk-size-invariant (any contiguous partition merges
    identically), so this knob trades peak RSS against per-chunk
    overhead only.
    """
    global _FORCED_CHUNK
    if value is not None and value < 1:
        raise ValueError(f"chunk size must be positive: {value}")
    previous = _FORCED_CHUNK
    _FORCED_CHUNK = value
    return previous


def streaming_chunk_size() -> int:
    """The active streaming chunk size (override or default)."""
    return _FORCED_CHUNK or DEFAULT_CHUNK_SIZE
