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

The deferred world has no switch here: its chunk size is the constant
``repro.analysis.shards.CHUNK_SIZE``, and whether a build forks at all
is the builder's decision (:meth:`DatasetBuilder.can_shard`) — see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import os
from typing import Optional

_FORCED: Optional[bool] = None


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
