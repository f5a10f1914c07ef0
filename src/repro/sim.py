"""Simulation-wide utilities: virtual time and deterministic randomness.

Every stochastic component in the reproduction draws from a named
substream derived from one master seed, so that (a) the whole world is a
pure function of ``WorldConfig.seed`` and (b) adding a new component never
perturbs the draws of existing ones (the classic shared-``Random``
fragility).

The module keeps no per-key state: a component that asks for one
derived key more than once memoizes the value it draws from it, where
it uses it.
"""

from __future__ import annotations

import gc
import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


def derive_seed(seed: int, *labels: object) -> int:
    """The integer seed :func:`derive_rng` would construct its RNG from.

    The SHA-256 digest of the label path's ``repr``, so values that
    compare equal but repr differently — ``1`` vs ``1.0`` — keep their
    distinct seeds.  The digest is computed on every call; the callers
    that re-derive a key (the latency model's path factors, the
    prober's response flips, the routing model's route orders and zone
    visibility) memoize the draw they take from it.
    """
    path = repr((seed,) + labels)
    digest = hashlib.sha256(path.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big")


#: Optional observability hook: called (no args) once per
#: :func:`derive_rng` derivation when installed.  The default ``None``
#: keeps the hot path at a single global load and identity check.
_RNG_OBSERVER = None


def set_rng_observer(observer):
    """Install (or clear, with ``None``) the RNG-derivation observer.

    Returns the previously installed observer so instrumented callers
    can restore it in a ``finally`` block.  The observer must never
    touch randomness itself — it exists so the metrics registry can
    count derivations, nothing more.
    """
    global _RNG_OBSERVER
    previous = _RNG_OBSERVER
    _RNG_OBSERVER = observer
    return previous


def derive_rng(seed: int, *labels: object) -> random.Random:
    """A :class:`random.Random` seeded from ``seed`` and a label path.

    The label path is hashed with SHA-256, so substreams are independent
    of declaration order and stable across runs and platforms.

    >>> derive_rng(1, "dns").random() == derive_rng(1, "dns").random()
    True
    >>> derive_rng(1, "dns").random() == derive_rng(1, "capture").random()
    False
    """
    if _RNG_OBSERVER is not None:
        _RNG_OBSERVER()
    return random.Random(derive_seed(seed, *labels))


def fork_pool_available() -> bool:
    """Whether copy-on-write fork workers can be used on this platform.

    Both parallel campaigns (the §5 WAN rounds and the §2.1 dataset
    shards) rely on ``fork`` semantics: children inherit the fully built
    world by copy-on-write instead of pickling it, and closures (dynamic
    DNS answer functions) never cross a process boundary.  Spawn-based
    platforms fall back to the sequential path, which is bit-identical.
    """
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


@contextmanager
def collector_paused(freeze: bool = False) -> Iterator[None]:
    """Run the enclosed block with the cyclic garbage collector paused.

    A build that allocates what it keeps (a world's tenants, a
    campaign's records) gains nothing from generational passes over its
    growing heap: the objects survive, and refcounting still frees the
    acyclic transients.  The collector's previous enabled state comes
    back on exit, so a pause nested inside another is a no-op.

    ``freeze=True`` calls :func:`gc.freeze` when the block *succeeds*,
    moving everything tracked so far into the permanent generation that
    later collections skip.  Only a caller that owns the process's
    long-lived heap may ask for it (see
    :class:`repro.experiments.context.ExperimentContext`).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        if freeze:
            gc.freeze()
    finally:
        if was_enabled:
            gc.enable()


#: Below this draw count the scalar loop beats the vectorized
#: fast-forward's fixed costs (state transplant both ways).
_GAUSS_BULK_THRESHOLD = 512


def advance_gauss(rng: random.Random, count: int) -> None:
    """Advance ``rng`` past ``count`` gaussian draws.

    :meth:`random.Random.gauss` consumes underlying ``random()`` calls
    in Box-Muller pairs and caches the second value, so its state
    evolution depends only on *how many times* it is called, never on
    the ``mu``/``sigma`` arguments.  Replaying ``count`` draws therefore
    leaves the stream exactly where sequential execution would — the
    primitive the parallel WAN campaign uses to keep worker substreams
    bit-identical to single-process runs.
    """
    if count >= _GAUSS_BULK_THRESHOLD:
        from repro.flags import columnar_runtime_enabled

        if columnar_runtime_enabled():
            from repro.columnar.rng import advance_gauss_bulk

            advance_gauss_bulk(rng, count)
            return
    gauss = rng.gauss
    for _ in range(count):
        gauss(0.0, 1.0)


@dataclass
class Clock:
    """A virtual clock measured in seconds since the simulation epoch."""

    now: float = 0.0

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"cannot move time backwards: {seconds}")
        self.now += seconds
        return self.now


@dataclass(frozen=True)
class SimulationEpoch:
    """Anchors virtual time to the paper's measurement calendar.

    The packet capture ran Tue Jun 26 -- Mon Jul 2, 2012; the DNS survey
    ran Mar 27--29, 2013.  We keep those as named offsets purely for
    documentation/reporting; all arithmetic is in virtual seconds.
    """

    capture_start_label: str = "2012-06-26T00:00:00"
    capture_days: int = 7
    dns_survey_label: str = "2013-03-27"

    @property
    def capture_seconds(self) -> float:
        return self.capture_days * 86400.0


@dataclass
class StreamRegistry:
    """Hands out named RNG substreams for one master seed."""

    seed: int
    _issued: dict = field(default_factory=dict)

    def stream(self, *labels: object) -> random.Random:
        key = tuple(labels)
        if key not in self._issued:
            self._issued[key] = derive_rng(self.seed, *labels)
        return self._issued[key]
