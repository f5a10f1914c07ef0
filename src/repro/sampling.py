"""Precompiled weighted sampling.

``random.Random.choices`` re-accumulates its weight list on every call,
which makes it O(len(population)) even for ``k=1`` draws.  The capture
generator draws one weighted client out of 1,500 tens of thousands of
times, so that re-accumulation dominated the capture stage.

:class:`WeightedChooser` compiles the cumulative weights once and then
replays CPython's own draw — ``population[bisect(cum_weights,
random() * total, 0, len - 1)]`` — so a chooser consumes exactly one
``random()`` call per draw and returns *bit-identical* picks to
``rng.choices(population, weights=weights, k=1)[0]``.  That equivalence
is what lets the capture keep its pre-optimisation byte streams; it is
pinned by a test against ``random.choices`` itself.

:class:`IndexedWeightedChooser` is the same compiled draw over an
*implicit* ``range(n)`` population with the cumulative weights packed
into a C double array.  A million-client campus population costs 8
bytes per client instead of a boxed float plus a name string, and the
draw is bit-identical to a :class:`WeightedChooser` built from the
same weights (same doubles, same bisect).
"""

from __future__ import annotations

from array import array
from bisect import bisect
from itertools import accumulate
from random import Random
from typing import Generic, Iterable, List, Sequence, TypeVar

T = TypeVar("T")


class WeightedChooser(Generic[T]):
    """One weighted population, compiled for repeated single draws."""

    __slots__ = ("population", "cum_weights", "total", "_hi")

    def __init__(self, population: Sequence[T], weights: Sequence[float]):
        if len(population) != len(weights):
            raise ValueError(
                "population and weights must have the same length"
            )
        if not population:
            raise ValueError("population must not be empty")
        self.population: List[T] = list(population)
        self.cum_weights: List[float] = list(accumulate(weights))
        self.total: float = self.cum_weights[-1] + 0.0
        if self.total <= 0.0:
            raise ValueError("total of weights must be greater than zero")
        self._hi = len(self.population) - 1

    def choose(self, rng: Random) -> T:
        """One draw, bit-identical to ``rng.choices(pop, weights)[0]``."""
        return self.population[
            bisect(self.cum_weights, rng.random() * self.total, 0, self._hi)
        ]


class IndexedWeightedChooser:
    """Weighted draws over the implicit population ``range(n)``.

    Identical draw mechanics to :class:`WeightedChooser` — the same
    ``itertools.accumulate`` float sums, the same
    ``bisect(cum_weights, rng.random() * total, 0, n - 1)`` — but the
    cumulative weights live in a C double ``array`` and the population
    is never materialized.  ``array('d')`` stores the exact same IEEE
    doubles a float list holds, and :func:`bisect.bisect` compares the
    probe against them with the same ``<`` as it would against boxed
    floats, so for equal weight sequences the chosen *index* is
    bit-identical to the index a :class:`WeightedChooser` would pick.
    A campus population of millions of clients therefore costs 8 bytes
    per client; the caller formats a name from the index on demand.
    """

    __slots__ = ("cum_weights", "total", "_hi")

    def __init__(self, weights: Iterable[float]):
        self.cum_weights = array("d", accumulate(weights))
        if not len(self.cum_weights):
            raise ValueError("weights must not be empty")
        self.total: float = self.cum_weights[-1] + 0.0
        if self.total <= 0.0:
            raise ValueError("total of weights must be greater than zero")
        self._hi = len(self.cum_weights) - 1

    def __len__(self) -> int:
        return self._hi + 1

    def choose(self, rng: Random) -> int:
        """One draw; returns the chosen population index."""
        return bisect(
            self.cum_weights, rng.random() * self.total, 0, self._hi
        )
