"""Vectorized deterministic RNG: bulk replay of CPython draw programs.

``random.Random`` is a Mersenne Twister.  Its state transplants
losslessly into ``numpy.random.RandomState`` (same MT19937 core), and
the two produce **bit-identical** primitive streams:

* ``RandomState.random_sample(n)`` == ``n`` calls of ``Random.random()``
  (both build each double from two 32-bit words as
  ``((w1 >> 5) * 2**26 + (w2 >> 6)) * 2**-53``);
* ``RandomState.randint(0, 2**32, dtype=uint32)`` == ``getrandbits(32)``
  (one raw word each).

Everything here builds on that transplant, in two shapes:

* **Block transforms** (:func:`gauss_block` and its block-by-block
  :class:`GaussStream`, :func:`uniform_block`,
  :func:`advance_gauss_bulk`) for draw programs with a fixed
  words-per-draw layout.  ``gauss`` consumes uniforms in Box–Muller
  pairs and caches the odd value, so a block of ``n`` draws is two
  vectorized uniform lanes plus ``gauss_next`` bookkeeping at the ends.
* The **word ledger** (:class:`WordLedger`) for draw programs whose
  word layout is data-dependent (rejection sampling in
  ``normalvariate``/``_randbelow``).  The ledger bulk-fetches raw MT
  words, precomputes the uniform/bits view at every word offset, and a
  cheap Python cursor walks the exact scalar control flow — rejections
  just advance the cursor.  ``close()`` fast-forwards the owning
  ``Random`` past exactly the words consumed.

The fast-forward contract: after any helper returns, the owning
``random.Random`` — state vector, position, *and* ``gauss_next`` cache —
is byte-equal to what the equivalent scalar loop would have left.
Transcendentals route through :mod:`repro.columnar.parity`.
"""

from __future__ import annotations

import math
import random as _random
from typing import List, Optional

import numpy as np

from repro.columnar.parity import vec_cos, vec_log, vec_sin, vec_sqrt

TWOPI = 2.0 * math.pi
#: Kinderman–Monahan constant, exactly as the stdlib computes it.
NV_MAGICCONST = getattr(
    _random, "NV_MAGICCONST", 4.0 * math.exp(-0.5) / math.sqrt(2.0)
)

_WORD_HIGH = 1 << 32


def randstate_from(rng: _random.Random) -> np.random.RandomState:
    """A ``RandomState`` positioned exactly where ``rng`` is."""
    version, internal, _gauss_next = rng.getstate()
    if version != 3:  # pragma: no cover - CPython-version guard
        raise RuntimeError(
            f"unsupported random.Random state version: {version}"
        )
    rs = np.random.RandomState()
    rs.set_state((
        "MT19937",
        np.array(internal[:-1], dtype=np.uint32),
        int(internal[-1]),
    ))
    return rs


def sync_py_rng(
    rng: _random.Random,
    rs: np.random.RandomState,
    gauss_next: Optional[float],
) -> None:
    """Write ``rs``'s position back into ``rng`` (with ``gauss_next``)."""
    state = rs.get_state()
    keys, pos = state[1], state[2]
    rng.setstate(
        (3, tuple(int(k) for k in keys) + (int(pos),), gauss_next)
    )


def uniform_block(rng: _random.Random, n: int) -> np.ndarray:
    """``n`` consecutive ``rng.random()`` values; advances ``rng``."""
    if n <= 0:
        return np.empty(0, dtype=np.float64)
    rs = randstate_from(rng)
    u = rs.random_sample(n)
    sync_py_rng(rng, rs, rng.gauss_next)
    return u


class GaussStream:
    """Consecutive :func:`gauss_block` draws from one state transplant.

    Moving a ``Random``'s state into a ``RandomState`` and back costs
    about 0.4 ms, so a caller that draws a stream block by block keeps
    one transplant: :meth:`take` returns the next ``n`` z-values,
    carrying the cached Box–Muller half-pair from block to block, and
    :meth:`close` writes the position and that half-pair back into
    ``rng``.  The blocks concatenate to one :func:`gauss_block` of their
    total size; ``rng`` must not be drawn from until :meth:`close`.
    """

    def __init__(self, rng: _random.Random):
        self._rng = rng
        self._rs: Optional[np.random.RandomState] = None
        self._cached: Optional[float] = rng.gauss_next

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` ``gauss(0, 1)`` z-values of the stream."""
        out = np.empty(n, dtype=np.float64)
        if n <= 0:
            return out
        i = 0
        if self._cached is not None:
            out[0] = self._cached
            self._cached = None
            i = 1
        m = n - i
        if m == 0:
            return out
        if self._rs is None:
            self._rs = randstate_from(self._rng)
        pairs = (m + 1) // 2
        u = self._rs.random_sample(2 * pairs)
        x2pi = u[0::2] * TWOPI
        g2rad = vec_sqrt(-2.0 * vec_log(1.0 - u[1::2]))
        z_cos = vec_cos(x2pi) * g2rad
        z_sin = vec_sin(x2pi) * g2rad
        out[i::2] = z_cos
        if m % 2:
            out[i + 1:: 2] = z_sin[:-1]
            self._cached = float(z_sin[-1])
        else:
            out[i + 1:: 2] = z_sin
        return out

    def close(self) -> None:
        """Leave ``rng`` exactly where the scalar draws would have."""
        if self._rs is None:
            self._rng.gauss_next = self._cached
        else:
            sync_py_rng(self._rng, self._rs, self._cached)


def gauss_block(rng: _random.Random, n: int) -> np.ndarray:
    """``n`` consecutive ``rng.gauss(0, 1)`` z-values; advances ``rng``.

    Honors an incoming cached ``gauss_next`` as the first value and
    leaves the trailing half-pair cached, exactly like scalar ``gauss``.
    Callers apply ``mu + z*sigma`` themselves (for the ``mu=0.0`` paths
    in this repository, ``z*sigma`` alone is bit-safe: the only way
    ``0.0 + x`` differs from ``x`` is ``-0.0`` → ``+0.0``, and every
    consumer here either takes ``abs`` or exponentiates).
    """
    stream = GaussStream(rng)
    out = stream.take(n)
    stream.close()
    return out


def advance_gauss_bulk(rng: _random.Random, count: int) -> None:
    """Fast-forward ``rng`` past ``count`` ``gauss`` draws.

    State-equal to ``count`` scalar ``gauss(0.0, 1.0)`` calls: the same
    uniforms are consumed and the same trailing ``gauss_next`` is
    cached (computed through scalar ``math`` — the exact functions the
    scalar path would have used).
    """
    if count <= 0:
        return
    if rng.gauss_next is not None:
        rng.gauss_next = None
        count -= 1
        if count == 0:
            return
    pairs = (count + 1) // 2
    rs = randstate_from(rng)
    u = rs.random_sample(2 * pairs)
    if count % 2:
        x2pi = float(u[-2]) * TWOPI
        g2rad = math.sqrt(-2.0 * math.log(1.0 - float(u[-1])))
        trailing: Optional[float] = math.sin(x2pi) * g2rad
    else:
        trailing = None
    sync_py_rng(rng, rs, trailing)


class WordLedger:
    """A bulk-prefetched cursor over one ``random.Random`` word stream.

    While a ledger is open it *owns* the stream: the Python ``Random``
    object is left untouched until :meth:`close`, which fast-forwards
    it past exactly the words the cursor consumed.  Interleave other
    consumers of the same ``Random`` between ledgers, never within one.

    Primitives mirror the CPython draw programs word-for-word:
    ``uniform`` (2 words), ``getrandbits(k≤32)`` (1 word),
    ``randbelow`` (1 word per rejection round), ``shuffle`` (reverse
    Fisher–Yates), ``normalvariate_z`` / ``expovariate`` (the stdlib
    rejection/log transforms with scalar ``math`` calls, one per
    iteration — the same count the scalar path pays).
    """

    CHUNK = 1 << 15

    def __init__(self, rng: _random.Random, chunk: int = CHUNK):
        self.rng = rng
        self._chunk = max(int(chunk), 16)
        self._gauss_next = rng.gauss_next
        self._rs = randstate_from(rng)
        self._consumed = 0
        self._words: Optional[np.ndarray] = None
        self._u: List[float] = []
        self._bits: dict = {}
        self._pos = 0
        self._len = 0
        self._closed = False
        self._fill(self._chunk)

    # -- buffer management -------------------------------------------

    def _fill(self, need: int) -> None:
        tail = (
            self._words[self._pos:] if self._words is not None else None
        )
        fresh = self._rs.randint(
            0, _WORD_HIGH, size=max(need, self._chunk), dtype=np.uint32
        )
        if tail is not None and len(tail):
            self._words = np.concatenate([tail, fresh])
        else:
            self._words = fresh
        self._pos = 0
        self._len = len(self._words)
        w = self._words
        # Uniform starting at word offset c: CPython's genrand_res53.
        a = (w >> np.uint32(5)).astype(np.float64) * 67108864.0
        b = (w >> np.uint32(6)).astype(np.float64)
        u = np.empty(self._len, dtype=np.float64)
        u[:-1] = (a[:-1] + b[1:]) * (1.0 / 9007199254740992.0)
        u[-1] = 0.0  # half a pair; _ensure keeps it unreachable
        self._u = u.tolist()
        self._bits = {}

    def _ensure(self, words: int) -> None:
        if self._len - self._pos < words:
            self._fill(words)

    # -- primitives ---------------------------------------------------

    def uniform(self) -> float:
        """One ``rng.random()`` (2 words)."""
        self._ensure(2)
        v = self._u[self._pos]
        self._pos += 2
        self._consumed += 2
        return v

    def getrandbits(self, k: int) -> int:
        """One ``rng.getrandbits(k)`` for ``k <= 32`` (1 word)."""
        self._ensure(1)
        lst = self._bits.get(k)
        if lst is None:
            lst = (self._words >> np.uint32(32 - k)).tolist()
            self._bits[k] = lst
        r = lst[self._pos]
        self._pos += 1
        self._consumed += 1
        return r

    def randbelow(self, n: int) -> int:
        """``rng._randbelow(n)``: top-bits rejection sampling."""
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return r

    def randrange(self, n: int) -> int:
        """``rng.randrange(n)`` for a positive int ``n``."""
        return self.randbelow(n)

    def choice_index(self, length: int) -> int:
        """The index ``rng.choice(seq)`` would pick from ``seq``."""
        return self.randbelow(length)

    def shuffle(self, x: list) -> None:
        """In-place ``rng.shuffle(x)`` (reverse Fisher–Yates)."""
        for i in reversed(range(1, len(x))):
            j = self.randbelow(i + 1)
            x[i], x[j] = x[j], x[i]

    def normalvariate_z(self) -> float:
        """The z of one ``rng.normalvariate(mu, sigma)`` draw.

        The Kinderman–Monahan acceptance test is mu/sigma-independent,
        so callers apply ``mu + z*sigma`` (then ``exp`` for the
        lognormal paths) exactly as the stdlib does.
        """
        while True:
            u1 = self.uniform()
            u2 = 1.0 - self.uniform()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            zz = z * z / 4.0
            if zz <= -math.log(u2):
                return z

    def expovariate(self, lambd: float) -> float:
        """One ``rng.expovariate(lambd)`` draw."""
        return -math.log(1.0 - self.uniform()) / lambd

    # -- hand-back ----------------------------------------------------

    @property
    def words_consumed(self) -> int:
        return self._consumed

    def close(self) -> None:
        """Advance the owning ``Random`` past every consumed word."""
        if self._closed:
            return
        self._closed = True
        rs = randstate_from(self.rng)
        if self._consumed:
            rs.randint(
                0, _WORD_HIGH, size=self._consumed, dtype=np.uint32
            )
        sync_py_rng(self.rng, rs, self._gauss_next)

    def __enter__(self) -> "WordLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
