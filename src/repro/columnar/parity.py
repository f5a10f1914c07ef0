"""Parity-probed transcendental dispatch.

CPython's scalar RNG transforms (``gauss``, ``lognormvariate``,
``expovariate``) go through libm's ``log``/``exp``/``sqrt``/``cos``/
``sin``.  NumPy's ufuncs are *usually* bit-equal to libm but not
guaranteed to be — SIMD kernels for ``log``/``exp`` differ by an ulp on
some builds — and one flipped bit anywhere breaks the repository's
digest contract.

So each function is probed once per process, on its first use: a
deterministic sample (fixed-seed Mersenne words, mapped into the
domain the pipeline actually uses) is evaluated through both the ufunc
and ``math``, and the vectorized entry point commits to the ufunc only
on exact bitwise agreement.  Otherwise it falls back to
``map(math.f, ...)`` — still far cheaper than the scalar draw loops it
replaces, and bit-identical by construction.  :func:`parity_report`
exposes the verdicts (the docs and tests surface them; they are *not*
part of any digest).

Both the probe and the fallback run ``math`` over :data:`_CHUNK`
elements at a time, so the Python floats they make never outnumber
one chunk, whatever the array's size.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np

_PROBE_SEED = 0xC01A57A7
_PROBE_SIZE = 1 << 16
#: Elements per ``math`` pass: one slice's Python floats are all a
#: probe or a fallback holds at once.
_CHUNK = 4096

_verdicts: Dict[str, bool] = {}


def _probe_samples() -> np.ndarray:
    rs = np.random.RandomState(_PROBE_SEED)
    return rs.random_sample(_PROBE_SIZE)


def _math_map(math_fn, flat: np.ndarray) -> np.ndarray:
    """``math_fn`` over a 1-D array, one :data:`_CHUNK` slice at a
    time: the same floats, in the same order, as one ``map`` over
    ``flat.tolist()``."""
    out = np.empty(flat.size, dtype=np.float64)
    for lo in range(0, flat.size, _CHUNK):
        part = flat[lo:lo + _CHUNK].tolist()
        out[lo:lo + len(part)] = np.fromiter(
            map(math_fn, part), dtype=np.float64, count=len(part)
        )
    return out


def _bit_equal(np_fn, math_fn, operands: np.ndarray) -> bool:
    # The ufunc sees the whole sample, as the pipeline's calls do; the
    # ``math`` reference is made and compared one slice at a time.
    vec = np_fn(operands)
    return all(
        np.array_equal(
            vec[lo:lo + _CHUNK],
            _math_map(math_fn, operands[lo:lo + _CHUNK]),
        )
        for lo in range(0, operands.size, _CHUNK)
    )


def _probe(name: str) -> bool:
    """Probe one function over the domain the pipeline feeds it."""
    u = _probe_samples()
    if name == "log":
        # log(1 - u) and log(u2) operands: (0, 1]; add near-0/near-1
        # extremes the uniform sample under-covers.
        operands = np.concatenate([
            1.0 - u,
            np.array([1.0, 2.0 ** -52, 1e-300, 0.5, 1.0 - 2.0 ** -53]),
        ])
        return _bit_equal(np.log, math.log, operands)
    if name == "exp":
        # mu + z*sigma operands for lognormal sizes/rates: roughly
        # [-25, 30]; also the WAN noise exponent [-1.5, 1.5].
        operands = np.concatenate([
            (u - 0.5) * 60.0,
            (u - 0.5) * 3.0,
            np.array([0.0, -0.0, 1.0, -1.0]),
        ])
        return _bit_equal(np.exp, math.exp, operands)
    if name == "sqrt":
        # -2*log(1-u) operands: [0, ~75].
        operands = np.concatenate([
            u * 80.0, np.array([0.0, 1.0, 2.0, 0.25])
        ])
        return _bit_equal(np.sqrt, math.sqrt, operands)
    if name in ("cos", "sin"):
        operands = u * (2.0 * math.pi)
        np_fn = np.cos if name == "cos" else np.sin
        math_fn = math.cos if name == "cos" else math.sin
        return _bit_equal(np_fn, math_fn, operands)
    raise ValueError(f"unknown parity probe: {name}")


def has_parity(name: str) -> bool:
    verdict = _verdicts.get(name)
    if verdict is None:
        verdict = _probe(name)
        _verdicts[name] = verdict
    return verdict


def parity_report() -> Dict[str, bool]:
    """Verdict per function on this NumPy build (probes all five)."""
    return {
        name: has_parity(name)
        for name in ("log", "exp", "sqrt", "cos", "sin")
    }


def _dispatch(
    name: str, np_fn, math_fn
) -> Callable[[np.ndarray], np.ndarray]:
    def vec(arr: np.ndarray) -> np.ndarray:
        if has_parity(name):
            return np_fn(arr)
        return _math_map(math_fn, arr.ravel()).reshape(arr.shape)

    vec.__name__ = f"vec_{name}"
    return vec


vec_log = _dispatch("log", np.log, math.log)
vec_exp = _dispatch("exp", np.exp, math.exp)
vec_sqrt = _dispatch("sqrt", np.sqrt, math.sqrt)
vec_cos = _dispatch("cos", np.cos, math.cos)
vec_sin = _dispatch("sin", np.sin, math.sin)
