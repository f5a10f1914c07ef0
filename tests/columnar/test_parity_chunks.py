"""The parity module's ``math`` passes run one fixed slice at a time.

The fallback must give the one-shot ``np.fromiter(map(...))`` it
replaced bit for bit at every size around the slice boundary, the
probes must reach the same verdicts, and each probe's temporary memory
must stay bounded.
"""

import math
import tracemalloc

import numpy as np
import pytest

from repro.columnar import parity

CHUNK = parity._CHUNK
FUNCTIONS = {
    "log": (np.log, math.log),
    "exp": (np.exp, math.exp),
    "sqrt": (np.sqrt, math.sqrt),
    "cos": (np.cos, math.cos),
    "sin": (np.sin, math.sin),
}
VECTORS = {
    "log": parity.vec_log,
    "exp": parity.vec_exp,
    "sqrt": parity.vec_sqrt,
    "cos": parity.vec_cos,
    "sin": parity.vec_sin,
}


def one_shot(math_fn, arr: np.ndarray) -> np.ndarray:
    """The fallback before chunking: every element a Python float."""
    flat = np.fromiter(
        map(math_fn, arr.ravel().tolist()),
        dtype=np.float64,
        count=arr.size,
    )
    return flat.reshape(arr.shape)


def one_shot_bit_equal(np_fn, math_fn, operands: np.ndarray) -> bool:
    """The probe comparison before chunking."""
    ref = np.fromiter(
        map(math_fn, operands.tolist()),
        dtype=np.float64,
        count=len(operands),
    )
    return bool(np.array_equal(np_fn(operands), ref))


def operands(name: str, shape) -> np.ndarray:
    u = np.random.RandomState(11).random_sample(shape)
    if name == "log":
        return 1.0 - u
    if name == "exp":
        return (u - 0.5) * 60.0
    if name == "sqrt":
        return u * 80.0
    return u * (2.0 * math.pi)


SHAPES = [(0,), (1,), (CHUNK - 1,), (CHUNK,), (CHUNK + 1,), (3, CHUNK // 2 + 7)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_fallback_equals_one_shot(monkeypatch, name, shape):
    # Force the fallback whatever this NumPy build's verdict is.
    monkeypatch.setitem(parity._verdicts, name, False)
    arr = operands(name, shape)
    got = VECTORS[name](arr)
    want = one_shot(FUNCTIONS[name][1], arr)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_parity_report_matches_one_shot_probes(monkeypatch):
    report = parity.parity_report()
    monkeypatch.setattr(parity, "_bit_equal", one_shot_bit_equal)
    assert report == {name: parity._probe(name) for name in report}


#: Traced peak a probe may reach above the memory in use before it.
#: The one-shot probes listed every operand as a Python float: about
#: 7.5 MiB for ``exp`` (131,076 operands) and 4.0 MiB for the others.
PEAK_BOUND_MIB = {
    "log": 2.25,
    "exp": 4.5,
    "sqrt": 2.25,
    "cos": 2.25,
    "sin": 2.25,
}


@pytest.mark.parametrize("name", sorted(PEAK_BOUND_MIB))
def test_probe_peak_is_bounded(name):
    parity._probe(name)  # import-time and first-call allocations
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        parity._probe(name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - base) / 2**20 < PEAK_BOUND_MIB[name]
