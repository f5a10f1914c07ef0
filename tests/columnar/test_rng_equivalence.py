"""Scalar-vs-columnar equivalence for the vectorized RNG primitives.

Every assertion here is exact (``==``, not ``pytest.approx``): the
columnar plane's contract is bit-identity with the scalar draw
programs, including the final generator state.
"""

import math
import random

import pytest

np = pytest.importorskip("numpy")

from repro.columnar.rng import (  # noqa: E402
    GaussStream,
    WordLedger,
    advance_gauss_bulk,
    gauss_block,
    randstate_from,
    sync_py_rng,
    uniform_block,
)
from repro.sampling import WeightedChooser  # noqa: E402
from repro.sim import advance_gauss  # noqa: E402

SEEDS = [0, 1, 7, 13, 97, 2013, 0xDEADBEEF]


def _pair(seed, *, warmup_gauss=0):
    """Two identically-positioned Randoms (scalar ref, columnar probe)."""
    a, b = random.Random(seed), random.Random(seed)
    for _ in range(warmup_gauss):
        a.gauss(0.0, 1.0)
        b.gauss(0.0, 1.0)
    return a, b


def _assert_state_equal(a, b):
    assert a.getstate() == b.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_transplant_roundtrip_is_identity(seed):
    ref, probe = _pair(seed)
    rs = randstate_from(probe)
    sync_py_rng(probe, rs, probe.gauss_next)
    _assert_state_equal(ref, probe)
    assert [probe.random() for _ in range(8)] == [
        ref.random() for _ in range(8)
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 1000])
def test_uniform_block_matches_scalar(seed, n):
    ref, probe = _pair(seed)
    block = uniform_block(probe, n)
    assert block.tolist() == [ref.random() for _ in range(n)]
    _assert_state_equal(ref, probe)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("warmup", [0, 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 17, 256, 1001])
def test_gauss_block_matches_scalar(seed, warmup, n):
    # warmup=1 leaves a cached gauss_next that the block must honor.
    ref, probe = _pair(seed, warmup_gauss=warmup)
    block = gauss_block(probe, n)
    expected = [ref.gauss(0.0, 1.0) for _ in range(n)]
    assert block.tolist() == expected
    _assert_state_equal(ref, probe)
    # Follow-on draws agree too (gauss_next cache handed back right).
    assert probe.gauss(0.0, 1.0) == ref.gauss(0.0, 1.0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("warmup", [0, 1])
@pytest.mark.parametrize("sizes", [(3, 0, 1, 4, 5), (1, 1, 1), (0,), (7, 256)])
def test_gauss_stream_blocks_match_scalar(seed, warmup, sizes):
    # Odd block sizes leave a half-pair that the next block must start
    # with; close() must hand the last one back to the generator.
    ref, probe = _pair(seed, warmup_gauss=warmup)
    stream = GaussStream(probe)
    blocks = [stream.take(n).tolist() for n in sizes]
    stream.close()
    assert blocks == [
        [ref.gauss(0.0, 1.0) for _ in range(n)] for n in sizes
    ]
    _assert_state_equal(ref, probe)
    assert probe.gauss(0.0, 1.0) == ref.gauss(0.0, 1.0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("warmup", [0, 1])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 512, 4097])
def test_advance_gauss_bulk_matches_scalar_advance(seed, warmup, count):
    ref, probe = _pair(seed, warmup_gauss=warmup)
    advance_gauss(ref, count)
    advance_gauss_bulk(probe, count)
    _assert_state_equal(ref, probe)


@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_uniform_and_bits(seed):
    ref, probe = _pair(seed)
    with WordLedger(probe, chunk=32) as led:  # tiny chunk forces refills
        for i in range(500):
            if i % 3 == 0:
                assert led.getrandbits(1 + i % 32) == ref.getrandbits(
                    1 + i % 32
                )
            else:
                assert led.uniform() == ref.random()
    _assert_state_equal(ref, probe)


@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_randbelow_choice_shuffle(seed):
    ref, probe = _pair(seed)
    seq = list(range(37))
    with WordLedger(probe, chunk=64) as led:
        for n in (1, 2, 3, 7, 10, 24, 100, 1 << 20, (1 << 20) + 3):
            assert led.randbelow(n) == ref._randbelow(n)
        for _ in range(50):
            assert seq[led.choice_index(len(seq))] == ref.choice(seq)
        mine, theirs = list(range(100)), list(range(100))
        led.shuffle(mine)
        ref.shuffle(theirs)
        assert mine == theirs
        for n in (5, 60, 24):
            assert led.randrange(n) == ref.randrange(n)
    _assert_state_equal(ref, probe)


@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_variates(seed):
    ref, probe = _pair(seed)
    with WordLedger(probe, chunk=128) as led:
        for i in range(300):
            which = i % 3
            if which == 0:
                mu, sigma = math.log(250_000), 1.0
                mine = math.exp(mu + led.normalvariate_z() * sigma)
                assert mine == ref.lognormvariate(mu, sigma)
            elif which == 1:
                z = led.normalvariate_z()
                assert 3.0 + z * 1.7 == ref.normalvariate(3.0, 1.7)
            else:
                assert led.expovariate(1.0 / 2500.0) == ref.expovariate(
                    1.0 / 2500.0
                )
    _assert_state_equal(ref, probe)


@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_weighted_chooser(seed):
    from bisect import bisect

    ref, probe = _pair(seed)
    chooser = WeightedChooser(
        [f"item-{i}" for i in range(24)],
        [1.0 / (i + 1) ** 0.6 for i in range(24)],
    )
    with WordLedger(probe) as led:
        for _ in range(200):
            picked = chooser.population[
                bisect(
                    chooser.cum_weights,
                    led.uniform() * chooser.total,
                    0,
                    chooser._hi,
                )
            ]
            assert picked == chooser.choose(ref)
    _assert_state_equal(ref, probe)


@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_preserves_gauss_next(seed):
    ref, probe = _pair(seed, warmup_gauss=1)
    assert probe.gauss_next is not None
    with WordLedger(probe) as led:
        for _ in range(10):
            led.uniform()
    for _ in range(10):
        ref.random()
    _assert_state_equal(ref, probe)
    assert probe.gauss(0.0, 1.0) == ref.gauss(0.0, 1.0)


def test_ledger_interleaved_with_scalar_draws():
    # ledger → close → scalar draws → fresh ledger: one shared stream.
    ref, probe = _pair(42)
    led = WordLedger(probe, chunk=32)
    vals = [led.uniform() for _ in range(10)]
    led.close()
    assert vals == [ref.random() for _ in range(10)]
    assert probe.randrange(100) == ref.randrange(100)
    with WordLedger(probe, chunk=32) as led2:
        assert led2.uniform() == ref.random()
    _assert_state_equal(ref, probe)


def test_ledger_close_is_idempotent():
    ref, probe = _pair(5)
    led = WordLedger(probe)
    led.uniform()
    led.close()
    led.close()
    ref.random()
    _assert_state_equal(ref, probe)
