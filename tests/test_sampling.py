"""Unit tests for the compiled weighted choosers in ``repro.sampling``:
edge cases the capture equivalence tests never isolate (single-element
populations, float boundary probes, invalid weights) and the packed
index chooser's bit-identity with the boxed one."""

import random

import pytest

from repro.sampling import IndexedWeightedChooser, WeightedChooser


class _FixedRandom(random.Random):
    """A Random whose ``random()`` replays a fixed value sequence."""

    def __init__(self, values):
        super().__init__(0)
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


class TestWeightedChooserEdges:
    def test_single_element_population(self):
        chooser = WeightedChooser(["only"], [0.25])
        rng = random.Random(3)
        assert [chooser.choose(rng) for _ in range(50)] == ["only"] * 50
        # Each draw still consumes exactly one random() — the chooser
        # must stay stream-compatible with rng.choices.
        a, b = random.Random(9), random.Random(9)
        chooser.choose(a)
        b.random()
        assert a.getstate() == b.getstate()

    def test_float_last_bucket_boundary(self):
        # The largest double below 1.0 pushes the probe right up
        # against (and, after the multiply rounds, possibly onto) the
        # last cumulative weight.  The hi = len - 1 clamp must return
        # the last element rather than fall off the population — the
        # same clamp random.choices carries for the same reason.
        population = ["a", "b", "c"]
        weights = [0.1, 0.2, 0.7]
        probe = 1.0 - 2 ** -53
        chooser = WeightedChooser(population, weights)
        assert chooser.choose(_FixedRandom([probe])) == "c"
        expected = _FixedRandom([probe]).choices(
            population, weights=weights, k=1
        )[0]
        assert chooser.choose(_FixedRandom([probe])) == expected

    def test_boundary_probes_match_choices_everywhere(self):
        population = list("abcde")
        weights = [0.3, 0.0, 0.1, 0.35, 0.25]
        chooser = WeightedChooser(population, weights)
        cums = list(chooser.cum_weights)
        probes = [0.0, 1.0 - 2 ** -53]
        for cum in cums:
            fraction = cum / chooser.total
            for value in (fraction, fraction - 2 ** -53):
                if 0.0 <= value < 1.0:
                    probes.append(value)
        for probe in probes:
            assert chooser.choose(_FixedRandom([probe])) == _FixedRandom(
                [probe]
            ).choices(population, weights=weights, k=1)[0]

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            WeightedChooser([], [])
        with pytest.raises(ValueError):
            WeightedChooser(["a"], [0.0])
        with pytest.raises(ValueError):
            WeightedChooser(["a", "b"], [1.0])


class TestIndexedWeightedChooser:
    def test_bit_identical_to_weighted_chooser(self):
        weights = [1.0 / (i + 1) ** 0.6 for i in range(500)]
        boxed = WeightedChooser(list(range(500)), weights)
        packed = IndexedWeightedChooser(iter(weights))
        a, b = random.Random(11), random.Random(11)
        for _ in range(2000):
            assert packed.choose(a) == boxed.choose(b)

    def test_single_element_and_boundary(self):
        solo = IndexedWeightedChooser([2.5])
        assert solo.choose(random.Random(1)) == 0
        multi = IndexedWeightedChooser([0.5, 0.5])
        assert multi.choose(_FixedRandom([1.0 - 2 ** -53])) == 1

    def test_generator_input_and_len(self):
        chooser = IndexedWeightedChooser(w for w in (1.0, 2.0, 3.0))
        assert len(chooser) == 3

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            IndexedWeightedChooser(iter(()))
        with pytest.raises(ValueError):
            IndexedWeightedChooser([0.0, 0.0])

