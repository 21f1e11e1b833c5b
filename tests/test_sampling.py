"""The samplers' draws: sampling._below against the random methods whose
streams it reproduces, the samplers against their random-method
references, and the size checks that run before any draw."""

import random

import pytest

from diagcat.annular import _generators, affine_identity, compose_affine
from diagcat.errors import RangeError
from diagcat.identities import Word
from diagcat.partitions import Partition
from diagcat.sampling import (
    _below,
    random_affine,
    random_cobordism,
    random_partition,
    random_spectrum,
    random_word,
)

LARGE = (2**32 - 1, 2**32, 2**32 + 1, 10**12, 2**64 + 1)


def test_below_draws_as_randrange_randint_and_choice():
    rng, reference = random.Random(11), random.Random(11)
    bits = rng.getrandbits
    for n in range(1, 3001):
        assert _below(bits, n) == reference.randrange(n)
        low = n - 1500
        assert low + _below(bits, n) == reference.randint(low, low + n - 1)
        assert range(n)[_below(bits, n)] == reference.choice(range(n))
    for n in LARGE:
        for _ in range(50):
            assert _below(bits, n) == reference.randrange(n)
            assert -n + _below(bits, n) == reference.randint(-n, -1)
    assert rng.getstate() == reference.getstate()


def test_below_rejects_an_empty_range_without_drawing():
    def bits(k):
        raise AssertionError(f"drew {k} bits")

    for n in (0, -1):
        with pytest.raises(ValueError, match="empty range"):
            _below(bits, n)


def test_random_spectrum_draws_its_genera_as_sample_does():
    for seed in range(200):
        rng, reference = random.Random(seed), random.Random(seed)
        for k in range(6):
            genera = reference.sample(range(5), k)
            counts = [reference.randint(1, 2) for _ in genera]
            assert random_spectrum(rng, k).pairs == tuple(sorted(zip(genera, counts)))
        assert rng.getstate() == reference.getstate()


def _random_partition_reference(rng, m, n):
    labels, opened = [], 0
    for _ in range(m + n):
        labels.append(rng.randrange(opened + 1))
        opened = max(opened, labels[-1] + 1)
    return Partition(m, n, tuple(labels), opened)


def _random_affine_reference(rng, n, steps=None):
    if steps is None:
        steps = rng.randint(0, 6)
    out = affine_identity(n)
    for _ in range(steps):
        out = compose_affine(out, rng.choice(_generators(n))).product
    return out


def _random_word_reference(rng, max_len=7):
    return Word(tuple(rng.choice("abc") for _ in range(rng.randint(1, max_len))))


def test_samplers_make_the_draws_of_their_random_method_references():
    for seed in range(40):
        rng, reference = random.Random(seed), random.Random(seed)
        for m in range(4):
            for n in range(4):
                assert random_partition(rng, m, n) == _random_partition_reference(reference, m, n)
        for n in range(1, 4):
            assert random_affine(rng, n) == _random_affine_reference(reference, n)
            assert random_affine(rng, n, 3) == _random_affine_reference(reference, n, 3)
        for max_len in (1, 7, 12):
            assert random_word(rng, max_len) == _random_word_reference(reference, max_len)
        assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: random_spectrum(rng, -1),
        lambda rng: random_cobordism(rng, 1, 1, spectrum_support=-1),
        lambda rng: random_affine(rng, 2, steps=-1),
        lambda rng: random_word(rng, max_len=0),
        lambda rng: random_spectrum(rng, 2.0),
        lambda rng: random_cobordism(rng, 1, 1, spectrum_support=True),
        lambda rng: random_affine(rng, 2, steps="3"),
        lambda rng: random_word(rng, max_len=2.5),
    ],
    ids=[
        "spectrum-support", "cobordism-spectrum-support", "affine-steps", "word-max-len",
        "float-support", "bool-support", "string-steps", "float-max-len",
    ],
)
def test_samplers_reject_bad_sizes_before_drawing(draw):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(RangeError):
        draw(rng)
    assert rng.getstate() == state
