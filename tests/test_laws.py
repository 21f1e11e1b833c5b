"""The laws of every row of the category table, for each regularity it
admits, through the suite's law functions: associativity, sigma and rho
(involutive, product-reversing, commuting with the quotient maps) and the
star (involutive, both sandwich laws, NotRegular on non-regular values);
then the codec round trip, and each quotient map being a homomorphism."""

import functools
import random

import pytest

from diagcat import CATEGORIES, decode, encode
from diagcat.errors import NotRegular
from diagcat.partitions import MAX_PARTITION_VERTICES
from diagcat.suite import _check_associative, _check_involution, _check_star, _mul

SAMPLES = 200
# Triples past the bounded memos: every value has at least 2 * LARGE points.
LARGE_SAMPLES = 20
LARGE = MAX_PARTITION_VERTICES // 2 + 1

CASES = [
    pytest.param(name, regular, id=f"{name}-{'regular' if regular else 'nonregular'}")
    for name, cat in CATEGORIES.items()
    for regular in cat.regularities
]

QUOTIENTS = [
    pytest.param(name, target, id=f"{name}-to-{target}")
    for name, cat in CATEGORIES.items()
    for target in cat.quotients
]


@functools.cache
def _triples(name, regular):
    """Composable triples x, y, z of widths 0-3, or one width 1-3 if square,
    then LARGE_SAMPLES more of widths LARGE to LARGE + 1, whose compositions
    and mirrors bypass the bounded memos; drawn once and shared by every
    law of the row."""
    cat = CATEGORIES[name]
    rng = random.Random(f"{name}/{regular}")
    triples = []
    for lo, hi, count in ((0, 3, SAMPLES), (LARGE, LARGE + 1, LARGE_SAMPLES)):
        for _ in range(count):
            if cat.square:
                widths = [rng.randint(max(lo, 1), hi)] * 4
            else:
                widths = [rng.randint(lo, hi) for _ in range(4)]
            triples.append(
                tuple(cat.sample(rng, m, n, regular) for m, n in zip(widths, widths[1:]))
            )
    return tuple(triples)


def test_every_family_has_cases():
    assert {case.values[0] for case in CASES} == set(CATEGORIES)
    assert {case.values[1] for case in QUOTIENTS} <= set(CATEGORIES)


@pytest.mark.parametrize("name, regular", CASES)
def test_associativity(name, regular):
    cat = CATEGORIES[name]
    for x, y, z in _triples(name, regular):
        _check_associative(cat, x, y, z)


@pytest.mark.parametrize("involution", ["sigma", "rho"])
@pytest.mark.parametrize("name, regular", CASES)
def test_involution(name, regular, involution):
    cat = CATEGORIES[name]
    for x, y, _ in _triples(name, regular):
        _check_involution(cat, involution, x, y, _mul(cat, x, y))


@pytest.mark.parametrize("name, regular", CASES)
def test_star(name, regular):
    cat = CATEGORIES[name]
    for x, _, _ in _triples(name, regular):
        if regular:
            _check_star(cat, x)
        else:
            with pytest.raises(NotRegular):
                cat.star(x)


@pytest.mark.parametrize("name, regular", CASES)
def test_codec_round_trip(name, regular):
    for x, _, _ in _triples(name, regular):
        assert decode(name, encode(name, x)) == x


@pytest.mark.parametrize("name, target", QUOTIENTS)
def test_quotient(name, target):
    cat, image = CATEGORIES[name], CATEGORIES[target]
    q = cat.quotients[target]
    for regular in cat.regularities:
        for x, y, _ in _triples(name, regular):
            assert q(_mul(cat, x, y)) == _mul(image, q(x), q(y))
