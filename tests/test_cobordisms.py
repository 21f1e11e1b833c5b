import random

import pytest

from diagcat import (
    Cobordism,
    Spectrum,
    compose_cobordism,
    fiber_product_oracle,
    identity_partition,
    make_cobordism,
    make_partition,
    star_cobordism,
    star_labeled,
    to_labeled,
    vin,
    vout,
)
from diagcat.cobordisms import compose_decorated
from diagcat.errors import BaseMismatch, NegativeLabel, RangeError
from diagcat.sampling import random_cobordism

H = make_partition(2, 2, [[vin(1), vin(2)], [vout(1), vout(2)]])


def test_spectrum_basics():
    s = Spectrum({0: 2, 3: 1})
    assert s == Spectrum(((0, 2), (3, 1)))
    assert (s + Spectrum({0: 1})) == Spectrum({0: 3, 3: 1})
    assert s.negate() == Spectrum({0: -2, 3: -1})
    assert s.total() == 3
    assert not Spectrum({1: 0}).pairs  # zero counts are dropped


def test_make_cobordism_validates():
    with pytest.raises(BaseMismatch):
        make_cobordism(H, (1,), (), True)
    with pytest.raises(NegativeLabel):
        make_cobordism(H, (-1, 0), (), False)
    with pytest.raises(NegativeLabel):
        make_cobordism(H, (0, 0), {1: -1}, False)
    # the regular tower allows both
    make_cobordism(H, (-1, 0), {1: -1}, True)


E = identity_partition(1)


@pytest.mark.parametrize("genus, spectrum", [
    ((1.9,), ()),
    ((True,), ()),
    (("2",), ()),
    ((None,), ()),
    ((0,), {1.5: 1}),
    ((0,), {1: 2.5}),
    ((0,), {"1": 1}),
    ((0,), {True: 1}),
    ((0,), {1: True}),
    ((0,), [(1, 0.0)]),
])
def test_make_cobordism_rejects_non_integer_labels(genus, spectrum):
    assert make_cobordism(E, (1,), {1: 1}).genus == (1,)
    with pytest.raises(RangeError, match="is not an integer"):
        make_cobordism(E, genus, spectrum)


@pytest.mark.parametrize("genus", [{E.blocks[0]: 1}, {E.blocks[0]: 1.5}, {0: 1}, {}])
def test_make_cobordism_rejects_a_genus_mapping(genus):
    with pytest.raises(RangeError, match="not a mapping"):
        make_cobordism(E, genus)


def test_compose_merges_labels_and_spectra():
    x = make_cobordism(H, (1, 2), (), True)
    assert compose_cobordism(x, x) == Cobordism(H, (1, 2), Spectrum({4: 1}), True)


def test_star_cobordism_frozen_value():
    x = make_cobordism(H, (1, 2), (), True)
    assert star_cobordism(x) == Cobordism(H, (-2, -1), Spectrum({1: -2}), True)


def test_labeled_star_reverses_products():
    rng = random.Random(3)
    for _ in range(300):
        m, k, n = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        x = to_labeled(random_cobordism(rng, m, k, regular=True))
        y = to_labeled(random_cobordism(rng, k, n, regular=True))
        assert star_labeled(compose_decorated(x, y)[0]) == compose_decorated(
            star_labeled(y), star_labeled(x)
        )[0]


def test_fiber_oracle_matches_iteration():
    e = identity_partition(1)
    rng = random.Random(5)
    for _ in range(200):
        xs = [
            make_cobordism(e, (rng.randint(0, 3),), {0: rng.randint(0, 2)}, False)
            for _ in range(rng.randint(1, 5))
        ]
        direct = xs[0]
        for x in xs[1:]:
            direct = compose_cobordism(direct, x)
        assert fiber_product_oracle(e, xs) == direct


def test_fiber_oracle_on_rank_zero_base():
    e = make_partition(1, 1, [[vin(1)], [vout(1)]])
    xs = [make_cobordism(e, (1, 2), (), False), make_cobordism(e, (0, 1), (), False)]
    direct = compose_cobordism(xs[0], xs[1])
    assert fiber_product_oracle(e, xs) == direct
