import os
import random
import subprocess
import sys
from pathlib import Path

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
from diagcat.cobordisms import _merge_labels, compose_decorated
from diagcat.errors import BaseMismatch, NegativeLabel, RangeError
from diagcat.sampling import random_cobordism, random_spectrum

H = make_partition(2, 2, [[vin(1), vin(2)], [vout(1), vout(2)]])


def test_spectrum_basics():
    s = Spectrum({0: 2, 3: 1})
    assert s == Spectrum(((0, 2), (3, 1)))
    assert (s + Spectrum({0: 1})) == Spectrum({0: 3, 3: 1})
    assert s.negate() == Spectrum({0: -2, 3: -1})
    assert s.total() == 3
    assert not Spectrum({1: 0}).pairs  # zero counts are dropped


def test_spectrum_counts_and_copies():
    s = Spectrum({0: 2, 3: 1})
    assert [s.count(g) for g in (0, 1, 3)] == [2, 0, 1]
    assert Spectrum(s) == s and Spectrum(s).pairs == s.pairs


@pytest.mark.parametrize("data", [5, 2.5, None, [1], [(1, 2, 3)], "ab", b"ab", [("1", 2)]])
def test_spectrum_rejects_what_is_neither_a_mapping_nor_pairs(data):
    with pytest.raises(RangeError):
        Spectrum(data)


# Each statement runs in its own interpreter under a timeout, so that a
# membership test or iteration that never ends fails rather than hangs.
SPECTRUM_PROTOCOL = [
    ("7 in Spectrum({1: 1})", "TypeError"),
    ("list(Spectrum({1: 1}))", "TypeError"),
    ("Spectrum(Spectrum({1: 1})).count(1)", "1"),
    ("Spectrum(5)", "RangeError"),
]


@pytest.mark.parametrize("statement, outcome", SPECTRUM_PROTOCOL)
def test_spectrum_protocol_terminates(statement, outcome):
    program = (
        "from diagcat import Spectrum\n"
        "try:\n"
        f"    print({statement})\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        timeout=20,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == outcome


def test_unchecked_sums_match_the_validated_constructor():
    rng = random.Random(9)
    for _ in range(500):
        s, t = random_spectrum(rng, rng.randint(0, 5)), random_spectrum(rng, rng.randint(0, 5))
        total = s + t
        assert total.pairs == Spectrum(list(s.pairs) + list(t.pairs)).pairs
        assert not total.min_genus_negative()
        assert s.negate().pairs == Spectrum((g, -c) for g, c in s.pairs).pairs
        assert (s + s.negate()).pairs == ()
    for _ in range(500):
        m, k, n = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        regular = rng.random() < 0.5
        x = random_cobordism(rng, m, k, regular, spectrum_support=3)
        y = random_cobordism(rng, k, n, regular, spectrum_support=3)
        product, res = compose_decorated(x, y)
        _, dead = _merge_labels(x.base, res, x.genus, y.genus, 1)
        expected = Spectrum([*x.spectrum.pairs, *y.spectrum.pairs, *((d, 1) for d in dead)])
        assert product.spectrum.pairs == expected.pairs
        assert regular or not product.spectrum.min_genus_negative()


def test_compose_decorated_rejects_mixed_operand_types():
    cobordism = make_cobordism(H, (1, 2), {3: 1})
    labeled = to_labeled(cobordism)
    with pytest.raises(BaseMismatch):
        compose_decorated(labeled, cobordism)
    with pytest.raises(BaseMismatch):
        compose_decorated(cobordism, labeled)


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
