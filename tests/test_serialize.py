import random

import pytest

from diagcat import CATEGORIES, decode, encode
from diagcat.annular import DeformedAnnular, project_to_ann
from diagcat.errors import ParseError
from diagcat.sampling import (
    random_affine,
    random_cobordism,
    random_deformed,
    random_pair,
    random_partition,
    random_triple,
)


def _sample(rng, name):
    m, n = rng.randint(0, 3), rng.randint(0, 3)
    w = rng.randint(1, 3)
    if name == "P":
        return random_partition(rng, m, n)
    if name in ("Pd", "Pd-bar"):
        return random_deformed(rng, m, n, regular=name.endswith("bar"))
    if name in ("Cob0", "Cob0-bar"):
        from diagcat.cobordisms import to_labeled

        return to_labeled(random_cobordism(rng, m, n, regular=name.endswith("bar")))
    if name in ("Cob", "Cob-bar"):
        return random_cobordism(rng, m, n, regular=name.endswith("bar"))
    if name == "aTLe":
        return random_affine(rng, w)
    if name == "aTL":
        return random_pair(rng, w)
    if name == "aTLd":
        return random_triple(rng, w)
    if name == "Ann":
        return project_to_ann(random_affine(rng, w))
    if name == "Annd":
        return DeformedAnnular(project_to_ann(random_affine(rng, w)), 0, False)
    raise AssertionError(name)


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_round_trip(name):
    rng = random.Random(sum(map(ord, name)))
    for _ in range(40):
        x = _sample(rng, name)
        assert decode(name, encode(name, x)) == x


def test_decode_rejects_garbage():
    with pytest.raises(ParseError):
        decode("P", {"m": 1})
    with pytest.raises(ParseError):
        decode("nope", {})
    with pytest.raises(ParseError):
        decode("aTLe", {"m": 1, "n": 1, "partners": [{"from": {}}]})


@pytest.mark.parametrize("index", [1.9, 1.0, True, "1", None])
@pytest.mark.parametrize("name", ["P", "Pd", "Cob", "Ann"])
def test_partition_decoders_reject_non_integer_indices(name, index):
    obj = {
        "m": 1,
        "n": 1,
        "blocks": [[{"side": "in", "index": index}, {"side": "out", "index": 1}]],
    }
    with pytest.raises(ParseError):
        decode(name, obj)


def test_compose_through_category_table():
    rng = random.Random(9)
    for name in ("P", "Cob", "aTLe", "Ann"):
        cat = CATEGORIES[name]
        for _ in range(20):
            x = _sample(rng, name)
            y = _sample(rng, name)
            sx = (x.m, x.n) if hasattr(x, "m") else (x.base.m, x.base.n)
            sy = (y.m, y.n) if hasattr(y, "m") else (y.base.m, y.base.n)
            if sx[1] != sy[0]:
                continue
            product, diag = cat.compose(x, y)
            assert decode(name, encode(name, product)) == product
            assert isinstance(diag, dict) and diag
