import random
import sys

import pytest

from diagcat import CATEGORIES, Deformed, cobordisms, decode, encode, partitions
from diagcat.serialize import partition_to_json
from diagcat.annular import (
    AffineDiagram,
    AnnularPartition,
    compose_affine,
    enumerate_affine,
    project_to_ann,
    sigma_affine,
)
from diagcat.cobordisms import Spectrum, compose_cobordism
from diagcat.errors import (
    CrossingError,
    NegativeLabel,
    ParseError,
    RegularityMismatch,
    UnmatchedPoint,
)
from diagcat.partitions import (
    Partition,
    block_stats,
    compose,
    enumerate_partitions,
    make_partition,
    reflect,
)


def test_decode_rejects_garbage():
    with pytest.raises(ParseError):
        decode("P", {"m": 1})
    with pytest.raises(ParseError):
        decode("nope", {})
    with pytest.raises(ParseError):
        decode("aTLe", {"m": 1, "n": 1, "partners": [{"from": {}}]})
    for name in CATEGORIES:
        with pytest.raises(ParseError):
            decode(name, [])


def test_encode_rejects_an_unknown_category():
    with pytest.raises(ParseError, match="unknown category 'nope'"):
        encode("nope", make_partition(0, 0, []))


def _cup(index=1, offset=0):
    """A [1] ~> [1] object that every category decodes: one block
    {in1 out1} for the partition families, in1 partnered with out1 for
    the affine ones.  index and offset replace the index of in1 and its
    partner offset."""
    partners = [
        {
            "from": {"side": "in", "index": index},
            "to": {"offset": offset, "side": "out", "index": 1},
        },
        {
            "from": {"side": "out", "index": 1},
            "to": {"offset": 0, "side": "in", "index": 1},
        },
    ]
    blocks = [[{"side": "in", "index": index}, {"side": "out", "index": 1}]]
    genus = {"in1": 0}
    return {"m": 1, "n": 1, "blocks": blocks, "partners": partners, "genus": genus, "k": 0}


@pytest.mark.parametrize(
    "name, field, value, match",
    [
        ("Cob", "genus", {}, "no genus for block anchored at in1"),
        ("Cob", "genus", {"in1": 0, "out7": 1}, "genus for unknown anchors"),
        ("aTLe", "partners", None, "bad affine object: 'partners'"),
        ("aTLe", "partners", [{"from": {"side": "in", "index": 1}}], "bad affine object: 'to'"),
    ],
    ids=["genus-missing-anchor", "genus-unknown-anchor", "no-partners", "partner-without-to"],
)
def test_decode_rejects_missing_and_unknown_fields(name, field, value, match):
    """value None drops the field."""
    obj = {k: v for k, v in _cup().items() if k != field}
    if value is not None:
        obj[field] = value
    with pytest.raises(ParseError, match=match):
        decode(name, obj)


@pytest.mark.parametrize("index", [1.9, 1.0, True, "1", None])
@pytest.mark.parametrize("name", ["P", "Pd", "Cob", "Ann", "aTLe", "aTL", "aTLd"])
def test_partition_decoders_reject_non_integer_indices(name, index):
    decode(name, _cup())
    with pytest.raises(ParseError):
        decode(name, _cup(index=index))


@pytest.mark.parametrize("value", [2.7, 1.0, True, "2", None])
@pytest.mark.parametrize(
    "name, field",
    [
        ("P", "m"),
        ("P", "n"),
        ("aTLe", "m"),
        ("aTLe", "offset"),
        ("Pd", "shift"),
        ("Cob0", "genus"),
        ("Cob", "spectrum"),
        ("aTL", "k"),
        ("aTLd", "k"),
        ("aTLd", "k0"),
        ("Annd", "k"),
    ],
)
def test_decoders_reject_non_integer_scalar_fields(name, field, value):
    obj = _cup()
    if field == "offset":
        obj = _cup(offset=value)
    elif field == "genus":
        obj["genus"] = {"in1": value}
    elif field == "spectrum":
        obj["spectrum"] = {"2": value}
    else:
        obj[field] = value
    with pytest.raises(ParseError):
        decode(name, obj)


@pytest.mark.parametrize("name", ["aTL", "aTLd", "Annd", "Pd", "Cob0-bar", "Cob"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_regular_must_be_a_boolean(name, value):
    with pytest.raises(ParseError):
        decode(name, {**_cup(), "regular": value})


@pytest.mark.parametrize("name", ["Pd", "Pd-bar", "Cob0", "Cob0-bar", "Cob", "Cob-bar"])
def test_regular_must_match_the_category_name(name):
    regular = name.endswith("-bar")
    assert decode(name, _cup()).regular is regular
    assert decode(name, {**_cup(), "regular": regular}).regular is regular
    with pytest.raises(ParseError):
        decode(name, {**_cup(), "regular": not regular})


@pytest.mark.parametrize("name", ["aTL", "aTLd", "Annd"])
def test_regular_defaults_to_false_where_the_name_leaves_it_open(name):
    assert decode(name, _cup()).regular is False
    assert decode(name, {**_cup(), "regular": True}).regular is True


@pytest.mark.parametrize("name", ["P", "aTLe", "Ann"])
def test_regular_is_true_where_the_star_is_total(name):
    assert decode(name, {**_cup(), "regular": True}) == decode(name, _cup())
    with pytest.raises(ParseError):
        decode(name, {**_cup(), "regular": False})


GENUS_KEYS = ["in01", "in0", "in\u0661", "in 1", " in1", "in1 ", "IN1", "in+1", "1", 1]
SPECTRUM_KEYS = ["2_0", " 3 ", "03", "-0", "+3", "3.0", "1e1", "\u0663", "", 3]
FIELDS = [("Cob0", "genus"), ("Cob-bar", "genus"), ("Cob", "spectrum"), ("Cob-bar", "spectrum")]


@pytest.mark.parametrize(
    "name, field, value",
    [(name, field, value) for name, field in FIELDS for value in ([1], '{"in1": 0}', 0, None)]
    + [("Cob0", "genus", {key: 0}) for key in GENUS_KEYS]
    + [("Cob-bar", "spectrum", {key: 1}) for key in SPECTRUM_KEYS],
)
def test_genus_and_spectrum_must_be_objects_with_canonical_keys(name, field, value):
    with pytest.raises(ParseError):
        decode(name, {**_cup(), field: value})


def test_canonical_keys_decode_and_others_cannot_override_them():
    blocks = [[{"side": "in", "index": 1}], [{"side": "out", "index": 1}]]
    split = {"m": 1, "n": 1, "blocks": blocks, "genus": {"in1": 0, "out1": 1}}
    assert decode("Cob0", split).genus == (0, 1)
    with pytest.raises(ParseError):
        decode("Cob0", {**split, "genus": {"in1": 0, "out1": 1, "in01": 5}})
    x = decode("Cob-bar", {**_cup(), "spectrum": {"0": 1, "-2": 1, "13": 2}})
    assert x.spectrum == Spectrum({0: 1, -2: 1, 13: 2})


@pytest.mark.parametrize("side", ["up", "IN", None, 0])
@pytest.mark.parametrize("end", ["from", "to"])
@pytest.mark.parametrize("name", ["aTLe", "aTL", "aTLd"])
def test_affine_decoders_reject_unknown_sides(name, end, side):
    obj = _cup()
    obj["partners"][0][end]["side"] = side
    with pytest.raises(ParseError):
        decode(name, obj)


def test_non_regular_deformed_shadows_have_non_negative_counters():
    assert decode("Annd", {**_cup(), "k": -1, "regular": True}).counts == (-1,)
    with pytest.raises(NegativeLabel):
        decode("Annd", {**_cup(), "k": -1})


def _matchings(points):
    """Every perfect matching of the points, as a list of pairs."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, other in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1 :]):
            yield [(first, other)] + tail


# Every shape with up to six points and the square shape with eight, whose
# 105 pair partitions hold 40 shadows; the other eight-point shapes would
# double the test's time.
SHADOW_SHAPES = [(m, total - m) for total in (0, 2, 4, 6) for m in range(total + 1)] + [(4, 4)]


def test_shadow_decoders_accept_exactly_the_shadows_of_affine_diagrams():
    for m, n in SHADOW_SHAPES:
        shadows = {project_to_ann(d).base for d in enumerate_affine(m, n, 1)}
        points = [("in", i) for i in range(1, m + 1)] + [("out", j) for j in range(1, n + 1)]
        for pairs in _matchings(points):
            p = make_partition(m, n, pairs)
            for name in ("Ann", "Annd"):
                if p in shadows:
                    assert _bare(decode(name, partition_to_json(p))) == p
                else:
                    with pytest.raises(CrossingError):
                        decode(name, partition_to_json(p))


def test_annular_rows_take_values_of_any_shape():
    """square only chooses the shapes the rows sample: each annular row
    decodes, round-trips and composes a [0] ~> [2] cup."""
    cup = make_partition(0, 2, [[("out", 1), ("out", 2)]])
    affine_cup = {"m": 0, "n": 2, "partners": [
        {"from": {"side": "out", "index": 1}, "to": {"offset": 0, "side": "out", "index": 2}},
        {"from": {"side": "out", "index": 2}, "to": {"offset": 0, "side": "out", "index": 1}},
    ]}
    rows = [name for name, row in CATEGORIES.items() if row.square]
    assert rows == ["aTLe", "aTL", "aTLd", "Ann", "Annd"]
    for name in rows:
        row = CATEGORIES[name]
        x = decode(name, partition_to_json(cup) if name.startswith("Ann") else affine_cup)
        bare = _bare(x)
        assert (project_to_ann(bare).base if isinstance(bare, AffineDiagram) else bare) == cup
        assert decode(name, encode(name, x)) == x
        product = row.compose(x, row.sigma(x))[0]
        assert (_bare(product).m, _bare(product).n) == (0, 0), name


@pytest.mark.parametrize("name", ["Ann", "Annd"])
def test_shadow_decoders_need_two_point_blocks(name):
    for m, n in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 1)]:
        for p in enumerate_partitions(m, n):
            if any(len(b) != 2 for b in p.blocks):
                with pytest.raises(UnmatchedPoint):
                    decode(name, partition_to_json(p))


# The per-family code that the counter rows (Pd, aTL, aTLd, Annd) replaced,
# kept as oracles for them.


def _compose_counters(x, y):
    """A deformed partition's shift gains the dead blocks, a deformed
    shadow's count the dead blocks of the shadow composition, an affine
    value's k the wrapping circles and its k0 the contractible ones."""
    if isinstance(x.base, Partition):
        res = compose(x.base, y.base)
        return Deformed(res.product, (x.counts[0] + y.counts[0] + res.b,), x.regular)
    if isinstance(x.base, AnnularPartition):
        res = compose(x.base.base, y.base.base)
        return Deformed(
            AnnularPartition(res.product), (x.counts[0] + y.counts[0] + res.b,), x.regular
        )
    res = compose_affine(x.base, y.base)
    if res.product.rank > 0:
        assert res.bw == 0 and x.counts[0] == 0 and y.counts[0] == 0
    k = x.counts[0] + y.counts[0] + res.bw
    if len(x.counts) == 2:
        return Deformed(res.product, (k, x.counts[1] + y.counts[1] + res.b0), x.regular)
    return Deformed(res.product, (k,), x.regular)


def _star_deformed(x):
    """(a, s)* = (a*, -s - rb(a) - lb(a))."""
    stats = block_stats(x.base)
    return Deformed(reflect(x.base), (-x.counts[0] - stats.rb - stats.lb,), True)


def _star_decorated(x):
    """Reflect, then replace each counter c with -c minus the circles (dead
    blocks, for a shadow) that x x' and x' x make, x' being the reflection."""
    if isinstance(x.base, AnnularPartition):
        a, s = x.base.base, reflect(x.base.base)
        fwd, bwd = compose(a, s), compose(s, a)
        return Deformed(AnnularPartition(s), (-x.counts[0] - fwd.b - bwd.b,), True)
    s = sigma_affine(x.base)
    fwd, bwd = compose_affine(x.base, s), compose_affine(s, x.base)
    counts = (-x.counts[0] - fwd.bw - bwd.bw, -x.counts[-1] - fwd.b0 - bwd.b0)
    return Deformed(s, counts[: len(x.counts)], True)


def _product(compose_with_diagnostics):
    return lambda x, y: compose_with_diagnostics(x, y)[0]


PUBLIC_COMPOSE = {
    "P": lambda x, y: compose(x, y).product,
    "Pd": _compose_counters,
    "Pd-bar": _compose_counters,
    "Cob0": _product(cobordisms.compose_decorated),
    "Cob0-bar": _product(cobordisms.compose_decorated),
    "Cob": compose_cobordism,
    "Cob-bar": compose_cobordism,
    "aTLe": lambda x, y: compose_affine(x, y).product,
    "aTL": _compose_counters,
    "aTLd": _compose_counters,
    "Ann": lambda x, y: AnnularPartition(compose(x.base, y.base).product),
    "Annd": _compose_counters,
}


def _bare(x):
    """The partition or affine diagram under a value of any family."""
    while not isinstance(x, (Partition, AffineDiagram)):
        x = x.base
    return x


def _base_compositions(fn, *args):
    """fn(*args) and the number of calls it made into partitions.compose
    and compose_affine, however the caller holds them."""
    codes = {compose.__code__, compose_affine.__code__}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(previous)
    return out, calls


def clear_memos():
    for memo in partitions._MEMOS.values():
        memo.cache_clear()


def test_compose_through_category_table():
    rng = random.Random(9)
    assert set(PUBLIC_COMPOSE) == set(CATEGORIES)
    for name, cat in CATEGORIES.items():
        for _ in range(20):
            l, m, n = [rng.randint(1, 3)] * 3 if cat.square else [rng.randint(0, 3) for _ in "lmn"]
            regular = rng.choice(cat.regularities)
            x = cat.sample(rng, l, m, regular)
            y = cat.sample(rng, m, n, regular)
            clear_memos()
            (product, diag), calls = _base_compositions(cat.compose, x, y)
            assert calls == 1, name
            # A repeated small call is served by the row's memo, with a
            # diagnostics dict of its own.
            (again, fresh), calls = _base_compositions(cat.compose, x, y)
            assert calls == 0, name
            assert again == product and fresh == diag and fresh is not diag
            bx, by = _bare(x), _bare(y)
            if isinstance(bx, Partition):
                assert diag == {"dead_blocks": compose(bx, by).b}
            else:
                res = compose_affine(bx, by)
                assert diag == {"b0": res.b0, "bw": res.bw}
            assert product == PUBLIC_COMPOSE[name](x, y)
            assert decode(name, encode(name, product)) == product
        # Operands of ten points pass the memo by.
        regular = cat.regularities[-1]
        x, y = cat.sample(rng, 5, 5, regular), cat.sample(rng, 5, 5, regular)
        cat.compose(x, y)
        assert _base_compositions(cat.compose, x, y)[1] == 1, name


PARTITIONS = [
    p for total in range(7) for m in range(total + 1) for p in enumerate_partitions(m, total - m)
]
AFFINE = [
    d for total in (0, 2, 4, 6) for m in range(total + 1) for d in enumerate_affine(m, total - m, 2)
]


def _counter_values(rng, name, bases):
    """One regular value of the row over each base, its counters drawn from
    -3..3; a wrap count k stays 0 at positive rank."""
    out = []
    for base in bases:
        wraps = name.startswith("aTL") and base.rank > 0
        width = 2 if name == "aTLd" else 1
        counts = tuple(0 if wraps and i == 0 else rng.randint(-3, 3) for i in range(width))
        out.append(Deformed(base, counts, True))
    return out


@pytest.mark.parametrize("name", ["Pd-bar", "aTL", "aTLd", "Annd"])
def test_counter_rows_match_the_per_family_code(name):
    """Over every partition (Pd) or every affine diagram or shadow of
    offsets up to 2 (the others) on at most six points: the star of each
    value, and its product with five drawn composable values (Pd) or with
    every composable one (the others)."""
    row = CATEGORIES[name]
    rng = random.Random(name)
    if name == "Pd-bar":
        bases = PARTITIONS
    elif name == "Annd":
        bases = list(dict.fromkeys(project_to_ann(d) for d in AFFINE))
    else:
        bases = AFFINE
    oracle_star = _star_deformed if name == "Pd-bar" else _star_decorated
    values = _counter_values(rng, name, bases)
    by_top = {}
    for y in values:
        by_top.setdefault(_bare(y).m, []).append(y)
    for x in values:
        assert row.star(x) == oracle_star(x)
        partners = by_top.get(_bare(x).n, [])
        if name == "Pd-bar":
            partners = rng.sample(partners, min(5, len(partners)))
        for y in partners:
            assert row.compose(x, y)[0] == _compose_counters(x, y)


@pytest.mark.parametrize("name", ["aTL", "aTLd", "Annd"])
def test_counter_rows_do_not_mix_regularities(name):
    row = CATEGORIES[name]
    x = row.decode(_cup())
    with pytest.raises(RegularityMismatch):
        row.compose(x, x._replace(regular=True))
