import itertools
import random
import time
from typing import NamedTuple

import pytest

from diagcat import (
    affine_identity,
    affine_power,
    build_ann_monoid,
    compose_affine,
    cup_cap,
    enumerate_affine,
    lambda_pow,
    make_affine,
    project_to_ann,
    shift_gap,
    sigma_affine,
    zeta,
)
from diagcat import annular
from diagcat.annular import (
    IN,
    OUT,
    _generators,
    rho_affine,
)
from diagcat.partitions import _ground, compose, make_partition
from diagcat.errors import (
    BoundExceeded,
    CrossingError,
    NegativeLabel,
    NotInvolutive,
    ParityError,
    ParseError,
    RangeError,
    RankZero,
    ShapeMismatch,
    UnmatchedPoint,
)
from diagcat.sampling import random_affine
from diagcat.serialize import CATEGORIES, affine_to_json


# -- the point-object code that the slot and offset tuples replaced ----------
#
# An affine diagram used to be stored as one APoint(offset, side, index) per
# window point, and composition traced strings through APoint objects.  That
# code is kept here as the oracle of the int tuples.


class APoint(NamedTuple):
    """A marked point (offset, side, index) of the doubly infinite strip."""

    offset: int
    side: int
    index: int

    def shifted(self, t: int) -> "APoint":
        return APoint(self.offset + t, self.side, self.index)

    def __repr__(self) -> str:
        return f"({self.offset},{'in' if self.side == IN else 'out'}{self.index})"


def _order_key(p: APoint):
    """Total order: bottom row in reverse lex below the whole top row."""
    if p.side == OUT:
        return (0, -p.offset, -p.index)
    return (1, p.offset, p.index)


class PointDiagram(NamedTuple):
    """A window of APoint partners, as AffineDiagram stored it."""

    m: int
    n: int
    partner: tuple

    def partner_of(self, side: int, index: int, offset: int = 0) -> APoint:
        slot = index - 1 if side == IN else self.m + index - 1
        return self.partner[slot].shifted(offset)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{APoint(0, *p)!r}->{q!r}" for p, q in zip(_ground(self.m, self.n), self.partner)
        )
        return f"AffineDiagram({self.m}->{self.n}: {body})"

    @property
    def rank(self) -> int:
        return sum(1 for p in self.partner[: self.m] if p.side == OUT)

    def strings(self):
        seen = set()
        out = []
        for (side, index), q in zip(_ground(self.m, self.n), self.partner):
            p = APoint(0, side, index)
            shift = -min(0, q.offset)
            rep = tuple(sorted((p.shifted(shift), q.shifted(shift))))
            if rep not in seen:
                seen.add(rep)
                out.append(rep)
        return out

    def to_json(self) -> dict:
        names = {IN: "in", OUT: "out"}
        return {"m": self.m, "n": self.n, "partners": [
            {
                "from": {"side": names[side], "index": index},
                "to": {"offset": q.offset, "side": names[q.side], "index": q.index},
            }
            for (side, index), q in zip(_ground(self.m, self.n), self.partner)
        ]}


def _points_of(d) -> PointDiagram:
    """The APoint window of an AffineDiagram."""
    g = _ground(d.m, d.n)
    return PointDiagram(d.m, d.n, tuple(APoint(t, *g[p]) for p, t in zip(d.partner, d.offset)))


def _from_table(m, n, table) -> PointDiagram:
    """The APoint window of a {(side, index): (offset, side, index)} table."""
    return PointDiagram(m, n, tuple(APoint(*table[s]) for s in _ground(m, n)))


def _point_zeta(n):
    tops = [APoint(0, OUT, k + 1) if k < n else APoint(1, OUT, 1) for k in range(1, n + 1)]
    bottoms = [APoint(0, IN, k - 1) if k > 1 else APoint(-1, IN, n) for k in range(1, n + 1)]
    return PointDiagram(n, n, tuple(tops) + tuple(bottoms))


def _point_lambda(n, r=1):
    return PointDiagram(n, n, tuple(APoint(r, OUT, k) for k in range(1, n + 1))
                        + tuple(APoint(-r, IN, k) for k in range(1, n + 1)))


def _point_cup_cap(n, i):
    j = i + 1 if i < n else 1
    wrap = 1 if i == n else 0
    tops = [APoint(0, OUT, k) for k in range(1, n + 1)]
    bottoms = [APoint(0, IN, k) for k in range(1, n + 1)]
    tops[i - 1] = APoint(wrap, IN, j)
    tops[j - 1] = APoint(-wrap, IN, i)
    bottoms[i - 1] = APoint(wrap, OUT, j)
    bottoms[j - 1] = APoint(-wrap, OUT, i)
    return PointDiagram(n, n, tuple(tops) + tuple(bottoms))


def _point_compose(a: PointDiagram, b: PointDiagram):
    """compose_affine on APoint windows: (product, b0, bw)."""
    visited = set()

    def follow(start_side, index):
        if start_side == IN:
            t, side, k = a.partner_of(IN, index)
            via_a = True
        else:
            t, side, k = b.partner_of(OUT, index)
            via_a = False
        for _ in range(100_000):
            if via_a:
                if side == IN:
                    return APoint(t, IN, k)
                visited.add(k)
                t, side, k = b.partner_of(IN, k, t)
                via_a = False
            else:
                if side == OUT:
                    return APoint(t, OUT, k)
                visited.add(k)
                t, side, k = a.partner_of(OUT, k, t)
                via_a = True
        raise AssertionError("string trace did not terminate")

    product = PointDiagram(a.m, b.n, tuple([follow(*v) for v in _ground(a.m, b.n)]))
    b0 = bw = 0
    assigned = set(visited)
    for k0 in range(1, a.n + 1):
        if k0 in assigned:
            continue
        t, k, parity = 0, k0, 0
        while True:
            assigned.add(k)
            if parity == 0:
                t, side, k = b.partner_of(IN, k, t)
            else:
                t, side, k = a.partner_of(OUT, k, t)
            assert side == (IN if parity == 0 else OUT)
            parity ^= 1
            if parity == 0 and k == k0:
                break
        assert abs(t) <= 1
        if t == 0:
            b0 += 1
        else:
            bw += 1
    return product, b0, bw


def _point_crossing_free(d: PointDiagram) -> bool:
    """make_affine's crossing test on an APoint window: take off the first
    through string's twist, reject any offset of 2 or more, then compare
    every pair of strings at every shift within the offset window."""
    r = next((q.offset for q in d.partner[: d.m] if q.side == OUT), 0)
    if r:
        d = PointDiagram(d.m, d.n, tuple(
            q.shifted(-r if i < d.m else r) if (i < d.m) != (q.side == IN) else q
            for i, q in enumerate(d.partner)
        ))
    window = max((abs(q.offset) for q in d.partner), default=0) + 1
    if window > 2:
        return False
    return _windowed_crossing_free(d, window)


def _windowed_crossing_free(d: PointDiagram, window: int) -> bool:
    shifted = []
    for rep in d.strings():
        for t in range(-window, window + 1):
            ka, kb = _order_key(rep[0].shifted(t)), _order_key(rep[1].shifted(t))
            shifted.append((min(ka, kb), max(ka, kb)))
    return not any(
        (x < y < x1) != (x < y1 < x1)
        for (x, x1), (y, y1) in itertools.combinations(shifted, 2)
    )


def _point_generators(w):
    """The identity, the full twist, the rotation, its reflection and the
    cup-caps at width w, as APoint windows."""
    if w == 0:
        return [_point_lambda(0, 0)]
    z = _point_zeta(w)
    return [_point_lambda(w, 0), _point_lambda(w), z, _reflect_reference(z)] + [
        _point_cup_cap(w, i) for i in range(1, w + 1) if w >= 2
    ]


def _generators_of_width(w):
    """The diagrams of _point_generators(w)."""
    return [affine_identity(w)] + ([lambda_pow(w), *_generators(w)] if w else [])


def _table_of(d) -> dict:
    """make_affine's input for d: each window point's (offset, side, index)
    partner."""
    return {v: tuple(q) for v, q in zip(_ground(d.m, d.n), _points_of(d).partner)}


def _assert_same_as_points(d, old: PointDiagram):
    assert _points_of(d) == old
    assert repr(d) == repr(old)
    assert affine_to_json(d) == old.to_json()
    assert d.rank == old.rank


def test_generators_have_expected_shapes():
    z = zeta(3)
    assert (z.m, z.n, z.rank) == (3, 3, 3)
    assert affine_identity(3) != z
    cc = cup_cap(3, 2)
    assert cc.rank == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rotation_power_is_full_shift(n):
    assert affine_power(zeta(n), n) == lambda_pow(n)


def test_affine_power_squares_its_way_to_huge_exponents():
    start = time.perf_counter()
    assert affine_power(zeta(3), 3 * 10**15) == lambda_pow(3, 10**15)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_affine_power_matches_the_iterated_product(n):
    for a in (affine_identity(n), lambda_pow(n), *_generators(n)):
        out = a
        for k in range(1, 13):
            assert affine_power(a, k) == out, (a, k)
            out = compose_affine(out, a).product


def test_full_shift_slides_across_everything():
    rng = random.Random(0)
    for _ in range(100):
        a = random_affine(rng, rng.randint(1, 3))
        assert (
            compose_affine(lambda_pow(a.m), a).product
            == compose_affine(a, lambda_pow(a.n)).product
        )


def test_make_affine_rejects_crossings():
    with pytest.raises(CrossingError):
        make_affine(2, 2, {
            (IN, 1): (0, OUT, 2), (IN, 2): (0, OUT, 1),
            (OUT, 1): (0, IN, 2), (OUT, 2): (0, IN, 1),
        })


def test_make_affine_rejects_unmatched():
    with pytest.raises(UnmatchedPoint):
        make_affine(2, 0, {(IN, 1): (0, IN, 2)})


@pytest.mark.parametrize(
    "m, n, partners, error, match",
    [
        (1, 0, {}, ParityError, "admits no perfect matching"),
        (2, 0, [((IN, 1), (0, IN, 2)), ((IN, 1), (0, IN, 2))], UnmatchedPoint, "duplicate partner"),
        (
            2, 0, {(IN, 1): (0, IN, 2), (IN, 2): (0, IN, 1), (IN, 3): (0, IN, 1)},
            UnmatchedPoint, "partners for unknown points",
        ),
        (2, 0, {(IN, 1): (0, IN, 3), (IN, 2): (0, IN, 1)}, RangeError, "out of range"),
        (2, 0, {(IN, 1): (1, IN, 1), (IN, 2): (0, IN, 1)}, NotInvolutive, "its own orbit"),
        (2, 0, {(IN, 1): (0, IN, 2), (IN, 2): (1, IN, 1)}, NotInvolutive, "not self-inverse"),
    ],
)
def test_make_affine_rejections(m, n, partners, error, match):
    with pytest.raises(error, match=match):
        make_affine(m, n, partners)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: zeta(0), RangeError, "zeta needs n >= 1"),
        (lambda: cup_cap(1, 1), RangeError, "cup_cap needs n >= 2"),
        (
            lambda: affine_power(make_affine(0, 2, {(OUT, 1): (0, OUT, 2), (OUT, 2): (0, OUT, 1)}), 2),
            ShapeMismatch, "powers need a square diagram",
        ),
        (lambda: shift_gap(zeta(2), zeta(3)), ShapeMismatch, "diagrams must share a shape"),
    ],
    ids=["zeta", "cup_cap", "affine_power", "shift_gap"],
)
def test_generators_and_powers_reject_bad_arguments(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize(
    "m, n, count", [(1, 1, 5), (2, 2, 13), (3, 3, 58), (1, 3, 15)]
)
def test_enumerate_affine_counts(m, n, count):
    diagrams = list(enumerate_affine(m, n, 2))
    assert len(diagrams) == count
    assert len(set(diagrams)) == count


def test_circle_counts_on_cup_caps():
    cc1, cc2 = cup_cap(2, 1), cup_cap(2, 2)
    r = compose_affine(cc1, cc1)
    assert r.product == cc1 and (r.b0, r.bw) == (1, 0)
    w = compose_affine(cc1, cc2)
    assert (w.b0, w.bw) == (0, 1)


def test_shift_gap_frozen_cases():
    z = zeta(2)
    assert shift_gap(z, affine_power(z, 3)) == 1
    assert shift_gap(z, sigma_affine(z)) == -1
    assert shift_gap(z, affine_identity(2)) is None


def _shift_gap_by_composition(x, y):
    """shift_gap through the shadows and one composition: x and y must have
    one shadow, and lambda^q x must be y for the q of x's first top
    through string."""
    if project_to_ann(x) != project_to_ann(y):
        return None
    q = next(y.offset[j] - x.offset[j] for j in range(x.m) if x.partner[j] >= x.m)
    return q if compose_affine(lambda_pow(x.m, q), x).product == y else None


def test_shift_gap_matches_the_composition_oracle():
    pairs = gaps = 0
    for m, n in itertools.product(range(1, 6), repeat=2):
        if (m + n) % 2 or m + n > 6:
            continue
        positive = [d for d in enumerate_affine(m, n, 2) if d.rank > 0]
        for x, y in itertools.product(positive, repeat=2):
            gap = shift_gap(x, y)
            assert gap == _shift_gap_by_composition(x, y), (x, y)
            pairs += 1
            gaps += gap is not None
    assert (pairs, gaps) == (11_512, 1_326)


def test_shift_gap_requires_positive_rank():
    wrap = compose_affine(cup_cap(2, 1), cup_cap(2, 2)).product
    with pytest.raises(RankZero):
        shift_gap(wrap, cup_cap(2, 1))


def test_shadow_collapses_exactly_the_shift():
    z = zeta(3)
    shifted = compose_affine(lambda_pow(3), z).product
    assert shifted != z
    assert project_to_ann(shifted) == project_to_ann(z)


def test_pair_wrap_counter():
    row = CATEGORIES["aTL"]
    wrap = compose_affine(cup_cap(2, 1), cup_cap(2, 2)).product
    p = row.decode({**affine_to_json(wrap), "k": 2})
    q = row.compose(p, p)[0]
    assert q.counts == (5,)  # 2 + 2 + one new wrap circle
    with pytest.raises(RangeError):
        row.decode({**affine_to_json(zeta(2)), "k": 1})  # positive rank forces k = 0
    with pytest.raises(NegativeLabel):
        row.decode({**affine_to_json(wrap), "k": -1})  # negative count needs the regular tower


@pytest.mark.parametrize("count", [1.5, True, "1", None])
def test_circle_counts_must_be_integers(count):
    wrap = affine_to_json(compose_affine(cup_cap(2, 1), cup_cap(2, 2)).product)
    for name, field in (("aTL", "k"), ("aTLd", "k"), ("aTLd", "k0")):
        with pytest.raises(ParseError, match="must be an integer"):
            CATEGORIES[name].decode({**wrap, field: count})


def test_triple_counts_contractible_circles():
    row = CATEGORIES["aTLd"]
    cc = cup_cap(2, 1)
    t = row.decode(affine_to_json(cc))
    r = row.compose(t, t)[0]
    assert r.counts == (0, 1) and r.base == cc


def test_enumeration_and_closure_bounds(monkeypatch):
    with pytest.raises(BoundExceeded, match="window of 12 points exceeds bound 10"):
        next(enumerate_affine(6, 6, 1))
    monkeypatch.setattr(annular, "MAX_ANN_ELEMENTS", 12)
    assert build_ann_monoid(3).monoid.size == 12
    monkeypatch.setattr(annular, "MAX_ANN_ELEMENTS", 11)
    with pytest.raises(BoundExceeded, match="closure exceeded 11 elements"):
        build_ann_monoid(3)


def test_closure_bound_checks_the_generators_before_building_them(monkeypatch):
    monkeypatch.setattr(annular, "MAX_ANN_ELEMENTS", 5)
    monkeypatch.setattr(annular, "_generators", None)  # building one would fail
    with pytest.raises(BoundExceeded, match="closure exceeded 5 elements"):
        build_ann_monoid(3)


def _two_cup_count(n):
    """The n + 3 generator shadows and the shadows of the products of two
    cup-caps at positions not cyclically adjacent, counted as a set."""
    shadows = {project_to_ann(g) for g in (affine_identity(n), *_generators(n))}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if j - i not in (1, n - 1):
            shadows.add(project_to_ann(compose_affine(cup_cap(n, i), cup_cap(n, j)).product))
    return len(shadows)


@pytest.mark.parametrize("n", range(3, 11))
def test_closure_bound_counts_distinct_two_cup_products(n):
    assert _two_cup_count(n) == n + 3 + n * (n - 3) // 2


@pytest.mark.parametrize("n", range(3, 11))
def test_closure_bound_fires_exactly_at_the_counted_elements(monkeypatch, n):
    count = n + 3 + n * (n - 3) // 2
    monkeypatch.setattr(annular, "_generators", None)  # building one would fail
    monkeypatch.setattr(annular, "MAX_ANN_ELEMENTS", count - 1)
    with pytest.raises(BoundExceeded, match=f"closure exceeded {count - 1} elements"):
        build_ann_monoid(n)
    monkeypatch.setattr(annular, "MAX_ANN_ELEMENTS", count)
    with pytest.raises(TypeError):  # past the guard, on to the generators
        build_ann_monoid(n)


def test_closure_sizes_up_to_width_six():
    sizes = [build_ann_monoid(n).monoid.size for n in range(7)]
    assert sizes == [1, 1, 3, 12, 40, 180, 625]


def test_ann3_monoid_structure():
    annm = build_ann_monoid(3)
    fm = annm.monoid
    assert fm.size == 12
    assert len(fm.units()) == 3
    assert sum(fm.table[i][i] == i for i in range(fm.size)) == 10
    band = [i for i, e in enumerate(annm.elements) if e.rank == 1]
    assert len(band) == 9
    assert all(fm.table[i][i] == i for i in band)


def test_rank_one_idempotent_census():
    idems = [
        d
        for d in enumerate_affine(3, 3, 2)
        if d.rank == 1 and compose_affine(d, d).product == d
    ]
    assert len(idems) == 9


@pytest.mark.parametrize("bad", [1.9, 1.0, True, "1", None])
@pytest.mark.parametrize("position", ["index", "offset", "pindex"])
def test_make_affine_rejects_non_integer_numbers(position, bad):
    def build(index=1, offset=0, pindex=1):
        return make_affine(1, 1, {("in", index): (offset, "out", pindex), ("out", 1): (0, "in", 1)})

    assert build() == affine_identity(1)
    with pytest.raises(RangeError):
        build(**{position: bad})


@pytest.mark.parametrize("bad", [False, True, ["in"]])
@pytest.mark.parametrize("position", ["side", "pside"])
def test_make_affine_rejects_boolean_and_unhashable_sides(position, bad):
    def build(side="in", pside="out"):
        return make_affine(1, 1, [((side, 1), (0, pside, 1)), (("out", 1), (0, "in", 1))])

    assert build() == affine_identity(1)
    with pytest.raises(RangeError):
        build(**{position: bad})


def _candidate_tables(m, n, max_offset):
    """Every involutive partner table on the window: each matching of the
    window points with each choice of offsets within max_offset."""
    slots = _ground(m, n)
    offsets = range(-max_offset, max_offset + 1)

    def rec(table):
        free = [s for s in slots if s not in table]
        if not free:
            yield dict(table)
            return
        p = free[0]
        for q in free[1:]:
            for t in offsets:
                table[p] = (t, q[0], q[1])
                table[q] = (-t, p[0], p[1])
                yield from rec(table)
                del table[p], table[q]

    yield from rec({})


def _enumerate_affine_reference(m, n, max_offset):
    """enumerate_affine before branch pruning: every candidate table
    filtered through make_affine."""
    for table in _candidate_tables(m, n, max_offset):
        try:
            yield make_affine(m, n, table)
        except CrossingError:
            pass


# The reference sends every candidate through make_affine, which makes it
# too slow to run on every shape at every offset bound in the tests: with
# eight points and offsets up to 2 there are 590 625 candidates.  Shapes
# with up to four points run at offsets up to 2, six points at offsets up
# to 1 and, for the square shape, 2, and eight points at offset 0.
ENUMERATIONS = (
    [(m, total - m, 2) for total in (0, 2, 4) for m in range(total + 1)]
    + [(m, 6 - m, 2 if m == 3 else 1) for m in range(7)]
    + [(m, 8 - m, 0) for m in range(9)]
)


@pytest.mark.parametrize("m, n, max_offset", ENUMERATIONS)
def test_enumerate_affine_matches_the_unpruned_filter(m, n, max_offset):
    reference = list(_enumerate_affine_reference(m, n, max_offset))
    assert list(enumerate_affine(m, n, max_offset)) == reference
    # Offsets run in increasing order, so a smaller bound keeps the order.
    for k in range(max_offset):
        kept = [d for d in reference if all(abs(t) <= k for t in d.offset)]
        assert list(enumerate_affine(m, n, k)) == kept


def _reflect_reference(x: PointDiagram) -> PointDiagram:
    """sigma_affine on an APoint window: swap the halves, flip the rows."""
    flip = {IN: OUT, OUT: IN}
    new = [
        APoint(q.offset, flip[q.side], q.index)
        for q in x.partner[x.m :] + x.partner[: x.m]
    ]
    return PointDiagram(x.n, x.m, tuple(new))


def _rotate_reference(x: PointDiagram) -> PointDiagram:
    """rho_affine on an APoint window, point by point."""
    new = []
    # New top row has x.n indices; new top (0, k) is the image of the
    # old bottom point (0, n + 1 - k), and so on.
    for k in range(1, x.n + 1):
        q = x.partner_of(OUT, x.n + 1 - k)
        if q.side == IN:
            new.append(APoint(-q.offset, OUT, x.m + 1 - q.index))
        else:
            new.append(APoint(-q.offset, IN, x.n + 1 - q.index))
    for k in range(1, x.m + 1):
        q = x.partner_of(IN, x.m + 1 - k)
        if q.side == IN:
            new.append(APoint(-q.offset, OUT, x.m + 1 - q.index))
        else:
            new.append(APoint(-q.offset, IN, x.n + 1 - q.index))
    return PointDiagram(x.n, x.m, tuple(new))


def test_affine_mirrors_match_the_reference_loops():
    checked = 0
    for total in range(0, 9, 2):
        for m in range(total + 1):
            for d in enumerate_affine(m, total - m, 2):
                old = _points_of(d)
                assert _points_of(sigma_affine(d)) == _reflect_reference(old), d
                assert _points_of(rho_affine(d)) == _rotate_reference(old), d
                checked += 1
    assert checked == 1826


def _generator_shadows(n):
    """The shadows of the identity, the rotation, its reflection and the
    cup-caps at width n, in that order, each once."""
    gens = [project_to_ann(affine_identity(n))]
    if n >= 1:
        gens += [project_to_ann(zeta(n)), project_to_ann(sigma_affine(zeta(n)))]
    if n >= 2:
        gens += [project_to_ann(cup_cap(n, i)) for i in range(1, n + 1)]
    return list(dict.fromkeys(gens))


def _shadow_product(x, y):
    return annular.AnnularPartition(compose(x.base, y.base).product)


def _build_ann_monoid_reference(n):
    """build_ann_monoid before closure reuse: the closure forms both
    products of every frontier element with every element, then the
    table forms all n^2 products again."""
    elements = _generator_shadows(n)
    index = {g.base: i for i, g in enumerate(elements)}
    frontier = list(elements)
    while frontier:
        new = []
        for x in frontier:
            for y in elements:
                for prod in (_shadow_product(x, y), _shadow_product(y, x)):
                    if prod.base not in index:
                        index[prod.base] = len(elements)
                        elements.append(prod)
                        new.append(prod)
        frontier = new
    table = [[index[_shadow_product(x, y).base] for y in elements] for x in elements]
    return elements, index, table


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_build_ann_monoid_matches_the_unshared_closure(n):
    elements, index, table = _build_ann_monoid_reference(n)
    got = build_ann_monoid(n)
    # The same elements, and the same table through the bijection between
    # the two numberings.
    to_ref = [index[x.base] for x in got.elements]
    size = len(elements)
    assert sorted(to_ref) == list(range(size))
    assert [[to_ref[got.monoid.table[x][y]] for y in range(size)] for x in range(size)] == [
        [table[to_ref[x]][to_ref[y]] for y in range(size)] for x in range(size)
    ]
    # Up to width 3 the discovery order is the pairwise closure's order.
    if n <= 3:
        assert list(got.elements) == elements
        assert {x.base: i for i, x in enumerate(got.elements)} == index
        assert got.monoid.table == tuple(map(tuple, table))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_build_ann_monoid_numbers_elements_in_discovery_order(n):
    got = build_ann_monoid(n)
    table, gens = got.monoid.table, _generator_shadows(n)
    assert list(got.elements[: len(gens)]) == gens
    assert got.monoid.one == 0
    for q in range(len(gens), len(got.elements)):
        assert any(table[p][g] == q for p in range(q) for g in range(len(gens))), q
    assert len({x.base for x in got.elements}) == len(got.elements)


def _crossing_free_reference(m, n, table) -> bool:
    """make_affine's crossing test before twist normalisation: compare
    every pair of strings at every shift within the largest offset + 1."""
    d = _from_table(m, n, table)
    return _windowed_crossing_free(d, max((abs(q.offset) for q in d.partner), default=0) + 1)


def _accepts(m, n, table) -> bool:
    try:
        make_affine(m, n, table)
    except CrossingError:
        return False
    return True


# Every candidate table with up to six points: offsets up to 3 with up to
# four points and up to 2 with six, 13 881 tables in all.  The square
# eight-point shape, where the pairwise test meets the most string pairs,
# adds its 8 505 tables at offsets up to 1.
CROSSING_SHAPES = [(m, total - m) for total in (2, 4, 6) for m in range(total + 1)]
MAX_CROSSING_OFFSET = {2: 3, 4: 3, 6: 2, 8: 1}


@pytest.mark.parametrize("m, n", CROSSING_SHAPES + [(4, 4)])
def test_make_affine_crossings_match_the_windowed_check(m, n):
    for table in _candidate_tables(m, n, MAX_CROSSING_OFFSET[m + n]):
        assert _accepts(m, n, table) == _crossing_free_reference(m, n, table), table


def _twisted_diagrams():
    """1 500 random diagrams behind a random full twist, each with its
    factors and a copy of its table in which one string moved by one unit,
    which makes most of them cross."""
    rng = random.Random(0)
    for _ in range(1500):
        width = rng.randint(1, 5)
        twist, body = lambda_pow(width, rng.randint(-6, 6)), random_affine(rng, width)
        d = compose_affine(twist, body).product
        table = _table_of(d)
        slot = rng.choice(sorted(table))
        t, side, index = table[slot]
        t += rng.choice((-1, 1))
        table[slot], table[(side, index)] = (t, side, index), (-t, *slot)
        yield width, twist, body, table


def test_make_affine_crossings_match_the_windowed_check_on_twisted_diagrams():
    for width, _, _, table in _twisted_diagrams():
        assert _accepts(width, width, table) == _crossing_free_reference(width, width, table), table


def test_make_affine_decides_huge_offsets_at_once():
    big = 10**9
    twist = lambda_pow(1, big)
    cup = {(IN, 1): (big, IN, 2), (IN, 2): (-big, IN, 1)}
    cup_json = {"m": 2, "n": 0, "partners": [
        {"from": {"side": "in", "index": 1}, "to": {"offset": big, "side": "in", "index": 2}},
        {"from": {"side": "in", "index": 2}, "to": {"offset": -big, "side": "in", "index": 1}},
    ]}
    start = time.perf_counter()
    assert make_affine(1, 1, _table_of(twist)) == twist
    with pytest.raises(CrossingError):
        make_affine(2, 0, cup)
    with pytest.raises(CrossingError):
        CATEGORIES["aTLe"].decode(cup_json)
    assert time.perf_counter() - start < 0.1


def test_int_tuples_match_the_point_code_on_every_small_diagram():
    """Every diagram with at most eight points and offsets up to 2,
    composed on either side with each generator of its width: products,
    circle counts, reprs, JSON and strings as the APoint code made them."""
    gens = {w: list(zip(_generators_of_width(w), _point_generators(w), strict=True)) for w in range(9)}
    for pairs in gens.values():
        for g, old in pairs:
            _assert_same_as_points(g, old)
    composed, products = 0, {}
    for total in range(0, 9, 2):
        for m in range(total + 1):
            n = total - m
            for d in enumerate_affine(m, n, 2):
                old = _points_of(d)
                _assert_same_as_points(d, old)
                assert make_affine(m, n, _table_of(d)) == d
                pairs = [(d, old, g, og) for g, og in gens[n]]
                pairs += [(g, og, d, old) for g, og in gens[m]]
                for x, ox, y, oy in pairs:
                    got = compose_affine(x, y)
                    product, b0, bw = _point_compose(ox, oy)
                    assert _points_of(got.product) == product, (x, y)
                    assert (got.b0, got.bw) == (b0, bw), (x, y)
                    products[got.product] = product
                    composed += 1
    # repr, JSON and strings depend on the product alone
    for d, old in products.items():
        _assert_same_as_points(d, old)
    assert composed == 27262


def test_int_tuples_match_the_point_code_on_twisted_diagrams():
    """The twisted random diagrams: their products, and the crossing
    verdict and validated value of their one-unit perturbations."""
    for width, twist, body, table in _twisted_diagrams():
        got = compose_affine(twist, body)
        product, b0, bw = _point_compose(_points_of(twist), _points_of(body))
        _assert_same_as_points(got.product, product)
        assert (got.b0, got.bw) == (b0, bw)
        old = _from_table(width, width, table)
        assert _accepts(width, width, table) == _point_crossing_free(old), table
        if _point_crossing_free(old):
            _assert_same_as_points(make_affine(width, width, table), old)


@pytest.mark.parametrize("m, n", [(m, 4 - m) for m in range(5)] + [(3, 3)])
def test_enumerate_affine_yields_only_valid_diagrams_at_larger_offsets(m, n):
    for d in enumerate_affine(m, n, 3):
        assert make_affine(m, n, _table_of(d)) == d


def _project_to_ann_reference(a):
    """project_to_ann as it built the shadow from Vertex pairs through
    make_partition."""
    g = _ground(a.m, a.n)
    pairs = [(g[j], g[p]) for j, p in enumerate(a.partner) if j < p]
    return annular.AnnularPartition(make_partition(a.m, a.n, pairs))


def test_project_to_ann_matches_the_vertex_pairs():
    checked = 0
    for total in range(0, 9, 2):
        for m in range(total + 1):
            for d in enumerate_affine(m, total - m, 2):
                assert project_to_ann(d) == _project_to_ann_reference(d), d
                checked += 1
    assert checked == 1826
