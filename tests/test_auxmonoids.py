import copy
import dataclasses
import itertools
import pickle
import random

import numpy as np
import pytest

from diagcat import (
    A2_ONE,
    A2_ZERO,
    CF_CIRCLE,
    CF_EMPTY,
    CircleForest,
    FiniteMonoid,
    ReesL2Element,
    SDPElement,
    Spectrum,
    a2_image,
    a21_elements,
    a21_mul,
    a21_pair,
    a21_star,
    compose_cobordism,
    genus_pair,
    identity_partition,
    monoid_M,
    monoid_N,
    rees_mul,
    rees_star,
    sdp_mul,
    sdp_star,
    sigma,
)
from diagcat.auxmonoids import (
    JE_INT,
    JE_PARITY,
    JEElement,
    REES_ONE,
    _canonical_tree,
    je_mul,
    je_pair,
    je_s,
    je_to_labeled,
)
from diagcat.cobordisms import compose_decorated, make_cobordism
from diagcat.identities import (
    Identity,
    Monoid,
    Word,
    check_identity,
    evaluate,
    monoid_REES,
    monoid_SDP,
)
from diagcat.errors import (
    BadInvolution,
    InstanceMismatch,
    NoIdentity,
    NotAssociative,
    NotClosed,
    RangeError,
)


def test_circle_forest_rendering():
    assert str(CF_EMPTY) == "0"
    assert str(CF_CIRCLE) == "(0)"
    assert str(CF_CIRCLE.enclose()) == "((0))"
    assert str(CF_CIRCLE + CF_CIRCLE.enclose()) == "(0) + ((0))"
    assert str(CF_CIRCLE * 3) == "(0) + (0) + (0)"


def test_circle_forest_is_commutative_and_cancellative_free():
    a, b = CF_CIRCLE, CF_CIRCLE.enclose()
    assert a + b == b + a
    assert (a + b) + a == a + (b + a)
    assert a != b
    assert CF_EMPTY + a == a
    assert sorted(map(str, (a + b + a).indecomposables())) == ["((0))", "(0)", "(0)"]


def _tree_key_reference(t):
    """The tree order as three recursions: depth, size and children."""

    def depth(t):
        return 1 + max((depth(c) for c in t), default=0)

    def size(t):
        return 1 + sum(size(c) for c in t)

    return (depth(t), size(t), tuple(_tree_key_reference(c) for c in t))


def _random_tree(rng, budget):
    """A raw tree of at most budget + 1 circles, children in drawn order."""
    children = []
    while budget > 0 and rng.random() < 0.6:
        child_budget = rng.randint(0, budget - 1)
        children.append(_random_tree(rng, child_budget))
        budget -= child_budget + 1
    return tuple(children)


def _random_raw_forest(rng):
    return tuple(_random_tree(rng, rng.randint(0, 12)) for _ in range(rng.randint(0, 4)))


def _sorted_reference(t):
    """t with its children sorted by _tree_key_reference, recursively."""
    return tuple(sorted(map(_sorted_reference, t), key=_tree_key_reference))


def test_tree_key_matches_three_recursions_on_random_forests():
    rng = random.Random(0)
    for _ in range(3000):
        forest = _random_raw_forest(rng)
        for t in forest:
            key, canonical = _canonical_tree(t)
            assert canonical == _sorted_reference(t), t
            assert key == _tree_key_reference(canonical), t
        # The constructor sorts every level, not only the top one.
        assert CircleForest(forest).trees == _sorted_reference(forest)


def test_circle_forests_of_one_multiset_of_circles_are_equal():
    a = CircleForest(((((),), ()),))
    b = CircleForest((((), ((),)),))
    assert a == b and hash(a) == hash(b) and a.trees == b.trees
    assert a.enclose() == b.enclose() and hash(a.enclose()) == hash(b.enclose())


def _assert_rebuilt(forest):
    """forest equals the forest the public constructor builds from its
    raw trees, in its trees and in the order keys it carries."""
    rebuilt = CircleForest(forest.trees)
    assert forest == rebuilt and forest.trees == rebuilt.trees, forest
    assert forest._keys == rebuilt._keys == tuple(map(_tree_key_reference, forest.trees))


def test_keyed_operations_equal_the_forests_rebuilt_from_raw_trees():
    rng = random.Random(1)
    for _ in range(1500):
        # Canonical operands, as every forest built from CF_EMPTY by the
        # operations is.
        a = CircleForest(_random_raw_forest(rng))
        b = CircleForest(_random_raw_forest(rng))
        _assert_rebuilt(a + b)
        assert (a + b).trees == tuple(sorted(a.trees + b.trees, key=_tree_key_reference))
        for k in range(4):
            _assert_rebuilt(a * k)
        _assert_rebuilt(a.enclose())
        assert a.enclose().trees == (a.trees,)
        summands = a.indecomposables()
        assert [f.trees for f in summands] == [(t,) for t in a.trees]
        for f in summands:
            _assert_rebuilt(f)


def _forests(x):
    """The forests of a pool element or product, by field name."""
    if x is REES_ONE:
        return {}
    return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)
            if isinstance(getattr(x, f.name), CircleForest)}


def _rebuilt_forests(x):
    """x with each forest in it rebuilt by the public constructor."""
    if x is REES_ONE:
        return x
    return dataclasses.replace(x, **{k: CircleForest(f.trees) for k, f in _forests(x).items()})


def _public_forest_add(f, g):
    return CircleForest(f.trees + g.trees)


def _sdp_mul_public(x, y):
    c, d = (y.left, y.right) if x.shift % 2 == 0 else (y.right, y.left)
    return SDPElement(_public_forest_add(x.left, c), _public_forest_add(x.right, d), x.shift + y.shift)


def _rees_mul_public(x, y):
    if x is REES_ONE:
        return y
    if y is REES_ONE:
        return x
    inner = CircleForest((_public_forest_add(x.right, y.left).trees,))
    mid = _public_forest_add(_public_forest_add(x.mid, inner), y.mid)
    return ReesL2Element(x.left, mid, y.right)


@pytest.mark.parametrize("monoid, public_mul", [
    (monoid_SDP, _sdp_mul_public),
    (monoid_REES, _rees_mul_public),
])
def test_product_chains_equal_products_built_by_the_public_constructor(monoid, public_mul):
    m = monoid()
    rng = random.Random(2)
    for _ in range(300):
        got = expected = rng.choice(m.pool)
        for _ in range(rng.randint(1, 8)):
            y = rng.choice(m.pool)
            if rng.random() < 0.3:
                got, expected = m.star(got), m.star(expected)
            got = m.mul(got, y)
            expected = public_mul(expected, _rebuilt_forests(y))
            assert got == expected and repr(got) == repr(expected)
            for forest in _forests(got).values():
                _assert_rebuilt(forest)


def test_copies_keep_equality_and_the_order_keys():
    rng = random.Random(3)
    for _ in range(200):
        forest = CircleForest(_random_raw_forest(rng)).enclose() + CF_CIRCLE
        for copied in (
            copy.copy(forest),
            copy.deepcopy(forest),
            pickle.loads(pickle.dumps(forest)),
            dataclasses.replace(forest),
        ):
            assert copied == forest and hash(copied) == hash(forest)
            assert copied.trees == forest.trees and copied._keys == forest._keys
            assert copied + CF_CIRCLE == forest + CF_CIRCLE


def test_the_order_keys_are_no_dataclass_field():
    assert [f.name for f in dataclasses.fields(CircleForest)] == ["trees"]
    assert repr(CF_CIRCLE + CF_CIRCLE.enclose()) == "(0) + ((0))"


@pytest.mark.parametrize("trees", [
    "ab",
    (1,),
    ((), []),
    (((), ("x",)),),
    (None,),
    5,
])
def test_circle_forest_rejects_malformed_trees(trees):
    with pytest.raises(RangeError):
        CircleForest(trees)


@pytest.mark.parametrize("m", [True, False, 2.0, "2", None, -1])
def test_forest_multiples_must_be_non_negative_ints(m):
    with pytest.raises(RangeError):
        CF_CIRCLE * m


def test_ideal_extension_products():
    # integers act by clipping on the pair ideal
    assert je_mul(je_s(JE_INT, 2), je_pair(JE_INT, 5, 7)) == je_pair(JE_INT, 7, 7)
    assert je_mul(je_pair(JE_INT, 5, 7), je_s(JE_INT, 2)) == je_pair(JE_INT, 5, 9)
    assert je_mul(je_pair(JE_INT, 1, 2), je_pair(JE_INT, 3, 4)) == je_pair(JE_INT, 1, 4)
    assert je_mul(je_s(JE_INT, 1), je_s(JE_INT, 2)) == je_s(JE_INT, 3)


def test_ideal_extension_instances_are_separate():
    with pytest.raises(InstanceMismatch):
        je_mul(je_s(JE_INT, 1), je_s(JE_PARITY, 1))


# The scalar product and the two actions of each band extension, as the
# instances held them before they became data.
JE_REFERENCE = {
    JE_INT: (lambda a, b: a + b, lambda s, l: s + l, lambda r, s: r + s),
    JE_PARITY: (lambda a, b: a + b, lambda s, l: (s + l) % 2, lambda r, s: (r + s) % 2),
}


def _je_mul_reference(x, y):
    s_mul, left_act, right_act = JE_REFERENCE[x.instance]
    if x.kind == "s" and y.kind == "s":
        return JEElement(x.instance, "s", (s_mul(x.value[0], y.value[0]),))
    if x.kind == "s":
        l, r = y.value
        return JEElement(x.instance, "pair", (left_act(x.value[0], l), r))
    if y.kind == "s":
        l, r = x.value
        return JEElement(x.instance, "pair", (l, right_act(r, y.value[0])))
    return JEElement(x.instance, "pair", (x.value[0], y.value[1]))


@pytest.mark.parametrize("monoid", [monoid_M, monoid_N])
def test_je_mul_matches_the_reference_actions(monoid):
    pool = monoid().pool
    for x, y in itertools.product(pool, repeat=2):
        assert je_mul(x, y) == _je_mul_reference(x, y), (x, y)


def test_je_to_labeled_is_an_injective_homomorphism_on_the_pool_of_M():
    pool = monoid_M().pool
    for x, y in itertools.product(pool, repeat=2):
        lifted = compose_decorated(je_to_labeled(x), je_to_labeled(y))[0]
        assert je_to_labeled(je_mul(x, y)) == lifted, (x, y)
    assert len({je_to_labeled(x) for x in pool}) == len(pool) == 30
    with pytest.raises(InstanceMismatch):
        je_to_labeled(je_pair(JE_PARITY, 0, 1))


def test_the_cobordism_row_keeps_what_the_labeled_row_drops():
    """Lifted into cobordisms instead, a pair times a pair closes a
    component of genus r + l' into the spectrum, so exactly the 25 x 25
    pair products miss."""
    pool = monoid_M().pool

    def to_cobordism(x):
        lp = je_to_labeled(x)
        return make_cobordism(lp.base, lp.genus, (), True)

    missed = 0
    for x, y in itertools.product(pool, repeat=2):
        product = compose_decorated(to_cobordism(x), to_cobordism(y))[0]
        missed += product != to_cobordism(je_mul(x, y))
        if x.kind == y.kind == "pair":
            assert product.spectrum == Spectrum({x.value[1] + y.value[0]: 1})
    assert missed == 625


def test_lifted_decider_witnesses_separate_in_the_labeled_row():
    m = monoid_M()
    labeled = Monoid(name="labeled", mul=lambda a, b: compose_decorated(a, b)[0])
    words = [Word(t) for n in range(1, 5) for t in itertools.product("xyz", repeat=n)]
    for u, v in itertools.combinations(words, 2):
        verdict = check_identity(Identity(u, v), m)
        lifted = {ch: je_to_labeled(x) for ch, x in verdict.witness.items()}
        assert evaluate(u, lifted, labeled) != evaluate(v, lifted, labeled), (u, v, verdict)


def test_band_with_zero_table():
    els = a21_elements()
    assert len(els) == 6
    assert a21_mul(a21_pair(0, 1), a21_pair(1, 0)) is A2_ZERO
    assert a21_mul(a21_pair(0, 0), a21_pair(1, 1)) == a21_pair(0, 1)
    assert a21_mul(a21_pair(1, 0), a21_pair(0, 1)) == a21_pair(1, 1)
    for x in els:
        assert a21_mul(A2_ONE, x) == x == a21_mul(x, A2_ONE)
        assert a21_mul(A2_ZERO, x) is A2_ZERO


def test_band_involution():
    assert a21_star(a21_pair(0, 1)) == a21_pair(1, 0)
    assert a21_star(A2_ZERO) is A2_ZERO and a21_star(A2_ONE) is A2_ONE
    for x, y in itertools.product(a21_elements(), repeat=2):
        assert a21_star(a21_star(x)) == x
        assert a21_star(a21_mul(x, y)) == a21_mul(a21_star(y), a21_star(x))


def test_band_is_not_a_regular_star_semigroup():
    x = a21_pair(0, 1)
    assert a21_mul(a21_mul(x, a21_star(x)), x) is A2_ZERO


def test_genus_pair_collapse():
    assert a2_image(genus_pair(0, Spectrum(), 1)) == a21_pair(0, 1)
    assert a2_image(genus_pair(0, Spectrum({1: 3}), 0)) == a21_pair(0, 0)
    assert a2_image(genus_pair(0, Spectrum({2: 1}), 1)) is A2_ZERO
    x = genus_pair(1, Spectrum({0: 1}), 0)
    y = genus_pair(0, Spectrum(), 1)
    assert a2_image(compose_cobordism(x, y)) == a21_mul(a2_image(x), a2_image(y))
    assert a2_image(sigma(x)) == a21_star(a2_image(x))


def test_shift_product_frozen():
    # odd heights swap the two coordinates before adding
    a = SDPElement(CF_CIRCLE, CF_EMPTY, 1)
    b = SDPElement(CF_CIRCLE.enclose(), CF_EMPTY, 1)
    assert sdp_mul(a, a) == SDPElement(CF_CIRCLE, CF_CIRCLE, 2)
    aba = sdp_mul(sdp_mul(a, b), a)
    assert aba == SDPElement(CF_CIRCLE + CF_CIRCLE, CF_CIRCLE.enclose(), 3)


def test_shift_star_is_an_involution():
    a = SDPElement(CF_CIRCLE, CF_CIRCLE.enclose(), 2)
    assert sdp_star(sdp_star(a)) == a
    b = SDPElement(CF_EMPTY, CF_CIRCLE, -1)
    assert sdp_star(sdp_mul(a, b)) == sdp_mul(sdp_star(b), sdp_star(a))


def test_rees_products():
    z = ReesL2Element(CF_EMPTY, CF_EMPTY, CF_EMPTY)
    assert rees_mul(z, z) == ReesL2Element(CF_EMPTY, CF_CIRCLE, CF_EMPTY)
    assert rees_star(rees_star(z)) == z
    a = ReesL2Element(CF_CIRCLE, CF_EMPTY, CF_EMPTY)
    assert rees_star(rees_mul(a, z)) == rees_mul(rees_star(z), rees_star(a))


def test_rees_one_is_the_identity_and_its_own_star():
    x = ReesL2Element(CF_CIRCLE, CF_EMPTY, CF_CIRCLE.enclose())
    assert rees_mul(REES_ONE, x) == x == rees_mul(x, REES_ONE)
    assert rees_mul(REES_ONE, REES_ONE) is REES_ONE
    assert rees_star(REES_ONE) is REES_ONE


def test_finite_monoid_from_table():
    els = a21_elements()
    index = {x: i for i, x in enumerate(els)}
    table = [[index[a21_mul(x, y)] for y in els] for x in els]
    fm = FiniteMonoid(table)
    assert fm.size == 6
    assert fm.one == index[A2_ONE]
    assert fm.units() == (fm.one,)
    assert sum(fm.table[i][i] == i for i in range(fm.size)) == 5
    i01 = index[a21_pair(0, 1)]
    assert fm.index_period(i01) == (1, 1)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: genus_pair(2, {}, 0), "genus entries must be 0 or 1"),
        (lambda: a2_image(make_cobordism(identity_partition(1), (0,))),
         "not a value over the singleton base"),
        (lambda: a21_pair(2, 0), "pair entries must be 0 or 1"),
        (lambda: je_pair(JE_PARITY, 2, 0), "is not a pair of parity-on-two-points"),
    ],
    ids=["genus_pair", "a2_image", "a21_pair", "je_pair"],
)
def test_pair_constructors_reject_out_of_range_entries(call, match):
    with pytest.raises(RangeError, match=match):
        call()


def test_finite_monoid_rejects_bad_tables():
    with pytest.raises(NotClosed):
        FiniteMonoid([[0, 1], [1, 7]])
    with pytest.raises(NotClosed, match="not a square"):
        FiniteMonoid([[0, 1]])
    with pytest.raises(NotAssociative):
        FiniteMonoid([[0, 1, 2], [1, 2, 1], [2, 0, 0]])
    for table in (5, [5], [[0, [1]], [1, 0]]):
        with pytest.raises(NotClosed, match="not a square"):
            FiniteMonoid(table)
    with pytest.raises(BadInvolution, match="not a self-map"):
        FiniteMonoid([[0]], star=5)


def test_finite_monoid_rejects_non_integer_entries():
    with pytest.raises(NotClosed):
        FiniteMonoid([[0, 1], [1, 0.5]])
    with pytest.raises(NotClosed):
        FiniteMonoid([[False, True], [True, False]])
    with pytest.raises(NotClosed):
        FiniteMonoid([[0, True], [True, 0]])
    with pytest.raises(NotClosed):
        FiniteMonoid([[0, np.True_], [np.True_, 0]])
    with pytest.raises(BadInvolution):
        FiniteMonoid([[0, 1], [1, 0]], star=[0, 1.0])
    with pytest.raises(BadInvolution):
        FiniteMonoid([[0, 1], [1, 0]], star=[False, True])
    with pytest.raises(BadInvolution):
        FiniteMonoid([[0, 1], [1, 0]], star=[0, True])
    with pytest.raises(BadInvolution):
        FiniteMonoid([[0, 1], [1, 0]], star=[0, np.True_])


# Z/3 under addition, with negation as its star.
Z3 = [[(x + y) % 3 for y in range(3)] for x in range(3)]


def test_finite_monoid_needs_an_identity():
    with pytest.raises(NoIdentity):
        FiniteMonoid([[0, 0], [0, 0]])
    with pytest.raises(NoIdentity):
        FiniteMonoid([])


@pytest.mark.parametrize("star, message", [
    ([0, 2], "star map is not a self-map of the table"),
    ([0, 1, 3], "star map is not a self-map of the table"),
    ([1, 2, 0], "star is not involutive at 0"),
])
def test_finite_monoid_star_errors(star, message):
    assert FiniteMonoid(Z3, star=[0, 2, 1]).star == (0, 2, 1)
    with pytest.raises(BadInvolution, match=message):
        FiniteMonoid(Z3, star=star)


def test_finite_monoid_star_must_reverse_products():
    # The two-element left-zero band with an identity adjoined: 0 is the
    # identity and xy = x for x, y in {1, 2}.  The identity map reverses
    # no product of two distinct band elements.
    table = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
    with pytest.raises(BadInvolution, match=r"not an anti-automorphism at \(1,2\)"):
        FiniteMonoid(table, star=[0, 1, 2])


def test_finite_monoid_names_the_first_non_associative_triple():
    # 0 is the identity; 1 * 1 = 2 and every other product of 1, 2 is 1.
    # Triples with a 0 and (1 1) 1 = 1 (1 1) = 1 pass, so the first failure
    # in x, y, z order is (1 1) 2 = 2 2 = 1 against 1 (1 2) = 1 1 = 2.
    with pytest.raises(NotAssociative, match=r"^\(11\)2 != 1\(12\)$"):
        FiniteMonoid([[0, 1, 2], [1, 2, 1], [2, 1, 1]])


def _finite_monoid_reference(table, star=None):
    """The error FiniteMonoid raised before its checks used numpy: the
    same checks as loops over x, y, z; None when the table passes."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= v < n for v in row):
            return NotClosed, "table is not a square over its own indices"
    if not any(all(table[e][x] == x == table[x][e] for x in range(n)) for e in range(n)):
        return NoIdentity, "table has no identity element"
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return NotAssociative, f"({x}{y}){z} != {x}({y}{z})"
    if star is not None:
        if len(star) != n or any(not 0 <= v < n for v in star):
            return BadInvolution, "star map is not a self-map of the table"
        for x in range(n):
            if star[star[x]] != x:
                return BadInvolution, f"star is not involutive at {x}"
            for y in range(n):
                if star[table[x][y]] != table[star[y]][star[x]]:
                    return BadInvolution, f"star is not an anti-automorphism at ({x},{y})"
    return None


def test_finite_monoid_errors_match_the_loop_checks():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(1500):
        n = rng.randint(1, 5)
        # Mostly tables with an identity at a random index, so that the
        # associativity and star checks are reached.
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.9:
            e = rng.randrange(n)
            for x in range(n):
                table[e][x] = table[x][e] = x
        star = None
        if rng.random() < 0.5:
            star = [rng.randrange(n) for _ in range(n)]
        expected = _finite_monoid_reference(table, star)
        try:
            FiniteMonoid(table, star=star)
            got = None
        except (NotClosed, NoIdentity, NotAssociative, BadInvolution) as exc:
            got = type(exc), str(exc)
        assert got == expected, (table, star)
        outcomes.add(None if got is None else got[0])
    assert outcomes == {None, NoIdentity, NotAssociative, BadInvolution}
