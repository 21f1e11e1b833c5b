"""Boundary fuzz: malformed input to the decoders, parsers and constructors.

Valid inputs are mutated at a random node: a wrong type, a missing key or
element, a wrapped (non-pair) value, a huge or off-by-one int, a renamed
key or a stray star.  Every outcome must be a value or a DiagcatError;
any other exception is a leak at the boundary.  The mutations are drawn
from fixed seeds, so every run feeds the same inputs, and the regression
cases come first: each once leaked another exception or was coerced.
"""

import copy
import itertools
import random
import string

import numpy as np
import pytest

from diagcat import CATEGORIES, make_affine, make_cobordism, make_partition
from diagcat.auxmonoids import CF_CIRCLE, CircleForest, FiniteMonoid
from diagcat.cobordisms import Spectrum
from diagcat.errors import DiagcatError
from diagcat.identities import (
    MONOIDS,
    Word,
    check_identity,
    normal_form,
    parse_identity,
    parse_word,
)
from diagcat.partitions import identity_partition
from diagcat.sampling import random_word

JUNK = (None, True, False, 0, -1, 2, 1.5, 10**30, -(10**30), 2**64, "", "x", "in1", "*",
        [], {}, [0], [[]], {"side": "in"}, {"side": "in", "index": 1})
KEYS = ("", "*", "in0", "in01", "out1", "in1*", "-0", "01", "regular", "m", "blocks")


def _nodes(obj, path=()):
    """The path of every node of a JSON-like tree, the root first."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nodes(value, path + (i,))


def _mutated(rng: random.Random, obj):
    """A deep copy of obj with one node replaced, dropped, wrapped, nudged,
    starred or moved under another key."""
    obj = copy.deepcopy(obj)
    path = rng.choice(list(_nodes(obj)))
    if not path:
        return rng.choice(JUNK)
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    last, value = path[-1], parent[path[-1]]
    kind = rng.randrange(5)
    if kind == 0:
        parent[last] = copy.deepcopy(rng.choice(JUNK))
    elif kind == 1:
        del parent[last]
    elif kind == 2:
        parent[last] = [value]
    elif kind == 3 and isinstance(value, str):
        parent[last] = value + "*"
    elif kind == 3 and isinstance(value, int) and not isinstance(value, bool):
        parent[last] = value + rng.choice((-2, -1, 1, 2, 10**30))
    elif isinstance(parent, dict):
        del parent[last]
        parent[rng.choice(KEYS)] = value
    else:
        parent.insert(rng.randrange(len(parent) + 1), copy.deepcopy(rng.choice(JUNK)))
    return obj


def _outcome(call):
    """The value of call(), or None for a DiagcatError; anything else
    propagates and fails the test."""
    try:
        return call()
    except DiagcatError:
        return None


def _seeded(rng: random.Random, valid, mutations: int):
    """valid itself, then valid under 1 to 3 stacked mutations."""
    yield valid
    for _ in range(mutations):
        obj = valid
        for _ in range(1 + rng.randrange(3)):
            obj = _mutated(rng, obj)
        yield obj


# Each case is the source of one call, which is also its test id.
REGRESSIONS = [
    # constructors that leaked TypeError or ValueError
    "make_partition(1, 1, [['a']])",
    "make_partition(1, 1, [[('in', 1, 2)], [('out', 1)]])",
    "make_partition(1, 1, 5)",
    "make_partition(1, 1, [5])",
    "make_affine(1, 1, 5)",
    "make_affine(1, 1, [('in', 1)])",
    "make_affine(1, 1, {('in', 1): (0, 'out')})",
    "make_cobordism(identity_partition(1), 5)",
    "FiniteMonoid(5)",
    "FiniteMonoid([5])",
    "FiniteMonoid([[0]], star=5)",
    "FiniteMonoid([[0, [1]], [1, 0]])",
    "check_identity(parse_identity('xy=yx'), MONOIDS['A21'](), seed=[0])",
    "check_identity(parse_identity('xy=yx'), MONOIDS['A21'](), seed=1.5)",
    # the Spectrum protocol, bool and float counts, mixed bool/int tables
    "Spectrum(5)",
    "Spectrum([(1, 2, 3)])",
    "Spectrum({1: True})",
    "Spectrum({1: 1.5})",
    "CATEGORIES['Pd'].decode({'m': 0, 'n': 0, 'blocks': [], 'shift': True})",
    "CATEGORIES['aTL'].decode({'m': 0, 'n': 0, 'partners': [], 'k': 1.5})",
    "FiniteMonoid([[0, True], [True, 0]])",
    "FiniteMonoid([[0, np.True_], [np.True_, 0]])",
    "FiniteMonoid([[0, 1], [1, 0]], star=[0, np.True_])",
    # malformed circle forests and multiples
    "CircleForest('ab')",
    "CircleForest(((), []))",
    "CircleForest((((), ('x',)),))",
    "CF_CIRCLE * 2.0",
    # words: symbols that print as another word, starred letters where
    # the normal forms take plain words
    "Word(('xy', 'x'))",
    "normal_form(parse_word('x*y'))",
    "parse_word(None)",
    "parse_identity(5)",
]


@pytest.mark.parametrize("source", REGRESSIONS)
def test_mended_boundary_defects_raise_diagcat_errors(source):
    assert _outcome(lambda: eval(source)) is None


@pytest.mark.parametrize("name", list(CATEGORIES))
def test_decode_takes_mutated_json_to_a_value_or_a_diagcat_error(name):
    row, rng = CATEGORIES[name], random.Random(name)
    shapes = [(m, m) for m in range(1, 4)] if row.square else itertools.product(range(4), repeat=2)
    valid = [row.encode(row.sample(rng, m, n, regular))
             for m, n in shapes for regular in row.regularities]
    for obj in valid:
        row.decode(obj)
    # the other rows' values too: a well-formed object of the wrong kind
    valid += [other.encode(other.sample(rng, 2, 2, other.regularities[0]))
              for other in CATEGORIES.values()]
    for obj in valid:
        for mutant in _seeded(rng, obj, 30):
            x = _outcome(lambda: row.decode(mutant))
            if x is not None:
                assert row.decode(row.encode(x)) == x, (name, mutant)


def test_word_parsers_take_mutated_text_to_a_value_or_a_diagcat_error():
    rng = random.Random(0)
    alphabet = string.ascii_letters + string.digits + "*=1 0()-+é\n"
    for _ in range(1500):
        text = f"{random_word(rng, max_len=6)}={random_word(rng, max_len=6)}"
        for _ in range(rng.randrange(4)):
            i = rng.randrange(len(text) + 1)
            piece = rng.choice((rng.choice(alphabet), "*", "**", "0", "9" * 20, "x999"))
            text = text[:i] + piece + text[i + rng.randrange(2):]
        identity = _outcome(lambda: parse_identity(text))
        if identity is not None:
            assert parse_identity(str(identity)) == identity, text
        for side in text.split("="):
            word = _outcome(lambda: parse_word(side))
            if word is not None:
                assert parse_word(str(word)) == word, side
    for junk in JUNK:
        if not isinstance(junk, str):
            assert _outcome(lambda: parse_word(junk)) is None
            assert _outcome(lambda: parse_identity(junk)) is None


def test_constructors_take_mutated_containers_to_a_value_or_a_diagcat_error():
    rng = random.Random(1)
    blocks = [[["in", 1], ["out", 2]], [["in", 2]], [["out", 1]]]
    partners = [[["in", 1], [0, "out", 1]], [["out", 1], [0, "in", 1]],
                [["in", 2], [0, "in", 3]], [["in", 3], [0, "in", 2]]]
    base = identity_partition(2)
    cases = [
        (lambda b: make_partition(2, 2, b), blocks),
        (lambda p: make_affine(3, 1, p), partners),
        (lambda g: make_cobordism(base, g), [1, 0]),
        (lambda s: make_cobordism(base, [0, 0], s), {0: 1, 2: 3}),
        (lambda t: FiniteMonoid(t), [[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
        (lambda s: FiniteMonoid([[0, 1, 2], [1, 2, 0], [2, 0, 1]], star=s), [0, 2, 1]),
        (lambda s: check_identity(parse_identity("xy=yx"), MONOIDS["A21"](), 4, s), 0),
    ]
    for build, valid in cases:
        assert _outcome(lambda: build(valid)) is not None, valid
        for mutant in _seeded(rng, valid, 200):
            _outcome(lambda: build(mutant))
