"""Boundary fuzz: malformed input to the decoders, parsers, constructors,
samplers, enumerators and the command line.

Valid inputs are mutated at a random node: a wrong type, a missing key or
element, a wrapped (non-pair) value, a huge or off-by-one int, a renamed
key or a stray star.  Every outcome must be a value or a DiagcatError;
any other exception is a leak at the boundary.  On the command line, each
outcome must exit with the code that the CLI documents for what the
library does with the same input.  The mutations are drawn from fixed
seeds, so every run feeds the same inputs, and the regression cases come
first: each once leaked another exception or was coerced.

HUGE has more digits than Python prints by default (4 300), so a message
that formats it, or a list that holds it, must not print it as a number.
"""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import random
import string
import sys

import numpy as np
import pytest

from diagcat import CATEGORIES, cli, make_affine, make_cobordism, make_partition
from diagcat.annular import build_ann_monoid, enumerate_affine
from diagcat.auxmonoids import CF_CIRCLE, JE_PARITY, CircleForest, FiniteMonoid, je_pair
from diagcat.cobordisms import Spectrum
from diagcat.errors import (
    CoverageError,
    DiagcatError,
    ParseError,
    RangeError,
    ShapeMismatch,
    UnknownMonoid,
    _shown,
)
from diagcat.identities import (
    IDENTITY_REGISTRY,
    MONOIDS,
    Word,
    canonical_form,
    check_identity,
    extreme_rep,
    normal_form,
    parse_identity,
    parse_word,
)
from diagcat.partitions import enumerate_partitions, identity_partition
from diagcat.sampling import (
    random_affine,
    random_cobordism,
    random_partition,
    random_spectrum,
    random_word,
)

HUGE = 10**5000
JUNK = (None, True, False, 0, -1, 2, 1.5, 10**30, -(10**30), 2**64, HUGE, -HUGE, "", "x",
        "in1", "*", [], {}, [0], [[]], [HUGE], [0, -HUGE], {"side": "in"},
        {"side": "in", "index": 1})
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
        parent[last] = value + rng.choice((-2, -1, 1, 2, 10**30, HUGE, -HUGE))
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
    # messages that printed an int past Python's digit limit
    "make_partition(1, 1, [[('in', HUGE)], [('out', 1)]])",
    "make_partition(1, 1, HUGE)",
    "make_partition(HUGE, 1, [])",
    "make_affine(1, 1, {('in', 1): (0, 'out', HUGE), ('out', 1): (0, 'in', 1)})",
    "make_affine(1, 1, [(('in', HUGE), (0, 'out', 1))] * 2)",
    "CATEGORIES['P'].decode({'m': 1, 'n': 1, 'blocks': "
    "[[{'side': 'in', 'index': HUGE}], [{'side': 'out', 'index': 1}]]})",
    "make_cobordism(identity_partition(1), (-HUGE,))",
    "make_cobordism(identity_partition(1), (0,), {0: -HUGE})",
    "Spectrum([(HUGE,)])",
    "je_pair(JE_PARITY, HUGE, 0)",
    "check_identity(parse_identity('xy=yx'), MONOIDS['A21'](), budget=-HUGE)",
    "next(enumerate_partitions(HUGE, 0))",
    "next(enumerate_affine(HUGE, 0, 1))",
    "random_spectrum(random.Random(0), -HUGE)",
    "random_word(random.Random(0), -HUGE)",
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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints ints of any length")
def test_a_message_names_an_unprintable_value_by_its_type():
    assert [_shown(v) for v in (HUGE, [HUGE], (0, -HUGE))] == [
        "<int too large to print>", "<list too large to print>", "<tuple too large to print>"]
    with pytest.raises(RangeError, match=r"^blocks <int too large to print> are not iterable$"):
        make_partition(1, 1, HUGE)
    with pytest.raises(CoverageError, match=r"^uncovered vertices: \[in1, in2, in3\] and "
                                            r"<int too large to print> more$"):
        make_partition(HUGE, 1, [])


def test_a_printable_value_prints_as_before():
    for value in (None, 2**64, -(10**30), "in1", [0, "x"], {"side": "in"}, (1, (2,)), 1.5,
                  Spectrum({1: 2}), identity_partition(1)):
        assert _shown(value) == repr(value)
    with pytest.raises(RangeError, match=r"^blocks 5 are not iterable$"):
        make_partition(1, 1, 5)
    with pytest.raises(CoverageError, match=r"^uncovered vertices: \[in1, in2, in3\] and 3 more$"):
        make_partition(5, 1, [])


# Sizes for the samplers: each draws as many points, steps or letters as
# it is asked for, so the positive ints past 2 stay out.  The offset bound
# of enumerate_affine takes them too.
SIZES = [v for v in JUNK if not (isinstance(v, int) and v > 2)]


def test_samplers_take_bad_sizes_to_a_value_or_a_diagcat_error():
    rng = random.Random(2)
    samplers = [
        lambda v: random_partition(rng, v, 1),
        lambda v: random_partition(rng, 1, v),
        lambda v: random_spectrum(rng, v),
        lambda v: random_cobordism(rng, v, 2, regular=True),
        lambda v: random_cobordism(rng, 1, 1, spectrum_support=v),
        lambda v: random_affine(rng, v),
        lambda v: random_affine(rng, 2, steps=v),
        lambda v: random_word(rng, v),
    ]
    for sample, v in itertools.product(samplers, SIZES):
        _outcome(lambda: sample(v))


def test_enumerators_and_the_budget_take_bad_sizes_to_a_value_or_a_diagcat_error():
    identity, a21 = parse_identity("xy=yx"), MONOIDS["A21"]()
    calls = [
        lambda v: next(enumerate_partitions(v, 1), None),
        lambda v: next(enumerate_partitions(1, v), None),
        lambda v: next(enumerate_affine(v, 1, 1), None),
        lambda v: next(enumerate_affine(1, v, 1), None),
        lambda v: build_ann_monoid(v),
        lambda v: check_identity(identity, a21, v),
    ]
    for call, v in itertools.product(calls, JUNK):
        _outcome(lambda: call(v))
    # _crosses tries every shift up to the offsets' size, so a large offset
    # bound stalls the search before its first diagram; it stays out here.
    for v in SIZES:
        _outcome(lambda: next(enumerate_affine(1, 1, v), None))


# -- the command line -----------------------------------------------------------


def _text(value) -> str:
    """value as JSON text, an int past Python's digit limit written out."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return json.dumps(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _exit_code(call) -> int:
    """The exit code that the CLI documents for the outcome of call(): 2
    for ParseError, UnknownMonoid and ShapeMismatch, 3 for any other
    DiagcatError, else call's own code."""
    try:
        return call()
    except (ParseError, UnknownMonoid, ShapeMismatch):
        return 2
    except DiagcatError:
        return 3


def _assert_cli_exits(capsys, argv, expected, usage=False):
    """cli.main(argv) exits with expected, and a failure's stderr is one
    "error: " message, or argparse's usage text for a usage error, with
    no traceback."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected, (argv[:4], err[:300])
    assert "Traceback" not in err
    if usage:
        assert err.startswith("usage: diagcat") and ": error: " in err, err[:300]
    elif code >= 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err[:300]


def _load(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # the documented parse problem
        raise ParseError(str(exc)) from exc


@pytest.mark.parametrize("name", list(CATEGORIES))
def test_compose_exits_with_the_code_of_the_library_outcome(name, tmp_path, capsys):
    row, rng = CATEGORIES[name], random.Random(name)
    # operand shapes; the last pair does not compose
    if row.square:
        shapes = [((2, 2), (2, 2)), ((1, 1), (1, 1)), ((1, 1), (2, 2))]
    else:
        shapes = [((2, 1), (1, 3)), ((0, 2), (2, 2)), ((1, 2), (1, 1))]
    paths = [str(tmp_path / "left.json"), str(tmp_path / "right.json")]
    for operands, regular in itertools.product(shapes, row.regularities):
        pair = [row.encode(row.sample(rng, m, n, regular)) for m, n in operands]
        for side in (0, 1):
            for mutant in _seeded(rng, pair[side], 8):
                texts = [_text(mutant) if i == side else _text(obj) for i, obj in enumerate(pair)]
                for path, text in zip(paths, texts):
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(text)

                def library():
                    x, y = [row.decode(_load(text)) for text in texts]
                    row.compose(x, y)
                    return 0

                _assert_cli_exits(capsys, ["compose", name, *paths], _exit_code(library))


def _check(args) -> int:
    if args.budget < 0:
        raise ParseError("negative budget")
    if args.identity in IDENTITY_REGISTRY:
        identity = IDENTITY_REGISTRY[args.identity]
    elif "=" in args.identity:
        identity = parse_identity(args.identity)
    else:
        raise ParseError("no identity")
    if args.monoid not in MONOIDS:
        raise UnknownMonoid(args.monoid)
    monoid = MONOIDS[args.monoid]()
    if args.search:
        monoid = dataclasses.replace(monoid, decide=None)
    return 1 if check_identity(identity, monoid, args.budget, args.seed).status == "fails" else 0


def _normalform(args) -> int:
    w = parse_word(args.word)
    if any(sym.endswith("*") for sym in w.letters):
        raise ParseError("a starred letter")
    extreme_rep(w)
    normal_form(w)
    if args.canonical:
        canonical_form(w)
    return 0


def _idempotents(args) -> int:
    values = {
        "P": lambda n: enumerate_partitions(n, n),
        "aTLe": lambda n: enumerate_affine(n, n, 2),
        "Ann": lambda n: build_ann_monoid(n).elements,
    }
    if args.n < 0 or args.category not in values:
        raise ParseError("bad operand")
    for _ in values[args.category](args.n):
        pass
    return 0


# Valid command lines whose every mutation runs in milliseconds: the
# search contexts are finite (A21) or decided structurally (M).
ARGVS = [
    ["check", "xy=yx", "A21", "--budget", "50", "--seed", "3"],
    ["check", "x*x*y = x2*y", "A21", "--search"],
    ["check", "cube-transport", "M"],
    ["normalform", "x3yx", "--canonical"],
    ["idempotents", "2", "P"],
    ["idempotents", "1", "aTLe"],
    ["idempotents", "2", "Ann"],
]


def test_commands_exit_with_the_code_of_the_library_outcome(capsys):
    rng = random.Random(3)
    library = {"check": _check, "normalform": _normalform, "idempotents": _idempotents}
    for command, *tokens in ARGVS:
        for mutant in _seeded(rng, tokens, 30):
            mutant = mutant if isinstance(mutant, list) else [mutant]
            argv = [command, *(t if isinstance(t, str) else _text(t) for t in mutant)]
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    args = cli._build_parser().parse_args(argv)
            except SystemExit:
                _assert_cli_exits(capsys, argv, 2, usage=True)
                continue
            capsys.readouterr()
            _assert_cli_exits(capsys, argv, _exit_code(lambda: library[command](args)))
