import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from diagcat import (
    IDENTITY_REGISTRY,
    Identity,
    Word,
    canonical_form,
    check_identity,
    evaluate,
    extreme_rep,
    holds_in_M,
    holds_in_N,
    identity_by_name,
    monoid_A21,
    monoid_M,
    normal_form,
    parse_identity,
    parse_iword,
    parse_word,
    sort_step,
    sort_to_normal,
    zimin,
)
from diagcat.errors import (
    BoundExceeded,
    EmptyWord,
    MissingLetter,
    NoInvolution,
    NotInteriorFactor,
    ParseError,
    RangeError,
)
from diagcat import auxmonoids as am
from diagcat import identities
from diagcat.annular import build_ann_monoid
from diagcat.suite import _n_key
from diagcat.identities import (
    MAX_WORD_SYMBOLS,
    MONOIDS,
    Monoid,
    _identity_letters,
    Verdict,
    monoid_from_table,
    monoid_REES,
    star_mix_words,
    zimin_sorted_pair,
)
from diagcat.sampling import random_word


def test_parse_and_render():
    w = parse_word("x3yxytz4xyz")
    assert str(w) == "x3yxytz4xyz"
    assert len(w) == 14
    with pytest.raises(ParseError):
        parse_word("x0y")
    assert str(parse_word("")) == "1"


def test_involutory_parsing():
    w = parse_iword("xx*x")
    assert w.symbols == (("x", False), ("x", True), ("x", False))


def test_zimin_words():
    assert str(zimin(1)) == "a"
    assert str(zimin(2)) == "aba"
    assert str(zimin(3)) == "abacaba"
    assert len(zimin(5)) == 31


def test_worked_decomposition():
    w = parse_word("x3yxytz4xyz")
    rep = extreme_rep(w)
    assert str(rep.e) == "xytzxyz"
    assert [str(b) for b in rep.blocks] == ["x2", "xy", "1", "z3", "1", "1"]
    assert rep.reassemble() == w
    assert normal_form(w) == w


def test_extreme_rep_of_empty_word():
    with pytest.raises(EmptyWord):
        extreme_rep(Word())


def test_one_variable_criterion_spot_values():
    assert not holds_in_M(parse_word("xy"), parse_word("yx"))
    for name in ("interior-swap-nested", "interior-swap-crossed"):
        ident = identity_by_name(name)
        assert holds_in_M(ident.lhs, ident.rhs)
        assert holds_in_N(ident.lhs, ident.rhs)


def test_parity_criterion_spot_values():
    assert holds_in_N(parse_word("x3yx"), parse_word("xyx3"))
    assert not holds_in_M(parse_word("x3yx"), parse_word("xyx3"))
    assert not holds_in_N(parse_word("x3yx"), parse_word("x2yx2"))
    assert not holds_in_N(parse_word("x"), parse_word("x3"))


def test_count_criterion_implies_parity_criterion():
    rng = random.Random(0)
    hits = 0
    while hits < 50:
        u = random_word(rng, max_len=5)
        v = Word(tuple(rng.sample(u.letters, len(u.letters))))
        if holds_in_M(u, v):
            hits += 1
            assert holds_in_N(u, v)


def test_deleting_a_letter_preserves_validity():
    ident = identity_by_name("interior-swap-nested")
    for gone in "tuvw":
        u = Word(tuple(ch for ch in ident.lhs.letters if ch != gone))
        v = Word(tuple(ch for ch in ident.rhs.letters if ch != gone))
        assert holds_in_M(u, v)


def test_sort_step_contract():
    # the middle block of xy.yx.xy is descending and can be swapped
    w = parse_word("xyyxxy")
    with pytest.raises(NotInteriorFactor):
        sort_step(w, 0)  # extreme occurrence, not interior
    stepped = sort_step(w, 2)
    assert stepped.word == parse_word("xyxyxy")
    diff = [i for i in range(len(w)) if w.letters[i] != stepped.word.letters[i]]
    assert diff == [2, 3]  # one adjacent transposition
    sorted_w, steps = sort_to_normal(w)
    assert sorted_w == parse_word("xyxyxy") == normal_form(w)
    assert steps == 1


def test_sorting_terminates_on_random_words():
    rng = random.Random(1)
    for _ in range(500):
        w = random_word(rng)
        result, _ = sort_to_normal(w)
        assert result == normal_form(w)
        assert sorted(result.letters) == sorted(w.letters)


def test_canonical_form_reorders_up_to_parity():
    w = parse_word("x3yxytz4xyz")
    c = canonical_form(w)
    assert holds_in_N(w, c)
    assert canonical_form(c) == c
    assert str(c) == "x3yxytz2xyz3"


def test_word_length_is_bounded_before_expansion():
    assert len(parse_word(f"x{MAX_WORD_SYMBOLS - 1}y")) == MAX_WORD_SYMBOLS
    with pytest.raises(BoundExceeded):
        parse_word(f"x{MAX_WORD_SYMBOLS // 2}y{MAX_WORD_SYMBOLS // 2 + 1}")
    tracemalloc.start()
    try:
        # The last count has more digits than int() reads by default.
        for text in (f"x{MAX_WORD_SYMBOLS + 1}", f"x{2 * MAX_WORD_SYMBOLS}", "yx" + "9" * 5000):
            with pytest.raises(BoundExceeded):
                parse_word(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert str(parse_word("x007y")) == "x7y"
    for text in ("x000", "x\u0660y", "x\uff10", "x\u0663"):
        with pytest.raises(ParseError):
            parse_word(text)


# -- the canonical form against a brute-force oracle --------------------------

def _section_data(letters):
    """Occurrence counts plus the content-and-parity of each letter's left
    and right sections: the data the parity criterion compares, read
    through left_section/right_section rather than the search's own
    signatures."""
    return _n_key(Word(tuple(letters)))


def _multiset_perms(counts, length):
    """Distinct arrangements in lexicographic order."""
    if length == 0:
        yield ()
        return
    for ch in sorted(counts):
        if counts[ch]:
            counts[ch] -= 1
            for rest in _multiset_perms(counts, length - 1):
                yield (ch,) + rest
            counts[ch] += 1


def _canonical_reference(letters):
    """The first arrangement of letters, in lexicographic order, with the
    section data of letters."""
    target = _section_data(letters)
    for cand in _multiset_perms(Counter(letters), len(letters)):
        if _section_data(cand) == target:
            return cand


@pytest.mark.parametrize("alphabet, longest", [("xyz", 6), ("wxyz", 5)])
def test_canonical_form_matches_the_brute_force(alphabet, longest):
    for n in range(1, longest + 1):
        for letters in itertools.product(alphabet, repeat=n):
            assert canonical_form(Word(letters)).letters == _canonical_reference(letters)


def test_canonical_form_matches_the_brute_force_on_capped_counts():
    # The search caps remaining counts above 2k + 3 (k distinct letters):
    # counts of 8 or more over two letters, of 10 or more over three.
    words = [
        letters
        for n in range(9, 11)
        for letters in itertools.product("xy", repeat=n)
        if max(Counter(letters).values()) >= 8
    ]
    for i, j in itertools.permutations(range(12), 2):
        letters = ["x"] * 12
        letters[i], letters[j] = "y", "z"
        words.append(tuple(letters))
    words += [("x",) * n for n in (1, 4, 5, 6, 11)]
    for letters in words:
        assert canonical_form(Word(letters)).letters == _canonical_reference(letters)


def test_canonical_form_invariants_on_long_random_words():
    rng = random.Random(8)
    for _ in range(200):
        alphabet = "abcdefgh"[: rng.randint(2, 8)]
        w = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(12, 30))))
        cf = canonical_form(w)
        assert _section_data(cf.letters) == _section_data(w.letters)
        assert holds_in_N(w, cf)
        assert cf.letters <= w.letters
        assert canonical_form(cf) == cf


def test_canonical_form_bound(monkeypatch):
    rng = random.Random(1)
    for copies in (1, 2):
        letters = list("abcdefghijklmnop"[: 16 // copies] * copies)
        rng.shuffle(letters)
        sixteen = Word(tuple(letters))
        assert _section_data(canonical_form(sixteen).letters) == _section_data(letters)
    letters = [ch for ch in "abcde" for _ in range(40)]
    random.Random(1).shuffle(letters)
    long_word = Word(tuple(letters))
    with monkeypatch.context() as patch:
        patch.setattr(identities, "MAX_CANONICAL_STATES", 1_000)
        with pytest.raises(BoundExceeded):
            canonical_form(long_word)
    assert _section_data(canonical_form(long_word).letters) == _section_data(letters)


def test_evaluate_and_errors():
    m = monoid_A21()
    aba = parse_word("aba")
    x, y = m.elements[2], m.elements[3]
    assert evaluate(aba, {"a": x, "b": y}, m) == m.mul(m.mul(x, y), x)
    with pytest.raises(MissingLetter):
        evaluate(aba, {"a": x}, m)
    rees_word = parse_iword("xx*")
    from diagcat.identities import Monoid

    bare = Monoid(name="bare", mul=lambda p, q: p, one=0, elements=(0,))
    with pytest.raises(NoInvolution):
        evaluate(rees_word, {"x": 0}, bare)


def test_check_identity_verdicts_are_deterministic():
    v = check_identity(IDENTITY_REGISTRY["commutation"], monoid_A21())
    assert v.status == "fails"
    assert sorted(v.witness) == ["x", "y"]
    assert {str(w) for w in v.witness.values()} == {"(0,0)", "(0,1)"}
    again = check_identity(IDENTITY_REGISTRY["commutation"], monoid_A21())
    assert again == v


@pytest.mark.parametrize("budget", [-1, -5, True, False, 2.0, "10", None])
def test_check_identity_rejects_a_bad_budget(budget):
    with pytest.raises(RangeError):
        check_identity(IDENTITY_REGISTRY["commutation"], monoid_A21(), budget=budget)


def test_check_identity_exhausts_small_monoids():
    ident = parse_identity("xy=xy")
    v = check_identity(ident, monoid_A21())
    assert v.status == "holds" and "exhausted" in v.evidence


def test_check_identity_unknown_on_infinite_pool():
    searched = dataclasses.replace(monoid_M(), decide=None)
    v = check_identity(IDENTITY_REGISTRY["zimin3-shuffle"], searched, budget=500)
    assert v.status in ("unknown", "fails")
    # the one-variable criterion rejects this shuffle, so M must not satisfy it
    ident = IDENTITY_REGISTRY["zimin3-shuffle"]
    assert not holds_in_M(ident.lhs, ident.rhs)


def test_star_sandwich_fails_on_the_band():
    v = check_identity(IDENTITY_REGISTRY["star-sandwich"], monoid_A21())
    assert v.status == "fails"


def test_zimin_sorted_pair_shape():
    pair = zimin_sorted_pair(2)
    assert str(pair.lhs) == "aba" and str(pair.rhs) == "a2b"
    assert isinstance(pair, Identity)


def test_star_mix_words_enumeration():
    assert [str(w) for w in star_mix_words(3)] == ["xx*x"]
    assert len(star_mix_words(6)) == 4


def test_registry_contents():
    for name in (
        "interior-swap-nested",
        "interior-swap-crossed",
        "cube-transport",
        "zimin3-shuffle",
        "commutation",
        "star-sandwich",
    ):
        assert name in IDENTITY_REGISTRY
    with pytest.raises(ParseError):
        identity_by_name("no-such-identity")


def _check_identity_reference(identity, monoid, budget, seed):
    """check_identity before its sides were compiled: every substitution
    goes through evaluate."""
    letters = _identity_letters(identity)
    k = len(letters)

    def try_subst(values):
        subst = dict(zip(letters, values))
        if evaluate(identity.lhs, subst, monoid) != evaluate(identity.rhs, subst, monoid):
            return Verdict("fails", "substitution witness", subst)
        return None

    domain = monoid.elements
    if domain is not None and len(domain) ** k <= budget:
        for values in itertools.product(domain, repeat=k):
            bad = try_subst(values)
            if bad:
                return bad
        return Verdict("holds", f"exhausted {len(domain)}^{k} substitutions")
    pool = tuple(monoid.pool) or (domain or ())
    if not pool:
        return Verdict("unknown", "no witness pool")
    spent = 0
    if len(pool) ** k <= budget:
        for values in itertools.product(pool, repeat=k):
            bad = try_subst(values)
            if bad:
                return bad
            spent += 1
    rng = random.Random(seed)
    while spent < budget:
        bad = try_subst([rng.choice(pool) for _ in range(k)])
        if bad:
            return bad
        spent += 1
    return Verdict("unknown", f"no witness within budget {budget}")


def _interned(monoid):
    """The monoid with every product and star interned and each product
    cached by the identities of its factors, so that the two searches
    compared below share their arithmetic.  Every value a search
    multiplies is a pool element or an interned value, all kept alive
    here, so no id is reused while the cache holds it."""
    values, products = {}, {}

    def intern(v):
        return values.setdefault(v, v)

    def mul(x, y):
        key = id(x), id(y)
        if key not in products:
            products[key] = intern(monoid.mul(x, y))
        return products[key]

    star = None if monoid.star is None else (lambda x: intern(monoid.star(x)))
    # The searches are compared, so a monoid's decider is stripped.
    return dataclasses.replace(monoid, mul=mul, star=star, decide=None)


def _outcome(search, identity, monoid, budget, seed):
    try:
        return search(identity, monoid, budget, seed)
    except (EmptyWord, NoInvolution) as exc:
        return type(exc), str(exc)


def _a21_table():
    """A21 as a FiniteMonoid: its table and its star as indices of
    a21_elements()."""
    elements = am.a21_elements()
    index = {x: i for i, x in enumerate(elements)}
    table = [[index[am.a21_mul(x, y)] for y in elements] for x in elements]
    star = [index[am.a21_star(x)] for x in elements]
    return monoid_from_table(am.FiniteMonoid(table, star), "A21-table")


def _registered(name):
    return lambda: _interned(MONOIDS[name]())


# M, N and rees are the slowest monoids to search, so they are compared at
# seed 0 only and the other monoids at seeds 0-2.
ORACLE_MONOIDS = {
    "M": (_registered("M"), [0]),
    "N": (_registered("N"), [0]),
    "A21": (_registered("A21"), [0, 1, 2]),
    "sdp": (_registered("sdp"), [0, 1, 2]),
    "rees": (_registered("rees"), [0]),
    "ann3": (MONOIDS["ann3"], [0, 1, 2]),
    "ann4": (lambda: monoid_from_table(build_ann_monoid(4).monoid, "ann4"), [0, 1, 2]),
    "A21-table": (_a21_table, [0, 1, 2]),
}
TABLE_MONOIDS = ("ann3", "ann4", "A21-table")


def _assert_same_outcome(name, identity, monoid, budget, seed):
    got = _outcome(check_identity, identity, monoid, budget, seed)
    assert got == _outcome(_check_identity_reference, identity, monoid, budget, seed), (
        name, str(identity), budget, seed
    )
    if name in TABLE_MONOIDS and isinstance(got, Verdict) and got.witness:
        assert all(type(v) is int for v in got.witness.values()), got


@pytest.mark.parametrize("name", ORACLE_MONOIDS)
def test_check_identity_matches_the_evaluate_search(name):
    make, seeds = ORACLE_MONOIDS[name]
    monoid = make()
    for identity in IDENTITY_REGISTRY.values():
        for seed in seeds:
            _assert_same_outcome(name, identity, monoid, 4000, seed)


@pytest.mark.parametrize("name", ["ann3", "A21-table"])
def test_check_identity_matches_the_evaluate_search_in_every_mode(name):
    """Over tables, each identity with at most 25 000 substitutions at
    budgets that leave no substitution, all but one (drawn), all of them
    (exhaustive), and 1 000."""
    monoid = ORACLE_MONOIDS[name][0]()
    for identity in IDENTITY_REGISTRY.values():
        total = len(monoid.elements) ** len(_identity_letters(identity))
        if total > 25_000:
            continue
        for budget in sorted({0, total - 1, total, 1000}):
            _assert_same_outcome(name, identity, monoid, budget, 1)


def test_check_identity_matches_the_evaluate_search_at_the_full_budget():
    monoid = ORACLE_MONOIDS["ann3"][0]()
    identity = IDENTITY_REGISTRY["interior-swap-nested"]
    _assert_same_outcome("ann3", identity, monoid, 200_000, 0)


def test_check_identity_raises_only_when_it_evaluates():
    empty_side = parse_identity("x=1")
    starred = IDENTITY_REGISTRY["star-sandwich"]
    no_unit = Monoid(name="no-unit", mul=lambda p, q: p, pool=(0, 1))
    for identity, error in ((empty_side, EmptyWord), (starred, NoInvolution)):
        with pytest.raises(error):
            check_identity(identity, no_unit, budget=10)
        nothing = dataclasses.replace(no_unit, pool=())
        assert check_identity(identity, nothing, budget=10).status == "unknown"


def test_an_exhausted_pool_is_not_redrawn():
    rees = monoid_REES()
    calls = 0

    def mul(x, y):
        nonlocal calls
        calls += 1
        return rees.mul(x, y)

    identity = IDENTITY_REGISTRY["cube-transport"]
    verdict = check_identity(identity, dataclasses.replace(rees, mul=mul), 4000, 0)
    assert verdict == _check_identity_reference(identity, rees, 4000, 0)
    # 6^2 substitutions, each with four products per side.
    assert calls <= 36 * 8


@pytest.mark.parametrize("budget", [0, 1, 4000])
def test_empty_elements_and_pools_match_the_evaluate_search(budget):
    first = lambda p, q: p
    monoids = (
        Monoid(name="empty", mul=first, one=0, star=abs, elements=()),
        Monoid(name="no-pool", mul=first, one=0, star=abs),
    )
    for monoid in monoids:
        for identity in (*IDENTITY_REGISTRY.values(), parse_identity("1=1")):
            assert _outcome(check_identity, identity, monoid, budget, 0) == _outcome(
                _check_identity_reference, identity, monoid, budget, 0
            ), (monoid.name, str(identity), budget)
    assert str(check_identity(parse_identity("xy=yx"), monoids[0])) == (
        "holds (exhausted 0^2 substitutions)"
    )
    assert str(check_identity(parse_identity("xy=yx"), monoids[1])) == "unknown (no witness pool)"


# -- the structural deciders of M and N ----------------------------------------

def _separates(identity, witness, monoid):
    return evaluate(identity.lhs, witness, monoid) != evaluate(identity.rhs, witness, monoid)


@pytest.mark.parametrize("name", ["M", "N"])
def test_decide_fails_every_pair_of_short_words_with_a_separating_witness(name):
    """No two distinct words over xyz of length 1-4 are equal in M or N,
    and each witness separates them through evaluate."""
    monoid = MONOIDS[name]()
    words = [Word(t) for n in range(1, 5) for t in itertools.product("xyz", repeat=n)]
    pairs = 0
    for u, v in itertools.combinations(words, 2):
        identity = Identity(u, v)
        verdict = check_identity(identity, monoid)
        assert verdict.status == "fails" and verdict.evidence == "structural criterion"
        assert sorted(verdict.witness) == _identity_letters(identity)
        assert _separates(identity, verdict.witness, monoid), (str(identity), verdict)
        pairs += 1
    assert pairs == 7140


# Registry identities and zimin_sorted_pair(1-4): the decided verdict, "x=1"
# style witness text included, in M and in N.
PINNED_VERDICTS = {
    "interior-swap-nested": ("holds (structural criterion)", "holds (structural criterion)"),
    "interior-swap-crossed": ("holds (structural criterion)", "holds (structural criterion)"),
    "cube-transport": ("fails (structural criterion; x=1, y=(0,0))",
                       "holds (structural criterion)"),
    "zimin3-shuffle": ("fails (structural criterion; a=1, b=(0,0), c=0)",
                       "fails (structural criterion; a=1, b=(0,0), c=0)"),
    "zimin4-compression": ("holds (structural criterion)", "holds (structural criterion)"),
    "commutation": ("fails (structural criterion; x=(0,0), y=1)",
                    "fails (structural criterion; x=(0,0), y=1)"),
    "zimin-sorted-1": ("holds (structural criterion)", "holds (structural criterion)"),
    "zimin-sorted-2": ("fails (structural criterion; a=(0,0), b=1)",
                       "fails (structural criterion; a=(0,0), b=1)"),
    "zimin-sorted-3": ("fails (structural criterion; a=(0,0), b=1, c=0)",
                       "fails (structural criterion; a=(0,0), b=(1,1), c=0)"),
    "zimin-sorted-4": ("fails (structural criterion; a=(0,0), b=1, c=0, d=0)",
                       "fails (structural criterion; a=(0,0), b=(1,1), c=0, d=0)"),
}


def test_decide_verdicts_are_pinned_and_no_search_refutes_a_holding_one():
    plain = {name: ident for name, ident in IDENTITY_REGISTRY.items() if not ident.involutory}
    plain.update({f"zimin-sorted-{k}": zimin_sorted_pair(k) for k in range(1, 5)})
    assert sorted(plain) == sorted(PINNED_VERDICTS)
    for column, name in enumerate(("M", "N")):
        monoid = MONOIDS[name]()
        searched = dataclasses.replace(monoid, decide=None)
        for ident_name, identity in plain.items():
            verdict = check_identity(identity, monoid)
            assert str(verdict) == PINNED_VERDICTS[ident_name][column], (name, ident_name)
            if verdict.status == "fails":
                assert _separates(identity, verdict.witness, monoid)
            else:
                assert check_identity(identity, searched, budget=4000).status != "fails"
            holds = (holds_in_M if name == "M" else holds_in_N)(identity.lhs, identity.rhs)
            assert holds == (verdict.status == "holds")


@pytest.mark.parametrize("name", ["M", "N"])
def test_decide_holds_for_each_word_against_its_normal_and_canonical_forms(name):
    monoid = MONOIDS[name]()
    rng = random.Random(4)
    for _ in range(300):
        w = random_word(rng, max_len=12)
        assert check_identity(Identity(w, normal_form(w)), monoid).status == "holds"
        if name == "N":
            assert check_identity(Identity(w, canonical_form(w)), monoid).status == "holds"


def test_decide_takes_plain_words_and_comes_after_the_budget_check():
    for name in ("M", "N"):
        with pytest.raises(ParseError, match="the structural criteria take plain words"):
            check_identity(IDENTITY_REGISTRY["star-sandwich"], MONOIDS[name]())
        with pytest.raises(RangeError):
            check_identity(IDENTITY_REGISTRY["commutation"], MONOIDS[name](), budget=-1)


def test_check_identity_returns_the_decider_without_evaluating():
    def no_products(x, y):
        raise AssertionError("the decider should be used instead")

    verdict = Verdict("holds", "by fiat")
    monoid = Monoid(name="decided", mul=no_products, pool=(0, 1), decide=lambda ident: verdict)
    assert check_identity(IDENTITY_REGISTRY["commutation"], monoid) is verdict
