import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    monoid_A21,
    monoid_M,
    normal_form,
    parse_identity,
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
    content,
    left_section,
    monoid_from_table,
    monoid_REES,
    right_section,
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
    w = parse_word("xx*x")
    assert w.letters == ("x", "x*", "x")
    assert parse_word("x2*y") == parse_word("x*x*y")
    assert str(parse_word("x*x*y")) == "x2*y" and repr(parse_word("x*x*y")) == "Word(x2*y)"
    assert str(parse_word("xx*x")) == "xx*x"
    identity = parse_identity("x*x*y = x2*y")
    assert identity.involutory and str(identity) == "x2*y = x2*y"
    assert Identity(parse_word("x"), w).involutory and not parse_identity("x = xx").involutory


def test_words_print_in_the_notation_they_parse_from():
    symbols = ("x", "x*", "y", "y*")
    words = [Word(t) for n in range(6) for t in itertools.product(symbols, repeat=n)]
    words.append(Word(("x*",) * 7 + ("y",) * 3))
    for w in words:
        assert parse_word(str(w)) == w, w
    assert str(words[-1]) == "x7*y3"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([ch + star for ch in "abcde" for star in ("", "*")]), max_size=12))
def test_words_round_trip_through_their_printed_form(symbols):
    w = Word(tuple(symbols))
    assert parse_word(str(w)) == w


def test_zimin_words():
    assert str(zimin(1)) == "a"
    assert str(zimin(2)) == "aba"
    assert str(zimin(3)) == "abacaba"
    assert len(zimin(5)) == 31


def test_zimin_depth_is_bounded_before_building():
    assert len(zimin(19)) == 2**19 - 1 <= MAX_WORD_SYMBOLS
    tracemalloc.start()
    try:
        for k in (20, 26):
            with pytest.raises(BoundExceeded, match=f"z\\({k}\\) is longer than"):
                zimin(k)
        with pytest.raises(BoundExceeded):
            zimin_sorted_pair(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(RangeError, match="need 1 <= k <= 26"):
        zimin(0)


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
        ident = IDENTITY_REGISTRY[name]
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
    ident = IDENTITY_REGISTRY["interior-swap-nested"]
    for gone in "tuvw":
        u = Word(tuple(ch for ch in ident.lhs.letters if ch != gone))
        v = Word(tuple(ch for ch in ident.rhs.letters if ch != gone))
        assert holds_in_M(u, v)


def test_sort_step_contract():
    # the middle block of xy.yx.xy is descending and can be swapped
    w = parse_word("xyyxxy")
    with pytest.raises(NotInteriorFactor):
        sort_step(w, 0)  # extreme occurrence, not interior
    with pytest.raises(NotInteriorFactor):
        sort_step(w, 1)  # yy is not descending
    with pytest.raises(NotInteriorFactor):
        sort_step(w, 5)  # no pair starts at the last letter
    stepped = sort_step(w, 2)
    assert stepped == parse_word("xyxyxy")
    diff = [i for i in range(len(w)) if w.letters[i] != stepped.letters[i]]
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


# -- the one-scan section criteria and normal form against the slicing ones ---

def _imbalance_reference(u, v, modulus):
    """The section criterion read through left_section/right_section, one
    Counter per section: the first broken condition as _imbalance reports
    it."""
    count_u, count_v = Counter(u.letters), Counter(v.letters)
    if count_u != count_v:
        y = min(y for y in count_u.keys() | count_v.keys() if count_u[y] != count_v[y])
        return None, y, False
    for x in sorted(count_u):
        for s, t in (
            (left_section(u, x), left_section(v, x)),
            (right_section(x, u), right_section(x, v)),
        ):
            cs, ct = Counter(s.letters), Counter(t.letters)
            if cs == ct:
                continue
            for y in sorted(cs.keys() | ct.keys()):
                diff = cs[y] - ct[y]
                if diff if modulus is None else diff % modulus:
                    return x, y, False
                if (y in cs) != (y in ct):
                    return x, y, True
    return None


def test_imbalance_matches_the_slicing_reference_on_every_short_pair():
    words = [Word(t) for n in range(1, 5) for t in itertools.product("xyz", repeat=n)]
    pairs = 0
    for u in words:
        for v in words:
            for modulus in (None, 2):
                assert identities._imbalance(u, v, modulus) == _imbalance_reference(u, v, modulus)
            pairs += 1
    assert pairs == 14_400


def test_imbalance_matches_the_slicing_reference_on_shuffles():
    """Same-content pairs pass the count check, so every section is read."""
    rng = random.Random(28)
    for _ in range(20_000):
        u = tuple(rng.choice("wxyz") for _ in range(rng.randint(6, 12)))
        v = rng.sample(u, len(u))
        u, v = Word(u), Word(tuple(v))
        for modulus in (None, 2):
            assert identities._imbalance(u, v, modulus) == _imbalance_reference(u, v, modulus)


def _normal_form_reference(w):
    rep = extreme_rep(w)
    blocks = tuple(Word(tuple(sorted(b.letters))) for b in rep.blocks)
    return identities.ExtremeRep(rep.e, blocks).reassemble()


def test_normal_form_matches_the_sorted_extreme_rep():
    words = [Word(t) for n in range(1, 8) for t in itertools.product("xyz", repeat=n)]
    assert len(words) == 3279
    rng = random.Random(28)
    words += [Word(tuple(rng.choice("abcdefghij") for _ in range(rng.randint(50, 400))))
              for _ in range(200)]
    for w in words:
        assert normal_form(w) == _normal_form_reference(w)
    with pytest.raises(EmptyWord, match="no extreme representation"):
        normal_form(Word())


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


# -- the one search and the insertion sort against the code they replaced ----

def _event_signature_map(word):
    sig = {}
    support = parity = 0
    for i in word:
        sig.setdefault(i, (support, parity))
        support |= 1 << i
        parity ^= 1 << i
    return sig


def _canonical_greedy_reference(letters):
    """The greedy walk the one search replaced: at each step the least
    letter after which a memoised depth-first search can still complete
    the rest (no state bound)."""
    alphabet = sorted(set(letters))
    k = len(alphabet)
    index = {ch: i for i, ch in enumerate(alphabet)}
    word = [index[ch] for ch in letters]
    first = _event_signature_map(word)
    last = _event_signature_map(word[::-1])
    counts = [0] * k
    for i in word:
        counts[i] += 1
    count_parity = sum((c & 1) << x for x, c in enumerate(counts))
    top = 2 * k + 3

    def cap(c):
        return c if c <= top else top - 1 + (c & 1)

    width = top.bit_length()
    shifts = [width * x for x in range(k)]
    field = (1 << width) - 1
    full = (1 << k) - 1

    def moves(state):
        placed, rest, support, parity = state
        prefix = (placed, count_parity ^ parity)
        for x in range(k):
            bit = 1 << x
            if not support & bit or (not placed & bit and prefix != first[x]):
                continue
            after = rest - (1 << shifts[x])
            left = support
            if not after >> shifts[x] & field:
                left ^= bit
                if (left, parity ^ bit) != last[x]:
                    continue
            yield x, (placed | bit, after, left, parity ^ bit)

    memo = {full: True}

    def completable(state):
        key = state[1] << k | state[0]
        if key in memo:
            return memo[key]
        stack = [(key, moves(state))]
        while stack:
            key, branches = stack[-1]
            for _, child in branches:
                child_key = child[1] << k | child[0]
                if child_key not in memo:
                    stack.append((child_key, moves(child)))
                    break
                if memo[child_key]:
                    memo.update((key, True) for key, _ in stack)
                    return True
            else:
                memo[key] = False
                stack.pop()
        return False

    remaining = counts[:]
    state = (0, sum(cap(c) << s for c, s in zip(counts, shifts)), full, count_parity)
    out = []
    for _ in word:
        for x, child in moves(state):
            if remaining[x] > top:
                placed, rest, support, parity = child
                rest += (cap(remaining[x] - 1) - cap(remaining[x]) + 1) << shifts[x]
                child = (placed, rest, support, parity)
            if completable(child):
                break
        out.append(alphabet[x])
        remaining[x] -= 1
        state = child
    return tuple(out)


def _sort_reference(w):
    """The rewriter insertion sort replaced: sort_step at the leftmost
    descending interior pair, the marks found again after every swap."""
    steps = 0
    while True:
        marks = set(identities._extreme_positions(w))
        target = next(
            (i for i in range(len(w.letters) - 1)
             if i not in marks and i + 1 not in marks and w.letters[i] > w.letters[i + 1]),
            None,
        )
        if target is None:
            return w, steps
        w = sort_step(w, target)
        steps += 1


def _oracle_words():
    words = [t for n in range(1, 8) for t in itertools.product("xyz", repeat=n)]
    words += [t for n in range(1, 7) for t in itertools.product("wxyz", repeat=n)]
    words += [t for n in range(8, 13) for t in itertools.product("xy", repeat=n)
              if max(Counter(t).values()) >= 8]
    rng = random.Random(29)
    for _ in range(2_000):
        alphabet = "abcdef"[: rng.randint(2, 6)]
        words.append(tuple(rng.choice(alphabet) for _ in range(rng.randint(8, 20))))
    return words


def test_canonical_form_and_sort_to_normal_match_the_code_they_replaced():
    words = _oracle_words()
    assert len(words) == 3_279 + 5_460 + 2_186 + 2_000
    for letters in words:
        w = Word(letters)
        assert canonical_form(w).letters == _canonical_greedy_reference(letters), letters
        assert sort_to_normal(w) == _sort_reference(w), letters


def _interior_inversions(w):
    marks = identities._extreme_positions(w)
    return sum(
        w.letters[i] > w.letters[j]
        for a, b in zip(marks, marks[1:])
        for i in range(a + 1, b)
        for j in range(i + 1, b)
    )


def test_sort_to_normal_takes_one_step_per_interior_inversion_on_long_words():
    rng = random.Random(800)
    w = Word(tuple(rng.choice("abcd") for _ in range(800)))
    result, steps = sort_to_normal(w)
    assert result == normal_form(w)
    assert steps == _interior_inversions(w) > 100_000


def test_canonical_form_completes_words_longer_than_the_state_bound():
    """Few letters keep the dead keys few however long the word is."""
    assert canonical_form(Word(("x",) * 150_000)).letters == ("x",) * 150_000
    rng = random.Random(150)
    letters = tuple(rng.choice("xy") for _ in range(150_000))
    assert canonical_form(Word(letters)).letters == _canonical_greedy_reference(letters)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: zimin(27), RangeError, "need 1 <= k <= 26"),
        (lambda: parse_word("x**"), ParseError, "bad word syntax"),
        (lambda: parse_identity("x=y=z"), ParseError, "exactly one '='"),
        (lambda: canonical_form(Word()), EmptyWord, "the empty word has no canonical form"),
        (lambda: evaluate(Word(), {}, Monoid("bare", lambda p, q: p)), EmptyWord, "no designated identity"),
        (lambda: sort_step(parse_word("yx"), 0), NotInteriorFactor, "touches an extreme occurrence"),
        (lambda: holds_in_M(parse_word("xx*"), parse_word("x*x")), ParseError,
         "the structural criteria take plain words"),
        (lambda: holds_in_N(parse_word("xy"), parse_word("y*x")), ParseError,
         "the structural criteria take plain words"),
        (lambda: normal_form(parse_word("xy*x")), ParseError, "normal_form takes a plain word"),
        (lambda: canonical_form(parse_word("x*")), ParseError, "canonical_form takes a plain word"),
        (lambda: extreme_rep(parse_word("xy*x")), ParseError, "extreme_rep takes a plain word"),
        (lambda: sort_step(parse_word("xy*yx"), 1), ParseError, "sort_step takes a plain word"),
        (lambda: sort_to_normal(parse_word("xy*x")), ParseError, "sort_to_normal takes a plain word"),
        (lambda: content(parse_word("xx*")), ParseError, "content takes a plain word"),
        (lambda: left_section(parse_word("yx*x"), "x"), ParseError, "left_section takes a plain word"),
        (lambda: right_section("x", parse_word("xx*y")), ParseError, "right_section takes a plain word"),
        # "xy" would print as a run of two symbols and parse back as another word
        (lambda: Word(("xy", "x")), RangeError, "not 'xy'$"),
        (lambda: Word(("X",)), RangeError, "not 'X'$"),
        (lambda: Word(("x**",)), RangeError, r"not 'x\*\*'$"),
        (lambda: Word("xy"), RangeError, "not 'xy'$"),
        (lambda: Word((1,)), RangeError, "not 1$"),
    ],
    ids=["zimin", "parse_word", "parse_identity", "canonical_form", "evaluate", "sort_step",
         "holds_in_M-iword", "holds_in_N-iword", "normal_form-iword", "canonical_form-iword",
         "extreme_rep-iword", "sort_step-iword", "sort_to_normal-iword", "content-iword",
         "left_section-iword", "right_section-iword", "Word-two-letters", "Word-upper-case",
         "Word-two-stars", "Word-string", "Word-int"],
)
def test_word_functions_reject_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_evaluate_and_errors():
    m = monoid_A21()
    aba = parse_word("aba")
    x, y = m.elements[2], m.elements[3]
    assert evaluate(aba, {"a": x, "b": y}, m) == m.mul(m.mul(x, y), x)
    with pytest.raises(MissingLetter):
        evaluate(aba, {"a": x}, m)
    rees_word = parse_word("xx*")
    from diagcat.identities import Monoid

    bare = Monoid(name="bare", mul=lambda p, q: p, one=0, elements=(0,))
    with pytest.raises(NoInvolution):
        evaluate(rees_word, {"x": 0}, bare)


def test_fiber_monoid_verdicts():
    fiber = identities.MONOIDS["fiber"]()
    sandwich = IDENTITY_REGISTRY["star-sandwich"]
    verdict = check_identity(sandwich, fiber)
    assert verdict.status == "fails"
    assert verdict.witness["x"].genus == (-1,)
    assert evaluate(sandwich.lhs, verdict.witness, fiber) != evaluate(
        sandwich.rhs, verdict.witness, fiber
    )
    assert check_identity(IDENTITY_REGISTRY["commutation"], fiber).status == "unknown"


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
    assert [name for name, ident in IDENTITY_REGISTRY.items() if ident.involutory] == ["star-sandwich"]


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


# M, N and fiber are the slowest monoids to search, so they are compared at
# seed 0 only and the other monoids at seeds 0-2.
ORACLE_MONOIDS = {
    "M": (_registered("M"), [0]),
    "N": (_registered("N"), [0]),
    "A21": (_registered("A21"), [0, 1, 2]),
    "sdp": (_registered("sdp"), [0, 1, 2]),
    "rees": (_registered("rees"), [0, 1, 2]),
    "fiber": (_registered("fiber"), [0]),
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


def test_no_search_forms_a_product_twice():
    """Each distinct pair of factors is multiplied once per search."""
    for name, identity in (("rees", "zimin4-compression"), ("fiber", "interior-swap-nested")):
        monoid = MONOIDS[name]()
        formed = Counter()

        def mul(x, y):
            formed[x, y] += 1
            return monoid.mul(x, y)

        counted = dataclasses.replace(monoid, mul=mul)
        verdict = check_identity(IDENTITY_REGISTRY[identity], counted, 4000, 0)
        assert verdict == check_identity(IDENTITY_REGISTRY[identity], monoid, 4000, 0)
        assert formed and max(formed.values()) == 1, (name, formed.most_common(1))


def test_a_search_that_drops_its_table_after_each_substitution_agrees(monkeypatch):
    """With SEARCH_TABLE_SIZE 0 a search keeps only its base ids between
    substitutions; its verdicts and witnesses stay the same."""
    expected = {}
    for name, (make, _) in ORACLE_MONOIDS.items():
        monoid = make()
        for key, identity in IDENTITY_REGISTRY.items():
            expected[name, key] = _outcome(check_identity, identity, monoid, 4000, 0)
    drops = Counter()
    drop = identities._ProductTable.drop

    def counted_drop(table):
        drops[table.mul] += 1
        drop(table)

    monkeypatch.setattr(identities, "SEARCH_TABLE_SIZE", 0)
    monkeypatch.setattr(identities._ProductTable, "drop", counted_drop)
    for name, (make, _) in ORACLE_MONOIDS.items():
        monoid = make()
        for key, identity in IDENTITY_REGISTRY.items():
            got = _outcome(check_identity, identity, monoid, 4000, 0)
            assert got == expected[name, key], (name, key)
        assert (drops[monoid.mul] > 0) == (monoid.table is None), name


@pytest.mark.parametrize("field", ["pool", "elements"])
def test_search_values_that_cannot_be_numbered_are_rejected_before_any_product(field):
    """Unhashable values, and values that are no index of the monoid's
    table, raise RangeError."""
    formed = []

    def mul(x, y):
        formed.append((x, y))
        return x + y

    commutation = IDENTITY_REGISTRY["commutation"]
    lists = Monoid(name="lists", mul=mul, one=[], **{field: ([0], [1])})
    with pytest.raises(RangeError, match=r"hashable, not \[0\]"):
        check_identity(commutation, lists, 4000, 0)
    assert formed == []
    ann3 = dataclasses.replace(MONOIDS["ann3"](), **{"elements": None, field: (0, 12)})
    with pytest.raises(RangeError, match="12 is not an index of the table"):
        check_identity(commutation, ann3, 4000, 0)


def test_a_witness_holds_the_drawn_value_among_equal_ones():
    """1 and True are equal and share an id; the witness still holds the
    object at the position drawn, as evaluate's search does."""
    monoid = Monoid(name="and", mul=lambda x, y: x and y, one=1, pool=(1, True, 0))
    identity = parse_identity("xy=y")
    drawn = check_identity(identity, monoid, 8, 0)
    assert str(drawn) == "fails (substitution witness; x=0, y=True)"
    assert drawn == _check_identity_reference(identity, monoid, 8, 0)
    exhausted = check_identity(identity, monoid, 9, 0)
    assert str(exhausted) == "fails (substitution witness; x=0, y=1)"


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
