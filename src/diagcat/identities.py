"""Words, section invariants, and exact identity decision procedures.

A word is a finite sequence of letters a..z; an involutory word may mark
symbols with a star.  The engine revolves around two complete invariants:

* all left and right sections balanced: equivalent to equality of normal
  forms, where the normal form sorts every interior block of the extreme
  representation;
* all sections balanced mod 2 (plus balancedness): equivalent to equality
  of canonical forms, computed here as the lexicographically least word
  with the same section-parity data.  A greedy walk builds it letter by
  letter: it takes the least letter after which the rest can still be
  completed, which depends only on the letters placed and the remaining
  counts; that search is memoised and bounded (BoundExceeded past
  MAX_CANONICAL_STATES keys, never reached by words of 16 letters or
  fewer).

The canonical form is deliberately not the classical "reduce exponents
except in the leftmost block" construction: that construction distinguishes
yxxyyxx from yyyxxxx although both have identical section parities (and
are equal under every parity-twisted substitution), so it would be finer
than the decision procedure it is meant to mirror.

A generic substitution checker runs identities against finite tables
exhaustively and against infinite monoids over seeded witness pools.
The band extensions M and N carry their criteria (balanced sections, and
sections balanced mod 2) as exact deciders, which the checker returns in
place of a search: "holds", or "fails" with a witness built from the
first condition broken.  MONOIDS names every ready-made monoid context.

Parsed words hold at most MAX_WORD_SYMBOLS symbols; a longer one raises
BoundExceeded before its repeats are expanded.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

from .errors import (
    BoundExceeded,
    EmptyWord,
    MissingLetter,
    NoInvolution,
    NotInteriorFactor,
    ParseError,
    RangeError,
)
from . import auxmonoids as am
from .annular import build_ann_monoid
from .cobordisms import compose_cobordism, make_cobordism, sigma
from .partitions import _require_int, identity_partition

__all__ = [
    "Word",
    "IWord",
    "Identity",
    "MAX_WORD_SYMBOLS",
    "MAX_CANONICAL_STATES",
    "parse_word",
    "parse_iword",
    "parse_identity",
    "zimin",
    "content",
    "left_section",
    "right_section",
    "ExtremeRep",
    "extreme_rep",
    "normal_form",
    "canonical_form",
    "holds_in_M",
    "holds_in_N",
    "SortStep",
    "sort_step",
    "sort_to_normal",
    "evaluate",
    "Monoid",
    "Verdict",
    "check_identity",
    "IDENTITY_REGISTRY",
    "identity_by_name",
    "zimin_sorted_pair",
    "star_mix_words",
    "monoid_M",
    "monoid_N",
    "monoid_A21",
    "monoid_SDP",
    "monoid_REES",
    "monoid_from_table",
    "MONOIDS",
]


_TOKEN = re.compile(r"([a-z])(\d*)(\*?)", re.ASCII)


@dataclass(frozen=True)
class Word:
    """Plain word; letters are single characters a..z."""

    letters: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        got = self.letters[i]
        return Word(got) if isinstance(i, slice) else got

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        out = []
        for ch, run in itertools.groupby(self.letters):
            n = len(list(run))
            out.append(ch if n == 1 else f"{ch}{n}")
        return "".join(out)

    def __repr__(self) -> str:
        return f"Word({self})"


@dataclass(frozen=True)
class IWord:
    """Involutory word: symbols are (letter, starred) pairs."""

    symbols: tuple[tuple[str, bool], ...] = ()

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return "1" if not self.symbols else "".join(
            ch + ("*" if s else "") for ch, s in self.symbols
        )

    def __repr__(self) -> str:
        return f"IWord({self})"


MAX_WORD_SYMBOLS = 1_000_000
# Keys the canonical-form search may hold before it raises BoundExceeded.
MAX_CANONICAL_STATES = 100_000
# Swaps sort_to_normal may make before it gives up.
_SORT_GUARD = 100_000


def _parse_symbols(text: str) -> list[tuple[str, bool]]:
    text = text.strip()
    if text == "1":
        return []
    out: list[tuple[str, bool]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad word syntax at {text[pos:]!r}")
        ch, digits, star = m.groups()
        digits = digits.lstrip("0") if digits else "1"
        # A repeat with more digits than the limit is over it; int() and
        # the expansion below are only reached for counts that fit.
        if len(digits) > len(str(MAX_WORD_SYMBOLS)):
            raise BoundExceeded(f"word longer than {MAX_WORD_SYMBOLS} symbols")
        count = int(digits) if digits else 0
        if count < 1:
            raise ParseError(f"zero repeat in {m.group(0)!r}")
        if len(out) + count > MAX_WORD_SYMBOLS:
            raise BoundExceeded(f"word longer than {MAX_WORD_SYMBOLS} symbols")
        out.extend([(ch, bool(star))] * count)
        pos = m.end()
    return out


def parse_word(text: str) -> Word:
    """Parse letters with optional repeat digits, e.g. x3yx = xxxyx."""
    syms = _parse_symbols(text)
    if any(s for _, s in syms):
        raise ParseError("starred symbols need an involutory context")
    return Word(tuple(ch for ch, _ in syms))


def parse_iword(text: str) -> IWord:
    return IWord(tuple(_parse_symbols(text)))


@dataclass(frozen=True)
class Identity:
    lhs: Union[Word, IWord]
    rhs: Union[Word, IWord]

    def __post_init__(self):
        if isinstance(self.lhs, IWord) != isinstance(self.rhs, IWord):
            raise ParseError("both sides must share a flavor")

    @property
    def involutory(self) -> bool:
        return isinstance(self.lhs, IWord)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


def parse_identity(text: str) -> Identity:
    if text.count("=") != 1:
        raise ParseError("an identity needs exactly one '='")
    left, right = text.split("=")
    if "*" in text:
        return Identity(parse_iword(left), parse_iword(right))
    return Identity(parse_word(left), parse_word(right))


def zimin(k: int) -> Word:
    """z(1) = a, z(k+1) = z(k) + next letter + z(k)."""
    if not 1 <= _require_int(k, "Zimin depth") <= 26:
        raise RangeError("need 1 <= k <= 26")
    letters: tuple[str, ...] = ("a",)
    for i in range(1, k):
        letters = letters + (chr(ord("a") + i),) + letters
    return Word(letters)


# -- counting and sections ---------------------------------------------------

def content(w: Word) -> frozenset[str]:
    return frozenset(w.letters)


def left_section(w: Word, x: str) -> Word:
    """Longest prefix avoiding x; w itself when x does not occur."""
    try:
        return Word(w.letters[: w.letters.index(x)])
    except ValueError:
        return w


def right_section(x: str, w: Word) -> Word:
    """Longest suffix avoiding x."""
    for i in range(len(w.letters) - 1, -1, -1):
        if w.letters[i] == x:
            return Word(w.letters[i + 1 :])
    return w


# -- extreme representation and the two normal forms -------------------------

class ExtremeRep(NamedTuple):
    e: Word                      # word of extreme occurrences
    blocks: tuple[Word, ...]     # interior blocks, len(e) - 1 of them

    def reassemble(self) -> Word:
        out: tuple[str, ...] = (self.e.letters[0],)
        for z, block in zip(self.e.letters[1:], self.blocks):
            out += block.letters + (z,)
        return Word(out)

    def __str__(self) -> str:
        parts = [self.e.letters[0]]
        for z, block in zip(self.e.letters[1:], self.blocks):
            parts.append(str(block))
            parts.append(z)
        return ".".join(parts)


def _extreme_positions(w: Word) -> list[int]:
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    for i, ch in enumerate(w.letters):
        first.setdefault(ch, i)
        last[ch] = i
    marks = set(first.values()) | set(last.values())
    return sorted(marks)


def extreme_rep(w: Word) -> ExtremeRep:
    """Split w at the leftmost and rightmost occurrence of each letter."""
    if not w.letters:
        raise EmptyWord("the empty word has no extreme representation")
    marks = _extreme_positions(w)
    e = Word(tuple(w.letters[i] for i in marks))
    blocks = tuple(
        Word(w.letters[a + 1 : b]) for a, b in zip(marks, marks[1:])
    )
    k = len(set(w.letters))
    n = len(e) - 1
    assert k - 1 <= n < 2 * k
    return ExtremeRep(e, blocks)


def _sorted_word(w: Word) -> Word:
    return Word(tuple(sorted(w.letters)))


def normal_form(w: Word) -> Word:
    """Sort every interior block."""
    rep = extreme_rep(w)
    return ExtremeRep(rep.e, tuple(_sorted_word(b) for b in rep.blocks)).reassemble()


def _event_signatures(word: list[int]) -> dict[int, tuple[int, int]]:
    """For each letter index of word, the (support, parity) bitmasks of the
    prefix before its first occurrence; fed the reversed word, of the
    suffix after its last occurrence."""
    sig: dict[int, tuple[int, int]] = {}
    support = parity = 0
    for i in word:
        sig.setdefault(i, (support, parity))
        support |= 1 << i
        parity ^= 1 << i
    return sig


def _canonical_letters(letters: tuple[str, ...]) -> tuple[str, ...]:
    alphabet = sorted(set(letters))
    k = len(alphabet)
    index = {ch: i for i, ch in enumerate(alphabet)}
    word = [index[ch] for ch in letters]
    first = _event_signatures(word)
    last = _event_signatures(word[::-1])
    counts = [0] * k
    for i in word:
        counts[i] += 1
    count_parity = sum((c & 1) << x for x, c in enumerate(counts))
    # A remainder holds at most 2k events (first and last occurrences), so
    # 2k + 1 gaps between them.  Of more than 2k + 1 copies of a letter that
    # are not events two share a gap, and removing that pair (or doubling a
    # copy) changes no section's content or parity; so a remaining count
    # above `top` may be capped to top - 1 or top by parity.
    top = 2 * k + 3

    def cap(c: int) -> int:
        return c if c <= top else top - 1 + (c & 1)

    width = top.bit_length()
    shifts = [width * x for x in range(k)]
    field = (1 << width) - 1
    full = (1 << k) - 1

    # A state is (placed: mask of the letters placed at least once, rest:
    # the capped remaining counts packed in `width`-bit fields, support:
    # mask of the letters remaining, parity: mask of the odd remaining
    # counts); its key is rest and placed packed into one int.
    def moves(state):
        """(letter, next state) for each letter whose placement next meets
        the prefix signature of a first occurrence and the suffix
        signature of a last one."""
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

    memo = {full: True}  # key -> whether the remaining letters can follow

    def completable(state) -> bool:
        """Depth-first search in letter order; a state whose moves all fail
        is recorded False, and on reaching a True state every state on
        the stack is recorded True."""
        key = state[1] << k | state[0]
        if key in memo:
            return memo[key]
        stack = [(key, moves(state))]
        while stack:
            key, branches = stack[-1]
            for _, child in branches:
                child_key = child[1] << k | child[0]
                if child_key not in memo:
                    if len(memo) + len(stack) >= MAX_CANONICAL_STATES:
                        raise BoundExceeded(
                            "canonical form search exceeded "
                            f"{MAX_CANONICAL_STATES} states"
                        )
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
                # moves() lowered the capped count by one; re-cap the real one.
                placed, rest, support, parity = child
                rest += (cap(remaining[x] - 1) - cap(remaining[x]) + 1) << shifts[x]
                child = (placed, rest, support, parity)
            if completable(child):
                break
        else:
            raise AssertionError("unreachable: w itself completes every prefix taken")
        out.append(alphabet[x])
        remaining[x] -= 1
        state = child
    return tuple(out)


def canonical_form(w: Word) -> Word:
    """Lexicographically least word sharing w's section parities.

    A greedy walk places, at each step, the least letter after which the
    rest of the word can still be completed.  Placing a letter for the
    first time must meet its prefix signature (the letters placed so far
    and their parities), and placing its last copy its suffix signature
    (the letters remaining and their parities), so whether a remainder
    can be completed depends on the set of letters placed and the
    remaining counts alone; it is searched depth first and memoised on
    that key, with counts above 2k + 3 (k distinct letters) capped to
    2k + 2 or 2k + 3 by parity, which changes no answer.  The key takes
    at most prod(c + 1) values over the letter counts c, so at most
    2^len(w); BoundExceeded is raised once the search would hold more
    than MAX_CANONICAL_STATES keys, which no word of 16 letters or fewer
    reaches.
    """
    if not w.letters:
        raise EmptyWord("the empty word has no canonical form")
    return Word(_canonical_letters(w.letters))


def _imbalance(u: Word, v: Word, modulus: Optional[int]):
    """Where u = v first breaks the section criterion, or None when it
    holds.  (None, y, False) when the letter y occurs a different number
    of times in u and v; else (x, y, present) for the first section at a
    letter x, left before right, in which y's counts differ (modulo
    `modulus` when one is given: present False) or, agreeing modulo it,
    are zero on one side only (present True).  Letters go in sorted order."""
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


def holds_in_M(u: Word, v: Word) -> bool:
    """All left and right sections balanced (and the identity itself,
    which is its own section at any unused letter)."""
    return _imbalance(u, v, None) is None


def holds_in_N(u: Word, v: Word) -> bool:
    """Balanced, and all sections balanced mod 2."""
    return _imbalance(u, v, 2) is None


# -- the sorting rewriter ----------------------------------------------------

class SortStep(NamedTuple):
    word: Word
    rule: str        # "interior-swap-nested" or "interior-swap-crossed"
    direction: str   # "left-to-right" or "right-to-left"


def sort_step(w: Word, pos: int) -> SortStep:
    """Swap a descending adjacent interior pair at (pos, pos + 1).

    Which of the two basis identities justifies the swap, and in which
    direction it is read, depends on how the extreme occurrences of the
    two letters interleave.
    """
    if not 0 <= pos < len(w.letters) - 1:
        raise NotInteriorFactor(f"no adjacent pair at position {pos}")
    big, small = w.letters[pos], w.letters[pos + 1]
    if big <= small:
        raise NotInteriorFactor(f"{big}{small} is not a descending pair")
    marks = set(_extreme_positions(w))
    if pos in marks or pos + 1 in marks:
        raise NotInteriorFactor("the pair touches an extreme occurrence")
    first_small = w.letters.index(small)
    first_big = w.letters.index(big)
    last_small = len(w.letters) - 1 - w.letters[::-1].index(small)
    last_big = len(w.letters) - 1 - w.letters[::-1].index(big)
    if first_small < first_big:
        rule, direction = (
            ("interior-swap-crossed", "right-to-left")
            if last_small < last_big
            else ("interior-swap-nested", "right-to-left")
        )
    else:
        rule, direction = (
            ("interior-swap-nested", "left-to-right")
            if last_small < last_big
            else ("interior-swap-crossed", "left-to-right")
        )
    swapped = list(w.letters)
    swapped[pos], swapped[pos + 1] = small, big
    return SortStep(Word(tuple(swapped)), rule, direction)


def sort_to_normal(w: Word) -> tuple[Word, int]:
    """Apply sort_step at the leftmost descending interior pair until
    none remains; returns the result and the number of steps."""
    steps = 0
    for _ in range(_SORT_GUARD):
        marks = set(_extreme_positions(w))
        target = None
        for i in range(len(w.letters) - 1):
            if i in marks or i + 1 in marks:
                continue
            if w.letters[i] > w.letters[i + 1]:
                target = i
                break
        if target is None:
            return w, steps
        w = sort_step(w, target).word
        steps += 1
    raise AssertionError("sorting did not terminate")


# -- evaluation and search ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class Monoid:
    """Duck-typed multiplication context for evaluate/check_identity.

    elements, when given, makes the monoid finite and checks exhaustive;
    pool is the witness pool used for infinite monoids.  decide, when
    given, is an exact decision procedure that check_identity returns
    instead of searching; a caller that wants the search strips it with
    dataclasses.replace(monoid, decide=None).
    """

    name: str
    mul: Callable
    one: object = None
    star: Optional[Callable] = None
    elements: Optional[tuple] = None
    pool: tuple = ()
    decide: Optional[Callable[[Identity], "Verdict"]] = None


def _symbols(w: Union[Word, IWord]) -> tuple[tuple[str, bool], ...]:
    """The (letter, starred) symbols of a plain or involutory word."""
    return w.symbols if isinstance(w, IWord) else tuple((ch, False) for ch in w.letters)


def evaluate(w: Union[Word, IWord], subst, monoid: Monoid):
    symbols = _symbols(w)
    if not symbols:
        if monoid.one is None:
            raise EmptyWord(f"{monoid.name} has no designated identity")
        return monoid.one
    acc = None
    for ch, starred in symbols:
        if ch not in subst:
            raise MissingLetter(f"no value for letter {ch!r}")
        val = subst[ch]
        if starred:
            if monoid.star is None:
                raise NoInvolution(f"{monoid.name} has no involution")
            val = monoid.star(val)
        acc = val if acc is None else monoid.mul(acc, val)
    return acc


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds", "fails", "unknown"
    evidence: str
    witness: Optional[dict] = None

    def __str__(self) -> str:
        if self.witness is None:
            return f"{self.status} ({self.evidence})"
        inside = ", ".join(f"{k}={v!r}" for k, v in sorted(self.witness.items()))
        return f"{self.status} ({self.evidence}; {inside})"


def _identity_letters(identity: Identity) -> list[str]:
    symbols = _symbols(identity.lhs) + _symbols(identity.rhs)
    return sorted({ch for ch, _ in symbols})


def _side_evaluator(w: Union[Word, IWord], letters: list[str], monoid: Monoid):
    """One side of an identity compiled to a function of the letter values
    (in the order of letters) that equals evaluate(w, subst, monoid) and
    raises as evaluate does, when it is called.  A monoid from
    monoid_from_table multiplies through its table rows."""
    symbols = _symbols(w)
    if not symbols:
        def constant(values):
            if monoid.one is None:
                raise EmptyWord(f"{monoid.name} has no designated identity")
            return monoid.one
        return constant
    star = monoid.star
    if star is None and any(starred for _, starred in symbols):
        def unstarrable(values):
            raise NoInvolution(f"{monoid.name} has no involution")
        return unstarrable
    slot = {ch: i for i, ch in enumerate(letters)}
    # Starred letters read the stars of their values, appended after the
    # values themselves.
    starred = sorted({slot[ch] for ch, s in symbols if s})
    code = [len(letters) + starred.index(slot[ch]) if s else slot[ch] for ch, s in symbols]
    head, tail = code[0], code[1:]
    mul = monoid.mul
    rows = None
    if getattr(mul, "__func__", None) is am.FiniteMonoid.mul:
        rows = mul.__self__.table

    def run(values):
        if starred:
            values = [*values, *[star(values[i]) for i in starred]]
        acc = values[head]
        if rows is not None:
            for i in tail:
                acc = rows[acc][values[i]]
        else:
            for i in tail:
                acc = mul(acc, values[i])
        return acc

    return run


def check_identity(
    identity: Identity,
    monoid: Monoid,
    budget: int = 200_000,
    seed: int = 0,
) -> Verdict:
    """Decide the identity by the monoid's decide when it has one, else
    search substitutions for a counterexample.

    A finite monoid (elements given) whose substitutions fit the budget is
    checked exhaustively, yielding holds or fails.  Otherwise the search
    runs over the witness pool (the elements when there is none): all of
    its substitutions when they fit the budget, else budget seeded draws,
    yielding fails or unknown.  The sides are deterministic, so a pool
    once enumerated is not drawn from again.  The budget must be a
    non-negative int (RangeError otherwise).
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise RangeError(f"budget must be a non-negative int, not {budget!r}")
    if monoid.decide is not None:
        return monoid.decide(identity)
    letters = _identity_letters(identity)
    k = len(letters)
    lhs = _side_evaluator(identity.lhs, letters, monoid)
    rhs = _side_evaluator(identity.rhs, letters, monoid)

    values = monoid.elements
    exhaustive = values is not None and len(values) ** k <= budget
    if not exhaustive:
        values = tuple(monoid.pool) or (values or ())
        if not values:
            return Verdict("unknown", "no witness pool")
    if len(values) ** k <= budget:
        substitutions = itertools.product(values, repeat=k)
    else:
        rng = random.Random(seed)
        substitutions = ([rng.choice(values) for _ in range(k)] for _ in range(budget))
    for subst in substitutions:
        if lhs(subst) != rhs(subst):
            return Verdict("fails", "substitution witness", dict(zip(letters, subst)))
    if exhaustive:
        return Verdict("holds", f"exhausted {len(values)}^{k} substitutions")
    return Verdict("unknown", f"no witness within budget {budget}")


# -- registry ----------------------------------------------------------------

IDENTITY_REGISTRY: dict[str, Identity] = {
    # swap an interior xy when the frame re-enters y then closes with x
    "interior-swap-nested": parse_identity("xtyuxyvywx = xtyuyxvywx"),
    # swap an interior xy when the frame re-enters x then closes with y
    "interior-swap-crossed": parse_identity("xtyuxyvxwy = xtyuyxvxwy"),
    # move a square of x across material between its extreme occurrences
    "cube-transport": parse_identity("x3yx = xyx3"),
    # the depth-3 self-embedding word against its letter shuffle
    "zimin3-shuffle": parse_identity("abacaba = acababa"),
    # candidate compression of the depth-4 word; registered, not assumed
    "zimin4-compression": parse_identity("abacabadabacaba = abacbaadabacaba"),
    "commutation": parse_identity("xy = yx"),
    # the inverse-like law that collapses involutory Zimin chains
    "star-sandwich": parse_identity("x = xx*x"),
}


def identity_by_name(name: str) -> Identity:
    if name not in IDENTITY_REGISTRY:
        raise ParseError(f"unknown registered identity {name!r}")
    return IDENTITY_REGISTRY[name]


def zimin_sorted_pair(k: int) -> Identity:
    """The depth-k Zimin word against the sorted arrangement of the same
    letters; the sorted side contains a square of the first letter for
    k >= 2, which parity-position substitutions separate."""
    z = zimin(k)
    return Identity(z, _sorted_word(z))


def star_mix_words(t: int) -> list[IWord]:
    """Involutory one-letter words of length t starting and ending with
    the plain letter and carrying one starred occurrence inside."""
    out = []
    for i in range(1, _require_int(t, "word length") - 1):
        syms = [("x", False)] * t
        syms[i] = ("x", True)
        out.append(IWord(tuple(syms)))
    return out


# -- ready-made monoid contexts ---------------------------------------------

def _decide_band(instance: am.JEInstance, identity: Identity) -> Verdict:
    """The section criterion of a band extension: sections compared modulo
    the instance's modulus.  A failure comes with the witness built from
    the first condition broken (see _imbalance): y counted differently
    gets y = 1; y counted differently in a section at x gets x = (0,0),
    y = 1; y present in that section on one side only gets x = (0,0),
    y = (1,1); every other letter gets 0."""
    if identity.involutory:
        raise ParseError("the structural criteria take plain words")
    where = _imbalance(identity.lhs, identity.rhs, instance.modulus)
    if where is None:
        return Verdict("holds", "structural criterion")
    x, y, present = where
    witness = {ch: am.je_s(instance, 0) for ch in _identity_letters(identity)}
    if x is not None:
        witness[x] = am.je_pair(instance, 0, 0)
    witness[y] = am.je_pair(instance, 1, 1) if present else am.je_s(instance, 1)
    return Verdict("fails", "structural criterion", witness)


def _band_extension(name: str, instance: am.JEInstance, scalars, coordinates) -> Monoid:
    """The monoid of one band extension, its pool the given scalars, then
    every pair of the given coordinates, decided by its section criterion."""
    pool = [am.je_s(instance, s) for s in scalars]
    pool += [am.je_pair(instance, l, r) for l in coordinates for r in coordinates]
    return Monoid(
        name=name,
        mul=am.je_mul,
        one=am.je_s(instance, 0),
        pool=tuple(pool),
        decide=functools.partial(_decide_band, instance),
    )


def monoid_M() -> Monoid:
    """Ideal extension of the integer-pair band by additive integers; an
    identity holds in it exactly when holds_in_M says so."""
    return _band_extension("M", am.JE_INT, range(-2, 3), range(-2, 3))


def monoid_N() -> Monoid:
    """Ideal extension of the two-point band by parity-acting integers; an
    identity holds in it exactly when holds_in_N says so."""
    return _band_extension("N", am.JE_PARITY, range(4), range(2))


def monoid_A21() -> Monoid:
    return Monoid(
        name="A21",
        mul=am.a21_mul,
        one=am.A2_ONE,
        star=am.a21_star,
        elements=am.a21_elements(),
    )


def monoid_SDP() -> Monoid:
    c = am.CF_CIRCLE
    cc = c.enclose()
    pool = [
        am.SDP_ONE,
        am.SDPElement(c, am.CF_EMPTY, 1),
        am.SDPElement(am.CF_EMPTY, c, 1),
        am.SDPElement(cc, am.CF_EMPTY, 1),
        am.SDPElement(c, am.CF_EMPTY, 0),
        am.SDPElement(am.CF_EMPTY, am.CF_EMPTY, 1),
        am.SDPElement(am.CF_EMPTY, am.CF_EMPTY, -1),
        am.SDPElement(c, cc, 2),
    ]
    return Monoid(
        name="sdp",
        mul=am.sdp_mul,
        one=am.SDP_ONE,
        star=am.sdp_star,
        pool=tuple(pool),
    )


def monoid_REES() -> Monoid:
    z = am.CF_EMPTY
    c = am.CF_CIRCLE
    pool = [
        am.REES_ONE,
        am.ReesL2Element(z, z, z),
        am.ReesL2Element(z, z, c),
        am.ReesL2Element(c, z, z),
        am.ReesL2Element(c, z, c),
        am.ReesL2Element(z, c, z),
    ]
    return Monoid(
        name="rees",
        mul=am.rees_mul_1,
        one=am.REES_ONE,
        star=am.rees_star_1,
        pool=tuple(pool),
    )


def monoid_from_table(fm: am.FiniteMonoid, name: str = "table") -> Monoid:
    star = None
    if fm.star is not None:
        star = lambda i: fm.star[i]
    return Monoid(
        name=name,
        mul=fm.mul,
        one=fm.one,
        star=star,
        elements=tuple(range(fm.size)),
    )


def _monoid_fiber() -> Monoid:
    """Search context inside the composition fiber over the one-string
    identity base: single-block values with a genus label and a spectrum."""
    e = identity_partition(1)
    pool = [make_cobordism(e, (g,), spectrum, True)
            for g in (-1, 0, 1)
            for spectrum in ((), ((0, 1),), ((1, 1),))]
    return Monoid(
        name="fiber",
        mul=compose_cobordism,
        one=make_cobordism(e, (0,), (), True),
        star=sigma,
        pool=tuple(pool),
    )


# Every named monoid context, by the name the CLI takes.
MONOIDS: dict[str, Callable[[], Monoid]] = {
    "M": monoid_M,
    "N": monoid_N,
    "A21": monoid_A21,
    "sdp": monoid_SDP,
    "rees": monoid_REES,
    "ann3": lambda: monoid_from_table(build_ann_monoid(3).monoid, "ann3"),
    "fiber": _monoid_fiber,
}
