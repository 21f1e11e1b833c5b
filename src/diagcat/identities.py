"""Words, section invariants, and exact identity decision procedures.

A word is a finite sequence of letters a..z, any of which may carry a
star for the involution ("x*"); one Word type serves both signatures, and
a word is involutory when it has a starred letter.  The section
invariants, the normal and canonical forms and the sorting rewriter take
plain words only and raise ParseError on an involutory one.  The engine
revolves around two complete invariants:

* all left and right sections balanced: equivalent to equality of normal
  forms, where the normal form sorts every interior block of the extreme
  representation;
* all sections balanced mod 2 (plus balancedness): equivalent to equality
  of canonical forms, computed here as the lexicographically least word
  with the same section-parity data.  One depth-first search tries
  letters in order; every completion has the word's length, so the first
  it reaches is the answer.  Whether the rest can still be completed
  depends only on the letters placed and the remaining counts, so the
  states found dead are remembered under that key, and the search is
  bounded (BoundExceeded past MAX_CANONICAL_STATES dead keys, never
  reached by words of 16 letters or fewer).

The canonical form is deliberately not the classical "reduce exponents
except in the leftmost block" construction: that construction distinguishes
yxxyyxx from yyyxxxx although both have identical section parities (and
are equal under every parity-twisted substitution), so it would be finer
than the decision procedure it is meant to mirror.

A generic substitution checker runs identities against finite tables
exhaustively and against infinite monoids over seeded witness pools; it
numbers the values it meets and forms each distinct product once.
The band extensions M and N carry their criteria (balanced sections, and
sections balanced mod 2) as exact deciders, which the checker returns in
place of a search: "holds", or "fails" with a witness built from the
first condition broken.  MONOIDS names every ready-made monoid context.

Parsed words hold at most MAX_WORD_SYMBOLS symbols; a longer one raises
BoundExceeded before its repeats are expanded.  A word prints in the
notation parse_word reads, a run of k copies of x as xk and of x* as xk*.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
import string
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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
    "Identity",
    "MAX_WORD_SYMBOLS",
    "MAX_CANONICAL_STATES",
    "parse_word",
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
    "sort_step",
    "sort_to_normal",
    "evaluate",
    "Monoid",
    "Verdict",
    "check_identity",
    "IDENTITY_REGISTRY",
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
_SYMBOLS = frozenset(ch + star for ch in string.ascii_lowercase for star in ("", "*"))


@dataclass(frozen=True)
class Word:
    """Word of the plain or the involutory signature: one string per
    symbol, a letter a..z, or the letter and a star ("x*") for its
    involution."""

    letters: tuple[str, ...] = ()

    def __post_init__(self):
        """RangeError unless letters is a tuple of symbols."""
        letters = self.letters
        try:
            if isinstance(letters, tuple) and _SYMBOLS.issuperset(letters):
                return
        except TypeError:  # an unhashable item
            pass
        if isinstance(letters, tuple):
            letters = next(s for s in letters if not (isinstance(s, str) and s in _SYMBOLS))
        raise RangeError(f"a word holds a tuple of symbols a..z and a*..z*, not {letters!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        out = []
        for sym, run in itertools.groupby(self.letters):
            n = len(list(run))
            out.append(sym if n == 1 else f"{sym[0]}{n}{sym[1:]}")
        return "".join(out)

    def __repr__(self) -> str:
        return f"Word({self})"


MAX_WORD_SYMBOLS = 1_000_000
# Dead keys the canonical-form search may hold before it raises
# BoundExceeded; its path is bounded by the word's length.
MAX_CANONICAL_STATES = 100_000


def parse_word(text: str) -> Word:
    """Parse letters with optional repeat digits and star, e.g. x3yx =
    xxxyx and x2*y = x*x*y."""
    text = text.strip()
    if text == "1":
        return Word()
    out: list[str] = []
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
        out.extend([ch + star] * count)
        pos = m.end()
    return Word(tuple(out))


def _starred(w: Word) -> bool:
    return "*" in "".join(w.letters)


@dataclass(frozen=True)
class Identity:
    lhs: Word
    rhs: Word

    @property
    def involutory(self) -> bool:
        """True when a side has a starred letter."""
        return _starred(self.lhs) or _starred(self.rhs)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


def parse_identity(text: str) -> Identity:
    if text.count("=") != 1:
        raise ParseError("an identity needs exactly one '='")
    left, right = text.split("=")
    return Identity(parse_word(left), parse_word(right))


def zimin(k: int) -> Word:
    """z(1) = a, z(k+1) = z(k) + next letter + z(k).

    z(k) has 2^k - 1 letters, so for 20 <= k <= 26 it would exceed
    MAX_WORD_SYMBOLS; those depths raise BoundExceeded before any letter
    is built.
    """
    if not 1 <= _require_int(k, "Zimin depth") <= 26:
        raise RangeError("need 1 <= k <= 26")
    if (1 << k) - 1 > MAX_WORD_SYMBOLS:
        raise BoundExceeded(f"z({k}) is longer than {MAX_WORD_SYMBOLS} symbols")
    letters: tuple[str, ...] = ("a",)
    for i in range(1, k):
        letters = letters + (chr(ord("a") + i),) + letters
    return Word(letters)


# -- counting and sections ---------------------------------------------------

def _plain_letters(w: Word, what: str) -> tuple[str, ...]:
    """w's letters; ParseError when one is starred."""
    if _starred(w):
        raise ParseError(what)
    return w.letters


def content(w: Word) -> frozenset[str]:
    """The letters of w.  ParseError on an involutory word."""
    return frozenset(_plain_letters(w, "content takes a plain word"))


def left_section(w: Word, x: str) -> Word:
    """Longest prefix avoiding x; w itself when x does not occur.
    ParseError on an involutory word."""
    letters = _plain_letters(w, "left_section takes a plain word")
    try:
        return Word(letters[: letters.index(x)])
    except ValueError:
        return w


def right_section(x: str, w: Word) -> Word:
    """Longest suffix avoiding x.  ParseError on an involutory word."""
    letters = _plain_letters(w, "right_section takes a plain word")
    for i in range(len(letters) - 1, -1, -1):
        if letters[i] == x:
            return Word(letters[i + 1 :])
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
    """Split w at the leftmost and rightmost occurrence of each letter.
    ParseError on an involutory word."""
    if not _plain_letters(w, "extreme_rep takes a plain word"):
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


def normal_form(w: Word) -> Word:
    """Sort every interior block: the letters strictly between two
    consecutive extreme occurrences.  ParseError on an involutory word."""
    letters = _plain_letters(w, "normal_form takes a plain word")
    if not letters:
        raise EmptyWord("the empty word has no extreme representation")
    marks = _extreme_positions(w)
    out = [letters[0]]
    for a, b in zip(marks, marks[1:]):
        out += sorted(letters[a + 1 : b])
        out.append(letters[b])
    return Word(tuple(out))


def _event_signatures(word: list[int], k: int) -> tuple[list[int], list[int]]:
    """For each letter index x < k, the support and parity bitmasks of
    the prefix of word before its first occurrence; fed the reversed word,
    of the suffix after its last occurrence."""
    supports, parities = [0] * k, [0] * k
    support = parity = 0
    for x in word:
        bit = 1 << x
        if not support & bit:
            supports[x], parities[x] = support, parity
            support |= bit
        parity ^= bit
    return supports, parities


def _canonical_letters(letters: tuple[str, ...]) -> tuple[str, ...]:
    alphabet = sorted(set(letters))
    k = len(alphabet)
    index = {ch: i for i, ch in enumerate(alphabet)}
    word = [index[ch] for ch in letters]
    first_support, first_parity = _event_signatures(word, k)
    last_support, last_parity = _event_signatures(word[::-1], k)
    remaining = [0] * k
    for x in word:
        remaining[x] += 1
    # A remainder holds at most 2k events (first and last occurrences), so
    # 2k + 1 gaps between them.  Of more than 2k + 1 copies of a letter that
    # are not events two share a gap, and removing that pair (or doubling a
    # copy) changes no section's content or parity; so a remaining count
    # above `top` may be capped to top - 1 or top by parity.
    top = 2 * k + 3
    width = top.bit_length()
    units = [1 << width * x for x in range(k)]
    count_parity = sum((c & 1) << x for x, c in enumerate(remaining))
    total = remaining[:]
    # The state: placed, the mask of the letters placed at least once;
    # rest, the capped remaining counts packed in `width`-bit fields;
    # support, the mask of the letters remaining; parity, the mask of the
    # odd remaining counts.  Its key is rest and placed packed into one int.
    placed, support, parity = 0, (1 << k) - 1, count_parity
    rest = sum((c if c <= top else top - 1 + (c & 1)) * u for c, u in zip(remaining, units))
    bound = MAX_CANONICAL_STATES
    dead = set()  # keys from which the remaining letters cannot follow
    path = []  # the letters placed; popping one undoes its placement
    x = 0
    while len(path) < len(word):
        # The least letter from x on whose placement meets the prefix
        # signature of a first occurrence and the suffix signature of a
        # last one, and leads to a state not known dead.
        while x < k:
            bit = 1 << x
            if support & bit and (placed & bit or (
                    placed == first_support[x] and count_parity ^ parity == first_parity[x])):
                c = remaining[x]
                left = support ^ bit if c == 1 else support
                if c > 1 or (left == last_support[x] and parity ^ bit == last_parity[x]):
                    # Above top an odd count caps to top and an even one
                    # to top - 1, so placing from an even count raises it.
                    after = rest + units[x] if c > top and not c & 1 else rest - units[x]
                    if after << k | placed | bit not in dead:
                        break
            x += 1
        else:
            if len(dead) >= bound:
                raise BoundExceeded(f"canonical form search exceeded {bound} states")
            dead.add(rest << k | placed)
            x = path.pop()
            bit = 1 << x
            remaining[x] += 1
            c = remaining[x]
            rest += -units[x] if c > top and not c & 1 else units[x]
            if c == total[x]:
                placed ^= bit
            support, parity, x = support | bit, parity ^ bit, x + 1
            continue
        path.append(x)
        remaining[x] -= 1
        placed, rest, support, parity, x = placed | bit, after, left, parity ^ bit, 0
    return tuple(alphabet[x] for x in path)


def canonical_form(w: Word) -> Word:
    """Lexicographically least word sharing w's section parities.

    A depth-first search places letters in letter order and stops at
    the first full word it reaches: every completion has the same length,
    so that word is the least.  Placing a letter for the first time must
    meet its prefix signature (the letters placed so far and their
    parities), and placing its last copy its suffix signature (the
    letters remaining and their parities), so whether a remainder can be
    completed depends on the set of letters placed and the remaining
    counts alone; the search remembers the dead ends under that key, with
    counts above 2k + 3 (k distinct letters) capped to 2k + 2 or 2k + 3
    by parity, which changes no answer.  The key takes at most
    prod(c + 1) values over the letter counts c, so at most 2^len(w);
    BoundExceeded is raised once the dead keys would number more than
    MAX_CANONICAL_STATES, which no word of 16 letters or fewer reaches;
    the path holds one letter per letter placed, so a long word with few
    dead keys, such as x150000, completes.  ParseError on an involutory
    word.
    """
    if not _plain_letters(w, "canonical_form takes a plain word"):
        raise EmptyWord("the empty word has no canonical form")
    return Word(_canonical_letters(w.letters))


def _first_sections(letters) -> tuple[dict[str, dict[str, int]], dict[str, int]]:
    """One scan: for each letter, the counts of the letters read before its
    first occurrence, and the counts of all letters.  Fed a word reversed,
    the first map holds each letter's right section instead."""
    counts: dict[str, int] = {}
    sections: dict[str, dict[str, int]] = {}
    for ch in letters:
        if ch in counts:
            counts[ch] += 1
        else:
            sections[ch] = counts.copy()
            counts[ch] = 1
    return sections, counts


def _imbalance(u: Word, v: Word, modulus: Optional[int]):
    """Where u = v first breaks the section criterion, or None when it
    holds.  (None, y, False) when the letter y occurs a different number
    of times in u and v; else (x, y, present) for the first section at a
    letter x, left before right, in which y's counts differ (modulo
    `modulus` when one is given: present False) or, agreeing modulo it,
    are zero on one side only (present True).  Letters go in sorted order.

    Each word is read in one forward scan, which records the left section
    at each letter's first occurrence, and one backward scan, which
    records the right section at its last; the sections are count maps,
    compared in place of Words sliced out per letter."""
    what = "the structural criteria take plain words"
    lu, lv = _plain_letters(u, what), _plain_letters(v, what)
    left_u, count_u = _first_sections(lu)
    left_v, count_v = _first_sections(lv)
    if count_u != count_v:
        y = min(y for y in count_u.keys() | count_v.keys()
                if count_u.get(y) != count_v.get(y))
        return None, y, False
    right_u, _ = _first_sections(reversed(lu))
    right_v, _ = _first_sections(reversed(lv))
    for x in sorted(count_u):
        for cs, ct in ((left_u[x], left_v[x]), (right_u[x], right_v[x])):
            if cs == ct:
                continue
            for y in sorted(cs.keys() | ct.keys()):
                diff = cs.get(y, 0) - ct.get(y, 0)
                if diff if modulus is None else diff % modulus:
                    return x, y, False
                if (y in cs) != (y in ct):
                    return x, y, True
    return None


def holds_in_M(u: Word, v: Word) -> bool:
    """All left and right sections balanced (and the identity itself,
    which is its own section at any unused letter), decided from one
    forward and one backward scan of each word (see _imbalance).
    ParseError on an involutory word."""
    return _imbalance(u, v, None) is None


def holds_in_N(u: Word, v: Word) -> bool:
    """Balanced, and all sections balanced mod 2, decided from the same
    two scans of each word as holds_in_M.  ParseError on an involutory
    word."""
    return _imbalance(u, v, 2) is None


# -- the sorting rewriter ----------------------------------------------------

def sort_step(w: Word, pos: int) -> Word:
    """Swap a descending adjacent interior pair at (pos, pos + 1).

    One of the two interior-swap basis identities justifies the swap,
    whichever way the extreme occurrences of the two letters interleave.
    ParseError on an involutory word.
    """
    letters = _plain_letters(w, "sort_step takes a plain word")
    if not 0 <= pos < len(letters) - 1:
        raise NotInteriorFactor(f"no adjacent pair at position {pos}")
    big, small = letters[pos], letters[pos + 1]
    if big <= small:
        raise NotInteriorFactor(f"{big}{small} is not a descending pair")
    marks = set(_extreme_positions(w))
    if pos in marks or pos + 1 in marks:
        raise NotInteriorFactor("the pair touches an extreme occurrence")
    swapped = list(letters)
    swapped[pos], swapped[pos + 1] = small, big
    return Word(tuple(swapped))


def sort_to_normal(w: Word) -> tuple[Word, int]:
    """Apply sort_step at the leftmost descending interior pair until
    none remains; returns the result and the number of steps.

    A swap of two interior letters moves no extreme occurrence, so the
    marks are found once and each interior block, left to right, is
    sorted in place by insertion: every swap it makes is then the
    leftmost descending interior pair.  The steps are the inversions
    inside the blocks, at most n(n - 1)/2 for n letters.  ParseError on
    an involutory word."""
    out = list(_plain_letters(w, "sort_to_normal takes a plain word"))
    marks = _extreme_positions(w)
    steps = 0
    for a, b in zip(marks, marks[1:]):
        for i in range(a + 2, b):
            ch = out[i]
            j = i
            while j > a + 1 and out[j - 1] > ch:
                out[j] = out[j - 1]
                j -= 1
            out[j] = ch
            steps += i - j
    return Word(tuple(out)), steps


# -- evaluation and search ---------------------------------------------------

# Stored products and stars plus numbered values beyond the base (the
# search values and the identity) that one search may hold before it drops
# them between two substitutions; the base ids stay.
SEARCH_TABLE_SIZE = 1 << 16


@dataclass(frozen=True, eq=False)
class Monoid:
    """Duck-typed multiplication context for evaluate/check_identity.

    elements, when given, makes the monoid finite and checks exhaustive;
    pool is the witness pool used for infinite monoids.  decide, when
    given, is an exact decision procedure that check_identity returns
    instead of searching; a caller that wants the search strips it with
    dataclasses.replace(monoid, decide=None).  table, when given, is a
    FiniteMonoid whose elements are its indices: check_identity uses its
    table and star tuples instead of mul and star, so the search values
    must be indices of it, and a caller replacing mul or star replaces
    the table too (evaluate always calls mul and star).
    """

    name: str
    mul: Callable
    one: object = None
    star: Optional[Callable] = None
    elements: Optional[tuple] = None
    pool: tuple = ()
    decide: Optional[Callable[[Identity], "Verdict"]] = None
    table: Optional[am.FiniteMonoid] = None


def evaluate(w: Word, subst, monoid: Monoid):
    if not w.letters:
        if monoid.one is None:
            raise EmptyWord(f"{monoid.name} has no designated identity")
        return monoid.one
    acc = None
    for sym in w.letters:
        ch = sym[0]
        if ch not in subst:
            raise MissingLetter(f"no value for letter {ch!r}")
        val = subst[ch]
        if len(sym) > 1:
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
    return sorted({sym[0] for sym in identity.lhs.letters + identity.rhs.letters})


def _side_evaluator(w: Word, slot: dict, monoid: Monoid, table: "_ProductTable"):
    """One side of an identity compiled to a function of a substitution's
    ids (slot gives each symbol, "x" or "x*", its place in them) that
    returns the id of the side's value, forming each product it misses
    through table, and raises as evaluate does when it is called."""
    symbols = w.letters
    if not symbols:
        one = table.one

        def constant(ids):
            if one is None:
                raise EmptyWord(f"{monoid.name} has no designated identity")
            return one
        return constant
    if any(symbol not in slot for symbol in symbols):
        def unstarrable(ids):
            raise NoInvolution(f"{monoid.name} has no involution")
        return unstarrable
    code = [slot[symbol] for symbol in symbols]
    head, tail = code[0], code[1:]
    rows, product = table.rows, table.product

    def run(ids):
        acc = ids[head]
        for i in tail:
            try:
                acc = rows[acc][ids[i]]
            except KeyError:
                acc = product(acc, ids[i])
        return acc

    return run


class _ProductTable:
    """The values of one search numbered on first sight, with the products
    and stars formed so far: back[i] is the value of id i, rows[i][j] the
    id of back[i] * back[j] and stars[i] the id of back[i]'s star (None
    when the monoid has none).  rows and stars are dicts filled on a miss;
    a monoid's table hands them over complete, as its table and star
    tuples, with ids equal to its indices.  The base (the search values,
    then the identity) is numbered first, and its ids survive drop()."""

    def __init__(self, monoid: Monoid, values: tuple):
        fm = monoid.table
        self.complete = fm is not None
        if self.complete:
            self.back = range(fm.size)
            self.ids = dict(zip(self.back, self.back))
            self.rows, self.stars = fm.table, fm.star
        else:
            self.ids, self.back, self.rows = {}, [], []
            self.stars = None if monoid.star is None else {}
        self.mul, self.star = monoid.mul, monoid.star
        # The products and stars stored, and the values numbered, beyond
        # the base.
        self.stored = 0
        self.value_ids = [self.number(v) for v in values]
        self.one = None if monoid.one is None else self.number(monoid.one)
        self.base, self.stored = len(self.back), 0

    def number(self, value) -> int:
        try:
            return self.ids[value]
        except TypeError:
            raise RangeError(f"search values must be hashable, not {value!r}") from None
        except KeyError:
            if self.complete:
                raise RangeError(f"{value!r} is not an index of the table") from None
        i = self.ids[value] = len(self.back)
        self.back.append(value)
        self.rows.append({})
        self.stored += 1
        return i

    def product(self, i: int, j: int) -> int:
        k = self.number(self.mul(self.back[i], self.back[j]))
        self.rows[i][j] = k
        self.stored += 1
        return k

    def star_of(self, i: int) -> int:
        try:
            return self.stars[i]
        except KeyError:
            k = self.stars[i] = self.number(self.star(self.back[i]))
            self.stored += 1
            return k

    def drop(self) -> None:
        """Forget the values numbered after the base, and every product
        and star stored."""
        for value in self.back[self.base:]:
            del self.ids[value]
        del self.back[self.base:], self.rows[self.base:]
        for row in self.rows:
            row.clear()
        if self.stars is not None:
            self.stars.clear()
        self.stored = 0


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

    The search numbers each value when it first meets it and forms each
    distinct product and star once: both sides run on the ids, through
    the monoid's table when it has one, and two values are equal when
    their ids are, that is when they hash and compare equal.  So the
    search values and the identity must be hashable; a search over an
    unhashable one raises RangeError before it forms any product.  Past
    SEARCH_TABLE_SIZE stored products and new values it drops them
    between two substitutions, which changes no verdict.  The draws pick
    positions of the search values, and a witness holds the values at the
    positions drawn.
    """
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise RangeError(f"budget must be a non-negative int, not {budget!r}")
    if monoid.decide is not None:
        return monoid.decide(identity)
    letters = _identity_letters(identity)
    k = len(letters)

    values = monoid.elements
    exhaustive = values is not None and len(values) ** k <= budget
    if not exhaustive:
        values = tuple(monoid.pool) or (values or ())
        if not values:
            return Verdict("unknown", "no witness pool")
    table = _ProductTable(monoid, values)
    # A substitution's ids: its letters' values, then the stars of the
    # starred letters when the monoid has a star.
    starred = []
    if table.stars is not None:
        symbols = identity.lhs.letters + identity.rhs.letters
        starred = sorted({letters.index(sym[0]) for sym in symbols if len(sym) > 1})
    slot = {ch: i for i, ch in enumerate(letters)}
    slot.update({letters[i] + "*": k + n for n, i in enumerate(starred)})
    lhs = _side_evaluator(identity.lhs, slot, monoid, table)
    rhs = _side_evaluator(identity.rhs, slot, monoid, table)

    positions = tuple(range(len(values)))
    if len(values) ** k <= budget:
        substitutions = itertools.product(positions, repeat=k)
    else:
        choice = random.Random(seed).choice
        substitutions = ([choice(positions) for _ in range(k)] for _ in range(budget))
    # Distinct search values are numbered in order, so their ids are
    # their positions; equal ones share the first one's id.
    value_ids = None if table.value_ids == list(positions) else table.value_ids
    star_of, bound = table.star_of, SEARCH_TABLE_SIZE
    for subst in substitutions:
        ids = subst if value_ids is None else [value_ids[p] for p in subst]
        if starred:
            ids = [*ids, *[star_of(ids[i]) for i in starred]]
        if lhs(ids) != rhs(ids):
            return Verdict("fails", "substitution witness",
                           {ch: values[p] for ch, p in zip(letters, subst)})
        if table.stored > bound:
            table.drop()
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


def zimin_sorted_pair(k: int) -> Identity:
    """The depth-k Zimin word against the sorted arrangement of the same
    letters; the sorted side contains a square of the first letter for
    k >= 2, which parity-position substitutions separate."""
    z = zimin(k)
    return Identity(z, Word(tuple(sorted(z.letters))))


def star_mix_words(t: int) -> list[Word]:
    """Involutory one-letter words of length t starting and ending with
    the plain letter and carrying one starred occurrence inside."""
    out = []
    for i in range(1, _require_int(t, "word length") - 1):
        syms = ["x"] * t
        syms[i] = "x*"
        out.append(Word(tuple(syms)))
    return out


# -- ready-made monoid contexts ---------------------------------------------

def _decide_band(instance: am.JEInstance, identity: Identity) -> Verdict:
    """The section criterion of a band extension: sections compared modulo
    the instance's modulus.  A failure comes with the witness built from
    the first condition broken (see _imbalance): y counted differently
    gets y = 1; y counted differently in a section at x gets x = (0,0),
    y = 1; y present in that section on one side only gets x = (0,0),
    y = (1,1); every other letter gets 0."""
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
        mul=am.rees_mul,
        one=am.REES_ONE,
        star=am.rees_star,
        pool=tuple(pool),
    )


def monoid_from_table(fm: am.FiniteMonoid, name: str = "table") -> Monoid:
    """The context of a FiniteMonoid: its elements are its indices, and
    check_identity multiplies and stars through its table and star
    tuples."""
    star = None
    if fm.star is not None:
        star = lambda i: fm.star[i]
    return Monoid(
        name=name,
        mul=fm.mul,
        one=fm.one,
        star=star,
        elements=tuple(range(fm.size)),
        table=fm,
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
