"""Shift-invariant non-crossing matchings and their annular quotients.

An affine diagram [m] ~> [n] is a perfect matching of Z x {1..m} (top row)
with Z x {1..n} (bottom row) that is invariant under the unit shift
(t, k) -> (t+1, k) and non-crossing when drawn in the strip.  It is stored
by the partner of each point in the offset-0 window, as a Partition stores
one label per vertex: the window points are numbered 0..m+n-1 in the
order of partitions._ground (top row, then bottom row), and two int
tuples give, for each window slot j, the slot partner[j] of its partner
and the offset[j] of the copy of the window that partner lies in.

The linear order behind the non-crossing test runs through the bottom row
in reverse lexicographic order, then the top row in lexicographic order;
a matching is non-crossing when for every two strings {x, x'} and {y, y'}
the points y, y' are either both inside or both outside the interval
[x, x'].  One pairwise predicate, _crosses, applies this rule to a string
and the shifts of another; make_affine and enumerate_affine both call it.

Composition glues the bottom row of the first diagram to the top row of
the second and traces strings through the shared middle row.  Closed
middle cycles are counted by the net shift they pick up per period:
shift 0 components are contractible circles (b0), shift +-1 components
wrap the annulus once (bw).  A cycle can never pick up more than one unit
of shift without self-intersection, which compose_affine asserts.

The central full twist lambda^r moves every point r units along.  Top
point k of lambda^r meets top point k of a diagram below it at offset r: a
top-to-bottom string carries that r down, a cap gives it back, and bottom
cups never meet lambda^r.  _twisted states this rule on the slot and offset
tuples.  Over the diagrams with a through string, the shadow fibres are
therefore the lambda-orbits, which shift_gap decides.

The bare AffineDiagram keeps no circle counter, and AnnularPartition
also forgets the offsets, leaving an ordinary partition arrow.  The
category table adds the counters back as counter rows (serialize.Deformed):
aTLd counts both kinds of circle, aTL only the wrapping ones, and Annd
the dead blocks of the shadow composition.

sigma_affine and rho_affine mirror bare diagrams only.  A shadow is
mirrored and composed through its base by the Ann row of the category
table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import (
    CrossingError,
    NotInvolutive,
    ParityError,
    RangeError,
    RankZero,
    ShapeMismatch,
    UnmatchedPoint,
    BoundExceeded,
)
from .auxmonoids import FiniteMonoid
from .partitions import (
    IN,
    OUT,
    Partition,
    Vertex,
    _coerce_side,
    _ground,
    _moved,
    _points,
    _require_int,
    _require_shape,
    compose as compose_partition,
)

__all__ = [
    "AffineDiagram",
    "make_affine",
    "affine_identity",
    "zeta",
    "lambda_pow",
    "cup_cap",
    "AffineComposition",
    "compose_affine",
    "affine_power",
    "sigma_affine",
    "rho_affine",
    "AnnularPartition",
    "project_to_ann",
    "make_ann",
    "shift_gap",
    "enumerate_affine",
    "build_ann_monoid",
    "AnnMonoid",
    "MAX_AFFINE_POINTS",
    "MAX_ANN_ELEMENTS",
]


def _order_key(slot: int, offset: int, m: int):
    """Total order on the points of a diagram with m top points: the bottom
    row in reverse lex below the whole top row."""
    if slot >= m:
        return (0, -offset, -slot)
    return (1, offset, slot)


class AffineDiagram:
    """Validated shift-invariant non-crossing matching: window slot j is
    matched with slot partner[j] of the copy offset[j] units along."""

    __slots__ = ("m", "n", "partner", "offset", "_hash")

    def __init__(self, m: int, n: int, partner: tuple[int, ...], offset: tuple[int, ...]):
        self.m = m
        self.n = n
        self.partner = partner
        self.offset = offset
        self._hash = hash((m, partner, offset))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineDiagram)
            and self.m == other.m
            and self.partner == other.partner
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        g = _ground(self.m, self.n)
        body = ", ".join(
            f"(0,{v!r})->({t},{g[p]!r})" for v, p, t in zip(g, self.partner, self.offset)
        )
        return f"AffineDiagram({self.m}->{self.n}: {body})"

    @property
    def rank(self) -> int:
        """Number of transversal strings per period."""
        return sum(p >= self.m for p in self.partner[: self.m])


def make_affine(m: int, n: int, partners) -> AffineDiagram:
    """Build a validated affine diagram.

    partners maps each window point to its partner; accepted forms are a
    mapping {(side, index): (offset, side, index)} or an iterable of such
    pairs, with sides given as "in"/"out" strings or the IN/OUT constants;
    any other container, or any other side, a bool included, raises
    RangeError.  The shape,
    indices and offsets must be ints; a bool, float, string or None raises
    RangeError, as does a negative shape.  Fewer partners than window
    points raise UnmatchedPoint before anything of the window's size is
    built.
    """
    _require_shape(m, n)
    if (m + n) % 2:
        raise ParityError(f"[{m}]~>[{n}] admits no perfect matching")
    table: dict[tuple[int, int], tuple[int, int, int]] = {}
    items = partners.items() if hasattr(partners, "items") else partners
    try:
        items = iter(items)
    except TypeError:
        raise RangeError(f"partners {partners!r} are not iterable") from None
    for item in items:
        try:
            key, value = item
            side, index = key
            offset, pside, pindex = value
        except (TypeError, ValueError):
            raise RangeError(f"{item!r} is no (side, index) -> (offset, side, index) pair") from None
        side, pside = _coerce_side(side), _coerce_side(pside)
        for number in (index, offset, pindex):
            if isinstance(number, bool) or not isinstance(number, int):
                raise RangeError(f"{number!r} in {key!r} -> {value!r} is not an integer")
        slot = (side, index)
        if slot in table:
            raise UnmatchedPoint(f"duplicate partner for {slot}")
        table[slot] = (offset, pside, pindex)

    # Messages name window points as (side, index) pairs, as the duplicate
    # check does.  The window is walked point by point, so a shape larger
    # than the table stops at its first missing point.
    partner, offset = [], []
    for slot in _points(m, n):
        if slot not in table:
            raise UnmatchedPoint(f"no partner for {tuple(slot)}")
        t, side, index = table[slot]
        if not 1 <= index <= (m if side == IN else n):
            raise RangeError(f"partner ({t},{Vertex(side, index)!r}) out of range")
        partner.append(index - 1 if side == IN else m + index - 1)
        offset.append(t)
    slots = _ground(m, n)
    if len(table) != m + n:
        extra = [s for s in table if s not in set(slots)]
        raise UnmatchedPoint(f"partners for unknown points: {extra}")

    for j, (p, t) in enumerate(zip(partner, offset)):
        if p == j:
            raise NotInvolutive(f"{tuple(slots[j])} partnered with its own orbit")
        if partner[p] != j or offset[p] != -t:
            raise NotInvolutive(f"partner map not self-inverse at {tuple(slots[j])}")

    _check_crossings(m, partner, offset)
    return AffineDiagram(m, n, tuple(partner), tuple(offset))


def _check_crossings(m: int, partner, offset) -> None:
    """Reject crossing strings.

    Shifting the whole bottom row by -r, where r is the offset of the first
    through string, preserves the order behind the test and so preserves
    crossings; it is lambda^-r composed on top, _twisted(..., -r).  After
    that no offset may reach 2: a cup or cap of offset t with |t| >= 2
    holds one end of its own unit shift but not the other, and of two
    through strings whose offsets differ by at least 2, the one with the
    larger offset crosses the other shifted by +1.  The remaining strings
    are compared pairwise by _crosses.
    """
    r = next((offset[j] for j in range(m) if partner[j] >= m), 0)
    if r:
        offset = _twisted(m, partner, offset, -r)
    if max(map(abs, offset), default=0) >= 2:
        raise CrossingError("strings cross")
    strings = [(j, p, t) for j, (p, t) in enumerate(zip(partner, offset)) if j < p]
    for i, s in enumerate(strings):
        if any(_crosses(s, u, m) for u in strings[i:]):
            raise CrossingError("strings cross")


def _twisted(m: int, partner, offset, r: int) -> tuple[int, ...]:
    """The offsets of lambda^r composed on top of the diagram with these
    slots: slot j gains r when j < m <= partner[j], loses r when
    partner[j] < m <= j, and otherwise keeps its offset."""
    return tuple([
        t + r if j < m <= p else t - r if p < m <= j else t
        for j, (p, t) in enumerate(zip(partner, offset))
    ])


def affine_identity(n: int) -> AffineDiagram:
    return lambda_pow(n, 0)


def zeta(n: int) -> AffineDiagram:
    """The unit rotation: top k joins bottom k+1, wrapping at the seam."""
    if _require_int(n, "shape") < 1:
        raise RangeError("zeta needs n >= 1")
    flat = (0,) * (n - 1)
    return AffineDiagram(
        n, n, (*range(n + 1, 2 * n), n, n - 1, *range(n - 1)), flat + (1, -1) + flat
    )


def lambda_pow(n: int, r: int = 1) -> AffineDiagram:
    """The central full twist to the r-th power: (t, k) -> (t + r, k)."""
    _require_shape(n, n)
    _require_int(r, "twist power")
    return AffineDiagram(n, n, (*range(n, 2 * n), *range(n)), (r,) * n + (-r,) * n)


def cup_cap(n: int, i: int) -> AffineDiagram:
    """Adjacent cup-cap joining i with i+1 (indices mod n) on both rows."""
    if _require_int(n, "shape") < 2 or not 1 <= _require_int(i, "cup position") <= n:
        raise RangeError("cup_cap needs n >= 2 and 1 <= i <= n")
    j = i % n  # the slot of top point i + 1; i - 1 is that of top point i
    wrap = 1 if i == n else 0
    partner = [*range(n, 2 * n), *range(n)]
    offset = [0] * (2 * n)
    for a, b in ((i - 1, j), (n + i - 1, n + j)):
        partner[a], partner[b] = b, a
        offset[a], offset[b] = wrap, -wrap
    return AffineDiagram(n, n, tuple(partner), tuple(offset))


class AffineComposition(NamedTuple):
    product: AffineDiagram
    b0: int  # contractible circles created
    bw: int  # wrapping circles created


_TRACE_GUARD = 100_000


def compose_affine(a: AffineDiagram, b: AffineDiagram) -> AffineComposition:
    """Glue a's bottom row to b's top row and trace the strings.

    The two windows are laid side by side, b's slots after a's, so that
    middle point k is both a's slot top + k and b's slot top + mid + k.  A
    string alternates between partner links and these glued pairs, and
    its offset is the sum of the offsets of its links."""
    if a.n != b.m:
        raise ShapeMismatch(
            f"cannot compose [{a.m}]~>[{a.n}] with [{b.m}]~>[{b.n}]"
        )
    top, mid = a.m, a.n
    hi = top + 2 * mid  # slots top..hi-1 are the middle slots of both windows
    partner = a.partner + tuple([p + top + mid for p in b.partner])
    offset = a.offset + b.offset
    seen = [False] * mid

    def trace(start: int) -> tuple[int, int]:
        """The outer slot that the string from start reaches, or start
        itself when the path closes up, and the offset picked up."""
        x, t = start, 0
        for _ in range(_TRACE_GUARD):
            t += offset[x]
            x = partner[x]
            if not top <= x < hi:
                return x, t
            k = (x - top) % mid
            seen[k] = True
            x = top + k + (mid if x < top + mid else 0)
            if x == start:
                return x, t
        raise AssertionError("string trace did not terminate")

    ends = [trace(x) for x in (*range(top), *range(hi, hi + b.n))]
    slots = tuple([x if x < top else x - 2 * mid for x, _ in ends])
    product = AffineDiagram(top, b.n, slots, tuple([t for _, t in ends]))
    b0 = bw = 0
    for k in range(mid):
        if not seen[k]:
            x, t = trace(top + mid + k)
            assert x == top + mid + k, "cycle left the middle row"
            assert abs(t) <= 1, "middle cycle wraps more than once"
            if t == 0:
                b0 += 1
            else:
                bw += 1
    return AffineComposition(product, b0, bw)


def affine_power(a: AffineDiagram, k: int) -> AffineDiagram:
    """a composed with itself k times, by repeated squaring."""
    if a.m != a.n or _require_int(k, "power") < 1:
        raise ShapeMismatch("powers need a square diagram and k >= 1")
    out = a
    for bit in bin(k)[3:]:  # the binary digits of k after the leading 1
        out = compose_affine(out, out).product
        if bit == "1":
            out = compose_affine(out, a).product
    return out


def sigma_affine(x: AffineDiagram) -> AffineDiagram:
    """Reflection swapping the two rows while keeping offsets: top slot j
    becomes slot n + j and bottom slot m + k becomes slot k, as in
    reflect_tracked()."""
    m, n = x.m, x.n
    moved = tuple(p - m if p >= m else p + n for p in x.partner)
    return AffineDiagram(n, m, moved[m:] + moved[:m], x.offset[m:] + x.offset[:m])


def rho_affine(x: AffineDiagram) -> AffineDiagram:
    """Half-turn: reverse the window, as rotate_tracked() does, and negate
    the offsets."""
    last = x.m + x.n - 1
    moved = tuple(last - p for p in reversed(x.partner))
    return AffineDiagram(x.n, x.m, moved, tuple(-t for t in reversed(x.offset)))


@lru_cache(maxsize=128)
def _generators(n: int) -> tuple[AffineDiagram, ...]:
    """The rotation, its reflection and (from n = 2) the cup-caps at width
    n: the generators of the affine diagrams [n] ~> [n]."""
    z = zeta(n)
    cups = tuple(cup_cap(n, i) for i in range(1, n + 1)) if n >= 2 else ()
    return (z, sigma_affine(z), *cups)


# -- annular quotients -------------------------------------------------------

class AnnularPartition(NamedTuple):
    """Partition arrow that arises as the shadow of an affine diagram."""

    base: Partition

    @property
    def rank(self) -> int:
        return self.base.rank


def project_to_ann(a: AffineDiagram) -> AnnularPartition:
    """Forget offsets: each string becomes a two-element block."""
    return AnnularPartition(_moved(a.m, a.n, [min(j, p) for j, p in enumerate(a.partner)])[0])


def make_ann(base: Partition) -> AnnularPartition:
    """The shadow with this base, checked to be the shadow of some affine
    diagram in one pass: every block is a pair (else UnmatchedPoint); each
    row's cups do not cross in cyclic order, no cup separates two
    through-string ends, and the through strings keep one cyclic order on
    both rows (else CrossingError)."""
    m, size = base.m, base.m + base.n
    partner = [-1] * size
    first = [-1] * base.nblocks
    for pos, b in enumerate(base.labels):
        q = first[b]
        if q < 0:
            first[b] = pos
        elif partner[q] < 0:
            partner[q], partner[pos] = pos, q
        else:
            raise UnmatchedPoint(f"block {b} of {base!r} has more than two points")
    if -1 in partner:
        raise UnmatchedPoint(f"{base!r} has a one-point block")
    ends = [q for q in partner[:m] if q >= m]
    if len(ends) > 1 and sum(a > b for a, b in zip(ends, ends[1:] + ends[:1])) != 1:
        raise CrossingError(f"the through strings of {base!r} cross")
    for lo, hi in ((0, m), (m, size)):
        opened = []  # (start of an open cup, through ends seen before it)
        seen = 0
        for pos in range(lo, hi):
            q = partner[pos]
            if not lo <= q < hi:
                seen += 1
            elif q > pos:
                opened.append((pos, seen))
            else:
                start, before = opened.pop()
                if start != q:
                    raise CrossingError(f"two cups of {base!r} cross")
                if seen != before and seen - before != len(ends):
                    raise CrossingError(f"a cup of {base!r} separates through strings")
    return AnnularPartition(base)


def shift_gap(x: AffineDiagram, y: AffineDiagram):
    """The twist power q with y == lambda^q x, or None.

    Only diagrams with at least one transversal string determine such a q;
    the rank-0 fibers of the shadow map are trivial instead.  The shadow
    pairs slot j with partner[j], so x and y share one exactly when their
    partners are equal; then y is lambda^q x, for the q of the first top
    through string, when its offsets are _twisted(..., q) of those of x.
    """
    if x.m != y.m or x.n != y.n:
        raise ShapeMismatch("diagrams must share a shape")
    if x.rank == 0:
        raise RankZero("shift gap needs a transversal string")
    if x.partner != y.partner:
        return None
    q = next(y.offset[j] - x.offset[j] for j in range(x.m) if x.partner[j] >= x.m)
    return q if y.offset == _twisted(x.m, x.partner, x.offset, q) else None


def _crosses(s, r, m: int) -> bool:
    """Whether string s crosses some shift of string r, in the order behind
    the non-crossing test; a string (p, q, t) of a diagram with m top
    points joins window slot p at offset 0 to slot q at offset t.

    The order is shift-invariant and a string from offset 0 to offset t
    spans the offsets between them, so two strings with offsets t and u
    can only cross at relative shifts d with |d| <= |t| + |u|; those are
    the shifts tried.  A caller asks about a string and its own shifts by
    passing the same object as s and r; then only d > 0 is tried, since
    d = 0 never crosses and a crossing at -d is the same crossing seen
    from the shifted copy.  An equal but distinct tuple gets the full
    range and the same answer.
    """
    x, x1 = sorted((_order_key(s[0], 0, m), _order_key(s[1], s[2], m)))
    reach = abs(s[2]) + abs(r[2])
    for d in range(1, reach + 1) if r is s else range(-reach, reach + 1):
        y, y1 = _order_key(r[0], d, m), _order_key(r[1], r[2] + d, m)
        if (x < y < x1) != (x < y1 < x1):
            return True
    return False


MAX_AFFINE_POINTS = 10


def enumerate_affine(m: int, n: int, max_offset: int):
    """Yield every valid affine diagram with partner offsets within
    [-max_offset, max_offset].

    Matchings are built one string at a time, and a branch is dropped as
    soon as _crosses finds its newest string crossing a shift of itself or
    of a string already placed.  A window of more than MAX_AFFINE_POINTS
    points raises BoundExceeded.
    """
    _require_shape(m, n)
    _require_int(max_offset, "offset bound")
    if m + n > MAX_AFFINE_POINTS:
        raise BoundExceeded(f"window of {m + n} points exceeds bound {MAX_AFFINE_POINTS}")
    if (m + n) % 2:
        return
    size = m + n
    offsets = range(-max_offset, max_offset + 1)
    partner = [-1] * size
    offset = [0] * size

    def crosses_placed(new) -> bool:
        """Whether new crosses a shift of itself or of a placed string."""
        placed = [(j, k, offset[j]) for j, k in enumerate(partner) if j < k]
        return any(_crosses(new, s, m) for s in (new, *placed))

    def rec():
        free = [j for j in range(size) if partner[j] < 0]
        if not free:
            yield AffineDiagram(m, n, tuple(partner), tuple(offset))
            return
        p = free[0]
        for q in free[1:]:
            for t in offsets:
                if crosses_placed((p, q, t)):
                    continue
                partner[p], partner[q] = q, p
                offset[p], offset[q] = t, -t
                yield from rec()
                partner[p] = partner[q] = -1

    yield from rec()


class AnnMonoid(NamedTuple):
    """Shadow monoid on [n]: elements in the closure's discovery order,
    the generator shadows first and the identity at 0 (monoid.one == 0),
    and the finite table."""

    elements: tuple[AnnularPartition, ...]
    monoid: FiniteMonoid


# build_ann_monoid(6) has 625 elements; n = 7, with 2 800, stops here.
# There FiniteMonoid's O(size^3) associativity check, not the closure,
# would be the cost.
MAX_ANN_ELEMENTS = 2000


def build_ann_monoid(n: int) -> AnnMonoid:
    """Close the shadows of the rotation and the cup-caps under
    composition and package the result as a finite monoid; a closure past
    MAX_ANN_ELEMENTS elements raises BoundExceeded before any table is
    built, and an n whose generator shadows and two-cup products alone
    pass it raises before any generator is built.

    The closure is Froidure and Pin's: each element is composed with the
    generators only, and each new product is recorded with its parent
    and generator.  The table's column of p*g is then R_g applied to the
    column of p, where R_g is right multiplication by g, one numpy gather
    per element.  The elements are numbered in the order the closure
    finds them: the distinct generator shadows first (the identity, the
    rotation, its reflection, the cup-caps), so monoid.one == 0, and
    then each new product p*g after its parent p.
    """
    import numpy as np

    _require_shape(n, n)
    # From n = 3 on, the closure holds the n + 3 generator shadows and the
    # n(n - 3)/2 products of two cup-caps at non-adjacent positions, all distinct.
    if n >= 3 and n + 3 + n * (n - 3) // 2 > MAX_ANN_ELEMENTS:
        raise BoundExceeded(f"closure exceeded {MAX_ANN_ELEMENTS} elements")
    gens = [affine_identity(n), *(_generators(n) if n >= 1 else ())]
    bases: list[Partition] = []
    found: dict = {}
    for g in gens:
        if (base := project_to_ann(g).base) not in found:
            found[base] = len(bases)
            bases.append(base)
    ngens = len(bases)
    right: list[list[int]] = []  # right[p][g]: the index of bases[p] * bases[g]
    parents: list[tuple[int, int]] = []  # (p, g) of each element past the generators
    p = 0
    while p < len(bases):
        row = []
        for g in range(ngens):
            prod = compose_partition(bases[p], bases[g]).product
            k = found.get(prod)
            if k is None:
                if len(bases) >= MAX_ANN_ELEMENTS:
                    raise BoundExceeded(f"closure exceeded {MAX_ANN_ELEMENTS} elements")
                k = found[prod] = len(bases)
                bases.append(prod)
                parents.append((p, g))
            row.append(k)
        right.append(row)
        p += 1

    by_gen = np.array(right, dtype=np.intp).T  # by_gen[g] is R_g
    columns = np.empty((len(bases), len(bases)), dtype=np.intp)
    columns[:ngens] = by_gen
    for q, (p, g) in enumerate(parents, ngens):
        columns[q] = by_gen[g][columns[p]]
    elements = tuple(map(AnnularPartition, bases))
    return AnnMonoid(elements, FiniteMonoid(columns.T.tolist()))
