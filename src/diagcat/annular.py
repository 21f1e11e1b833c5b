"""Shift-invariant non-crossing matchings and their annular quotients.

An affine diagram [m] ~> [n] is a perfect matching of Z x {1..m} (top row)
with Z x {1..n} (bottom row) that is invariant under the unit shift
(t, k) -> (t+1, k) and non-crossing when drawn in the strip.  It is stored
by the partner of each point in the offset-0 window: partner entries are
APoint(offset, side, index) triples.

The linear order behind the non-crossing test runs through the bottom row
in reverse lexicographic order, then the top row in lexicographic order;
a matching is non-crossing when for every two strings {x, x'} and {y, y'}
the points y, y' are either both inside or both outside the interval
[x, x'].

Composition glues the bottom row of the first diagram to the top row of
the second and traces strings through the shared middle row.  Closed
middle cycles are counted by the net shift they pick up per period:
shift 0 components are contractible circles (b0), shift +-1 components
wrap the annulus once (bw).  A cycle can never pick up more than one unit
of shift without self-intersection, which compose_affine asserts.

The bare AffineDiagram keeps no circle counter, and AnnularPartition
also forgets the offsets, leaving an ordinary partition arrow.  The
category table adds the counters back as counter rows (serialize.Deformed):
aTLd counts both kinds of circle, aTL only the wrapping ones, and Annd
the dead blocks of the shadow composition.
"""

from __future__ import annotations

import itertools
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
    CompositionResult,
    Partition,
    Vertex,
    _coerce_side,
    _ground,
    _require_int,
    _require_shape,
    compose as compose_partition,
    make_partition,
    reflect,
    rotate,
)

__all__ = [
    "APoint",
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
    "compose_ann",
    "shift_gap",
    "enumerate_affine",
    "build_ann_monoid",
    "AnnMonoid",
    "MAX_AFFINE_POINTS",
    "MAX_ANN_ELEMENTS",
]


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


class AffineDiagram:
    """Validated shift-invariant non-crossing matching, window storage."""

    __slots__ = ("m", "n", "partner", "_hash")

    def __init__(self, m: int, n: int, partner: tuple[APoint, ...]):
        self.m = m
        self.n = n
        self.partner = partner
        self._hash = hash((m, n, partner))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineDiagram)
            and self.m == other.m
            and self.n == other.n
            and self.partner == other.partner
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(
            f"{APoint(0, *p)!r}->{q!r}" for p, q in zip(_ground(self.m, self.n), self.partner)
        )
        return f"AffineDiagram({self.m}->{self.n}: {body})"

    def __mul__(self, other: "AffineDiagram") -> "AffineDiagram":
        return compose_affine(self, other).product

    def partner_of(self, side: int, index: int, offset: int = 0) -> APoint:
        slot = index - 1 if side == IN else self.m + index - 1
        return self.partner[slot].shifted(offset)

    @property
    def rank(self) -> int:
        """Number of transversal strings per period."""
        return sum(1 for p in self.partner[: self.m] if p.side == OUT)

    def strings(self) -> list[tuple[APoint, APoint]]:
        """One representative per string orbit, lowest endpoint at offset 0."""
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


def make_affine(m: int, n: int, partners) -> AffineDiagram:
    """Build a validated affine diagram.

    partners maps each window point to its partner; accepted forms are a
    mapping {(side, index): (offset, side, index)} or an iterable of such
    pairs, with sides given as "in"/"out" strings or the IN/OUT constants;
    any other side, a bool included, raises RangeError.  The shape,
    indices and offsets must be ints; a bool, float, string or None raises
    RangeError, as does a negative shape.
    """
    _require_shape(m, n)
    if (m + n) % 2:
        raise ParityError(f"[{m}]~>[{n}] admits no perfect matching")
    table: dict[tuple[int, int], APoint] = {}
    items = partners.items() if hasattr(partners, "items") else partners
    for key, value in items:
        side, index = key
        offset, pside, pindex = value
        side, pside = _coerce_side(side), _coerce_side(pside)
        for number in (index, offset, pindex):
            if isinstance(number, bool) or not isinstance(number, int):
                raise RangeError(f"{number!r} in {key!r} -> {value!r} is not an integer")
        slot = (side, index)
        if slot in table:
            raise UnmatchedPoint(f"duplicate partner for {slot}")
        table[slot] = APoint(offset, pside, pindex)

    # Messages name window points as (side, index) pairs, as the duplicate check does.
    slots = _ground(m, n)
    for slot in slots:
        if slot not in table:
            raise UnmatchedPoint(f"no partner for {tuple(slot)}")
        q = table[slot]
        hi = m if q.side == IN else n
        if not 1 <= q.index <= hi:
            raise RangeError(f"partner {q!r} out of range")
    if len(table) != m + n:
        extra = [s for s in table if s not in set(slots)]
        raise UnmatchedPoint(f"partners for unknown points: {extra}")

    for slot in slots:
        q = table[slot]
        if (q.side, q.index) == slot:
            raise NotInvolutive(f"{tuple(slot)} partnered with its own orbit")
        back = table[(q.side, q.index)]
        if (back.side, back.index) != slot or back.offset != -q.offset:
            raise NotInvolutive(f"partner map not self-inverse at {tuple(slot)}")

    diagram = AffineDiagram(m, n, tuple(table[s] for s in slots))
    _check_crossings(diagram)
    return diagram


def _check_crossings(d: AffineDiagram) -> None:
    """Reject crossing strings.

    Shifting the whole bottom row by -r, where r is the offset of the first
    through string, preserves the order behind the test and so preserves
    crossings; it subtracts r from every top-to-bottom offset and adds it
    to every bottom-to-top one.  After that no offset may reach 2: a cup or
    cap of offset t with |t| >= 2 holds one end of its own unit shift but
    not the other, and of two through strings whose offsets differ by at
    least 2, the one with the larger offset crosses the other shifted by
    +1.  The remaining strings are compared at every relative shift within
    their offset window.
    """
    r = next((q.offset for q in d.partner[: d.m] if q.side == OUT), 0)
    if r:
        d = AffineDiagram(d.m, d.n, tuple(
            q.shifted(-r if i < d.m else r) if (i < d.m) != (q.side == IN) else q
            for i, q in enumerate(d.partner)
        ))
    window = max((abs(q.offset) for q in d.partner), default=0) + 1
    if window > 2:
        raise CrossingError("strings cross")
    shifted = []
    for rep in d.strings():
        for t in range(-window, window + 1):
            a, b = rep[0].shifted(t), rep[1].shifted(t)
            ka, kb = _order_key(a), _order_key(b)
            shifted.append((min(ka, kb), max(ka, kb)))
    for (x, x1), (y, y1) in itertools.combinations(shifted, 2):
        inside_y = x < y < x1
        inside_y1 = x < y1 < x1
        if inside_y != inside_y1:
            raise CrossingError("strings cross")


def affine_identity(n: int) -> AffineDiagram:
    return lambda_pow(n, 0)


def zeta(n: int) -> AffineDiagram:
    """The unit rotation: top k joins bottom k+1, wrapping at the seam."""
    if _require_int(n, "shape") < 1:
        raise RangeError("zeta needs n >= 1")
    tops = [
        APoint(0, OUT, k + 1) if k < n else APoint(1, OUT, 1) for k in range(1, n + 1)
    ]
    bottoms = [
        APoint(0, IN, k - 1) if k > 1 else APoint(-1, IN, n) for k in range(1, n + 1)
    ]
    return AffineDiagram(n, n, tuple(tops) + tuple(bottoms))


def lambda_pow(n: int, r: int = 1) -> AffineDiagram:
    """The central full twist to the r-th power: (t, k) -> (t + r, k)."""
    _require_shape(n, n)
    _require_int(r, "twist power")
    return AffineDiagram(
        n,
        n,
        tuple(APoint(r, OUT, k) for k in range(1, n + 1))
        + tuple(APoint(-r, IN, k) for k in range(1, n + 1)),
    )


def cup_cap(n: int, i: int) -> AffineDiagram:
    """Adjacent cup-cap joining i with i+1 (indices mod n) on both rows."""
    if _require_int(n, "shape") < 2 or not 1 <= _require_int(i, "cup position") <= n:
        raise RangeError("cup_cap needs n >= 2 and 1 <= i <= n")
    j = i + 1 if i < n else 1
    wrap = 1 if i == n else 0
    tops = [APoint(0, OUT, k) for k in range(1, n + 1)]
    bottoms = [APoint(0, IN, k) for k in range(1, n + 1)]
    tops[i - 1] = APoint(wrap, IN, j)
    tops[j - 1] = APoint(-wrap, IN, i)
    bottoms[i - 1] = APoint(wrap, OUT, j)
    bottoms[j - 1] = APoint(-wrap, OUT, i)
    return AffineDiagram(n, n, tuple(tops) + tuple(bottoms))


class AffineComposition(NamedTuple):
    product: AffineDiagram
    b0: int  # contractible circles created
    bw: int  # wrapping circles created


_TRACE_GUARD = 100_000


def compose_affine(a: AffineDiagram, b: AffineDiagram) -> AffineComposition:
    """Glue a's bottom row to b's top row and trace the strings."""
    if a.n != b.m:
        raise ShapeMismatch(
            f"cannot compose [{a.m}]~>[{a.n}] with [{b.m}]~>[{b.n}]"
        )
    mid = a.n
    visited: set[int] = set()

    def follow(start_side: int, index: int) -> APoint:
        if start_side == IN:
            t, side, k = a.partner_of(IN, index)
            via_a = True
        else:
            t, side, k = b.partner_of(OUT, index)
            via_a = False
        for _ in range(_TRACE_GUARD):
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

    product = AffineDiagram(a.m, b.n, tuple([follow(*v) for v in _ground(a.m, b.n)]))

    b0 = bw = 0
    assigned: set[int] = set(visited)
    for k0 in range(1, mid + 1):
        if k0 in assigned:
            continue
        t, k, parity = 0, k0, 0
        for _ in range(_TRACE_GUARD):
            assigned.add(k)
            if parity == 0:
                t, side, k = b.partner_of(IN, k, t)
            else:
                t, side, k = a.partner_of(OUT, k, t)
            assert side == (IN if parity == 0 else OUT), "cycle left the middle row"
            parity ^= 1
            if parity == 0 and k == k0:
                break
        else:
            raise AssertionError("middle cycle did not close")
        assert abs(t) <= 1, "middle cycle wraps more than once"
        if t == 0:
            b0 += 1
        else:
            bw += 1
    return AffineComposition(product, b0, bw)


def affine_power(a: AffineDiagram, k: int) -> AffineDiagram:
    if a.m != a.n or _require_int(k, "power") < 1:
        raise ShapeMismatch("powers need a square diagram and k >= 1")
    out = a
    for _ in range(k - 1):
        out = compose_affine(out, a).product
    return out


_FLIP = {IN: OUT, OUT: IN}


def _reflect_diagram(x: AffineDiagram) -> AffineDiagram:
    """Swap the window's halves, as reflect_tracked() does, and flip partner rows."""
    return AffineDiagram(x.n, x.m, tuple(
        APoint(q.offset, _FLIP[q.side], q.index) for q in x.partner[x.m :] + x.partner[: x.m]
    ))


def _rotate_diagram(x: AffineDiagram) -> AffineDiagram:
    """Reverse the window, as rotate_tracked() does, and negate, flip and
    mirror each partner's offset, row and index."""
    size = {IN: x.m, OUT: x.n}
    return AffineDiagram(x.n, x.m, tuple(
        APoint(-q.offset, _FLIP[q.side], size[q.side] + 1 - q.index) for q in reversed(x.partner)
    ))


def _mirror(x, diagram_map, partition_map):
    """x under the involution given by its maps on bare diagrams and on
    shadow bases."""
    if isinstance(x, AffineDiagram):
        return diagram_map(x)
    if isinstance(x, AnnularPartition):
        return x._replace(base=partition_map(x.base))
    raise TypeError(f"no involution for {type(x).__name__}")


def sigma_affine(x):
    """Reflection swapping the two rows while keeping offsets."""
    return _mirror(x, _reflect_diagram, reflect)


def rho_affine(x):
    """Half-turn: reflect rows, negate offsets, reverse both index orders."""
    return _mirror(x, _rotate_diagram, rotate)


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

    def __mul__(self, other: "AnnularPartition") -> "AnnularPartition":
        return compose_ann(self, other)[0]


def project_to_ann(a: AffineDiagram) -> AnnularPartition:
    """Forget offsets: each string becomes a two-element block."""
    blocks = {frozenset({v, Vertex(q.side, q.index)}) for v, q in zip(_ground(a.m, a.n), a.partner)}
    return AnnularPartition(make_partition(a.m, a.n, [sorted(b) for b in blocks]))


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


def compose_ann(
    x: AnnularPartition, y: AnnularPartition
) -> tuple[AnnularPartition, CompositionResult]:
    """Compose the shadows; returns the product and the base composition,
    whose dead-block count equals the total number of circles the affine
    composition makes."""
    res = compose_partition(x.base, y.base)
    return AnnularPartition(res.product), res


def shift_gap(x: AffineDiagram, y: AffineDiagram):
    """The twist power q with y == lambda^q x, or None.

    Only diagrams with at least one transversal string determine such a q;
    the rank-0 fibers of the shadow map are trivial instead.
    """
    if x.m != y.m or x.n != y.n:
        raise ShapeMismatch("diagrams must share a shape")
    if x.rank == 0:
        raise RankZero("shift gap needs a transversal string")
    if project_to_ann(x) != project_to_ann(y):
        return None
    for i in range(x.m):
        if x.partner[i].side == OUT:
            q = y.partner[i].offset - x.partner[i].offset
            break
    if compose_affine(lambda_pow(x.m, q), x).product != y:
        return None
    return q


def _crosses(s: tuple[APoint, APoint], r: tuple[APoint, APoint]) -> bool:
    """Whether two strings, given by their endpoints, cross in the order
    behind the non-crossing test."""
    x, x1 = sorted(map(_order_key, s))
    y, y1 = map(_order_key, r)
    return (x < y < x1) != (x < y1 < x1)


MAX_AFFINE_POINTS = 10


def enumerate_affine(m: int, n: int, max_offset: int):
    """Yield every valid affine diagram with partner offsets within
    [-max_offset, max_offset].

    Matchings are built one string at a time, and a branch is dropped as
    soon as its newest string crosses a shift of itself or of a string
    already placed.  The order is shift-invariant and a string from offset
    0 to offset t spans the offsets between them, so two strings with
    offsets t and u can only cross at relative shifts d with
    |d| <= |t| + |u|; those are the shifts tried.  A window of more than
    MAX_AFFINE_POINTS points raises BoundExceeded.
    """
    _require_shape(m, n)
    _require_int(max_offset, "offset bound")
    if m + n > MAX_AFFINE_POINTS:
        raise BoundExceeded(f"window of {m + n} points exceeds bound {MAX_AFFINE_POINTS}")
    if (m + n) % 2:
        return
    slots = _ground(m, n)
    offsets = range(-max_offset, max_offset + 1)

    def crosses_placed(new, placed) -> bool:
        """Whether new, a string from offset 0, crosses a shift of itself
        or of a placed string."""
        p, q = new
        t = abs(q.offset)
        for d in range(1, 2 * t + 1):
            if _crosses(new, (p.shifted(d), q.shifted(d))):
                return True
        for a, b in placed:
            reach = t + abs(b.offset)
            for d in range(-reach, reach + 1):
                if _crosses(new, (a.shifted(d), b.shifted(d))):
                    return True
        return False

    def rec(table: dict, placed: list):
        free = [s for s in slots if s not in table]
        if not free:
            yield make_affine(m, n, dict(table))
            return
        p = free[0]
        for q in free[1:]:
            for t in offsets:
                string = (APoint(0, *p), APoint(t, *q))
                if crosses_placed(string, placed):
                    continue
                table[p] = (t, q[0], q[1])
                table[q] = (-t, p[0], p[1])
                placed.append(string)
                yield from rec(table, placed)
                placed.pop()
                del table[p], table[q]

    yield from rec({}, [])


class AnnMonoid(NamedTuple):
    """Shadow monoid on [n]: elements, index lookup and the finite table."""

    elements: tuple[AnnularPartition, ...]
    index: dict
    monoid: FiniteMonoid


# build_ann_monoid(6) has 625 elements; n = 7, with 2 800, stops here.
# There FiniteMonoid's O(size^3) associativity check, not the closure,
# would be the cost.
MAX_ANN_ELEMENTS = 2000


def build_ann_monoid(n: int) -> AnnMonoid:
    """Close the shadows of the rotation and the cup-caps under
    composition and package the result as a finite monoid; a closure past
    MAX_ANN_ELEMENTS elements raises BoundExceeded before any table is
    built.

    The closure is Froidure and Pin's: each element is composed with the
    generators only, and each new product is recorded with its parent
    and generator.  The table's column of p*g is then R_g applied to the
    column of p, where R_g is right multiplication by g, one numpy gather
    per element.  The elements are numbered in the order of the pairwise
    closure (i walks the element list while j runs over it, forming
    elements[i] * elements[j] and then elements[j] * elements[i]), which
    is replayed by table lookups.
    """
    import numpy as np

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

    size = len(bases)
    by_gen = np.array(right, dtype=np.intp).T  # by_gen[g] is R_g
    columns = np.empty((size, size), dtype=np.intp)
    columns[:ngens] = by_gen
    for q, (p, g) in enumerate(parents, ngens):
        columns[q] = by_gen[g][columns[p]]
    rows = columns.T.tolist()  # rows[x][y]: the index of bases[x] * bases[y]

    # The pairwise walk finds nothing new once every element is numbered,
    # so it stops there.
    order = list(range(ngens))  # closure position -> index in bases
    position = order + [-1] * (size - ngens)
    i = 0
    while len(order) < size:
        x = order[i]
        j = 0
        while j < len(order) and len(order) < size:
            y = order[j]
            for k in (rows[x][y], rows[y][x]):
                if position[k] < 0:
                    position[k] = len(order)
                    order.append(k)
            j += 1
        i += 1

    perm = np.array(order, dtype=np.intp)
    table = np.array(position, dtype=np.intp)[columns.T[np.ix_(perm, perm)]]
    elements = tuple(AnnularPartition(bases[k]) for k in order)
    index = {bases[k]: i for i, k in enumerate(order)}
    return AnnMonoid(elements, index, FiniteMonoid(table.tolist()))
