"""Auxiliary monoids that the diagram families map onto.

Circle forests model nested families of disjoint planar circles: a forest
is a multiset of trees and a tree is one circle enclosing a forest.  They
form a free commutative monoid under disjoint union, generated by the
single-circle trees, with a unary "enclose" operation.  Next to them live
generic ideal extensions of rectangular bands, a five-element 0-simple
semigroup, a semidirect product of forest pairs with parity twisting, a
triple semigroup whose middle coordinate absorbs encircled sums (rees_mul
and rees_star also take its adjoined identity REES_ONE), and the
genus pairs over the singleton base that collapse onto the five-element
band.  A validated multiplication table type covers the finite cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Optional

from .errors import (
    BadInvolution,
    InstanceMismatch,
    NoIdentity,
    NotAssociative,
    NotClosed,
    RangeError,
    _shown,
)
from .cobordisms import Cobordism, LabeledPartition, make_cobordism
from .partitions import _require_int, identity_partition, make_partition, vin, vout

__all__ = [
    "CircleForest",
    "CF_EMPTY",
    "CF_CIRCLE",
    "JEInstance",
    "JEElement",
    "JE_INT",
    "JE_PARITY",
    "je_s",
    "je_pair",
    "je_mul",
    "je_to_labeled",
    "A21Element",
    "A2_ONE",
    "A2_ZERO",
    "a21_pair",
    "a21_elements",
    "a21_mul",
    "a21_star",
    "SDPElement",
    "SDP_ONE",
    "sdp_mul",
    "sdp_star",
    "ReesL2Element",
    "REES_ONE",
    "rees_mul",
    "rees_star",
    "FiniteMonoid",
    "SINGLETON_BASE",
    "genus_pair",
    "a2_image",
]


# -- circle forests ----------------------------------------------------------

def _canonical_tree(t) -> tuple[tuple, tuple]:
    """The order key and the canonical form of the tree t, whose children
    are sorted recursively by their keys.  Trees are ordered by depth,
    then size, then children.  RangeError unless t is a tuple of trees."""
    if not isinstance(t, tuple):
        raise RangeError(f"{_shown(t)} is not a tree: a tree is a tuple of trees")
    children = sorted(map(_canonical_tree, t), key=itemgetter(0))
    keys = tuple(k for k, _ in children)
    key = (1 + max((k[0] for k in keys), default=0), 1 + sum(k[1] for k in keys), keys)
    return key, tuple(c for _, c in children)


def _render_forest(trees) -> str:
    if not trees:
        return "0"
    return " + ".join(f"({_render_forest(t)})" for t in trees)


def _keyed(keys: tuple, trees: tuple) -> "CircleForest":
    """The forest of these trees, already in key order, with these keys;
    no tree is walked."""
    forest = object.__new__(CircleForest)
    # Written to the instance dict, which a frozen dataclass's own
    # __setattr__ would refuse.
    attrs = forest.__dict__
    attrs["trees"] = trees
    attrs["_keys"] = keys
    return forest


def _sorted_keyed(keys: tuple, trees: tuple) -> "CircleForest":
    """The forest of these trees, stable-sorted by their keys."""
    if len(keys) > 1:
        keys, trees = zip(*sorted(zip(keys, trees), key=itemgetter(0)))
    return _keyed(keys, trees)


@dataclass(frozen=True)
class CircleForest:
    """Multiset of nested circles in canonical (recursively sorted) form.

    A tree is a tuple of trees: the forest inside its circle.  Each forest
    carries the order keys of its trees (_canonical_tree, in the attribute
    _keys, which is no dataclass field): the constructor sorts and keys
    the raw trees once, and +, *, enclose and indecomposables build their
    results from their operands' keys, so no operation walks a tree again.
    Equality, hashing and repr read trees only.  A tree that is not a
    tuple of trees raises RangeError.
    """

    trees: tuple = ()

    def __post_init__(self):
        try:
            trees = tuple(self.trees)
        except TypeError:
            raise RangeError(f"{_shown(self.trees)} is not a collection of trees") from None
        # The forest's trees are the children of one tree around them all.
        key, canonical = _canonical_tree(trees)
        object.__setattr__(self, "trees", canonical)
        object.__setattr__(self, "_keys", key[2])

    def __add__(self, other: "CircleForest") -> "CircleForest":
        if not other.trees:
            return self
        if not self.trees:
            return other
        keys = self._keys + other._keys
        if other._keys[0] < self._keys[-1]:
            return _sorted_keyed(keys, self.trees + other.trees)
        # Two sorted runs in order: their concatenation is sorted.
        return _keyed(keys, self.trees + other.trees)

    def __mul__(self, m: int) -> "CircleForest":
        if _require_int(m, "forest multiple") < 0:
            raise RangeError("forest multiples must be non-negative")
        return _sorted_keyed(self._keys * m, self.trees * m)

    def enclose(self) -> "CircleForest":
        """One new circle drawn around the whole forest."""
        keys = self._keys
        # Keys order trees by depth first, so the deepest tree comes last.
        depth = 1 + keys[-1][0] if keys else 1
        return _keyed(((depth, 1 + sum(k[1] for k in keys), keys),), (self.trees,))

    def indecomposables(self) -> tuple["CircleForest", ...]:
        """The single-tree summands, with multiplicity."""
        return tuple(_keyed((k,), (t,)) for k, t in zip(self._keys, self.trees))

    def __repr__(self) -> str:
        return _render_forest(self.trees)


CF_EMPTY = CircleForest()
CF_CIRCLE = CF_EMPTY.enclose()


# -- ideal extensions of rectangular bands -----------------------------------

@dataclass(frozen=True, eq=False)
class JEInstance:
    """The band of integer pairs (l, r)(l', r') = (l, r') extended by the
    additive integers, s acting as s(l, r) = (s + l, r) and (l, r)s =
    (l, r + s); with a modulus, pair coordinates are reduced mod it."""

    name: str
    modulus: Optional[int] = None


JE_INT = JEInstance("additive-integers")
JE_PARITY = JEInstance("parity-on-two-points", 2)


@dataclass(frozen=True)
class JEElement:
    instance: JEInstance
    kind: str  # "s" or "pair"
    value: tuple

    def __repr__(self) -> str:
        if self.kind == "s":
            return f"{self.value[0]}"
        return f"({self.value[0]},{self.value[1]})"


def je_s(instance: JEInstance, s) -> JEElement:
    """The scalar s, any int; a bool or non-int raises RangeError."""
    return JEElement(instance, "s", (_require_int(s, "scalar"),))


def je_pair(instance: JEInstance, l, r) -> JEElement:
    """The pair (l, r) of ints, reduced mod the instance's modulus if it
    has one; anything else raises RangeError."""
    for v in (l, r):
        _require_int(v, "pair coordinate")
        if instance.modulus is not None and not 0 <= v < instance.modulus:
            raise RangeError(f"({_shown(l)},{_shown(r)}) is not a pair of {instance.name}")
    return JEElement(instance, "pair", (l, r))


def je_mul(x: JEElement, y: JEElement) -> JEElement:
    if x.instance is not y.instance:
        raise InstanceMismatch(
            f"cannot mix {x.instance.name} with {y.instance.name}"
        )
    ins = x.instance
    if x.kind == "s" and y.kind == "s":
        return JEElement(ins, "s", (x.value[0] + y.value[0],))
    if x.kind == "s":
        l, r = y.value
        l += x.value[0]
    elif y.kind == "s":
        l, r = x.value
        r += y.value[0]
    else:
        return JEElement(ins, "pair", (x.value[0], y.value[1]))
    if ins.modulus is not None:
        l, r = l % ins.modulus, r % ins.modulus
    return JEElement(ins, "pair", (l, r))


# -- the five-element 0-simple semigroup with identity -----------------------

@dataclass(frozen=True)
class A21Element:
    tag: str  # "one", "zero" or "pair"
    i: int = 0
    j: int = 0

    def __repr__(self) -> str:
        if self.tag == "pair":
            return f"({self.i},{self.j})"
        return "1" if self.tag == "one" else "0"


A2_ONE = A21Element("one")
A2_ZERO = A21Element("zero")


def a21_pair(i: int, j: int) -> A21Element:
    if _require_int(i, "pair entry") not in (0, 1) or _require_int(j, "pair entry") not in (0, 1):
        raise RangeError("pair entries must be 0 or 1")
    return A21Element("pair", i, j)


def a21_elements() -> tuple[A21Element, ...]:
    return (
        A2_ONE,
        a21_pair(0, 0),
        a21_pair(0, 1),
        a21_pair(1, 0),
        a21_pair(1, 1),
        A2_ZERO,
    )


def a21_mul(x: A21Element, y: A21Element) -> A21Element:
    if x.tag == "one":
        return y
    if y.tag == "one":
        return x
    if x.tag == "zero" or y.tag == "zero":
        return A2_ZERO
    if (x.j, y.i) == (1, 1):
        return A2_ZERO
    # Entries of pairs are valid already; a21_pair would check them again.
    return A21Element("pair", x.i, y.j)


def a21_star(x: A21Element) -> A21Element:
    if x.tag == "pair":
        return A21Element("pair", x.j, x.i)
    return x


# -- semidirect product with parity twisting ---------------------------------

@dataclass(frozen=True)
class SDPElement:
    left: CircleForest = CF_EMPTY
    right: CircleForest = CF_EMPTY
    shift: int = 0

    def __repr__(self) -> str:
        return f"(({self.left!r}, {self.right!r}), {self.shift})"


SDP_ONE = SDPElement()


def _twist(left: CircleForest, right: CircleForest, k: int):
    return (left, right) if k % 2 == 0 else (right, left)


def sdp_mul(x: SDPElement, y: SDPElement) -> SDPElement:
    c, d = _twist(y.left, y.right, x.shift)
    return SDPElement(x.left + c, x.right + d, x.shift + y.shift)


def sdp_star(x: SDPElement) -> SDPElement:
    # Twisting the pair by the shift is what makes (xy)* == y* x* hold for
    # all parities; on shift-0 and circle-free elements this reduces to
    # plain shift negation.
    a, b = _twist(x.left, x.right, x.shift)
    return SDPElement(a, b, -x.shift)


# -- triple semigroup with encircled middle sums -----------------------------

@dataclass(frozen=True)
class ReesL2Element:
    left: CircleForest = CF_EMPTY
    mid: CircleForest = CF_EMPTY
    right: CircleForest = CF_EMPTY

    def __repr__(self) -> str:
        return f"({self.left!r}, {self.mid!r}, {self.right!r})"


class _Adjoined:
    """Formal identity adjoined to a semigroup without one."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return self.label


REES_ONE = _Adjoined("1")


def rees_mul(x, y):
    """The product of two triples, or of a triple with REES_ONE."""
    if x is REES_ONE:
        return y
    if y is REES_ONE:
        return x
    mid = x.mid + (x.right + y.left).enclose() + y.mid
    return ReesL2Element(x.left, mid, y.right)


def rees_star(x):
    """The star of a triple; REES_ONE is its own star."""
    return x if x is REES_ONE else ReesL2Element(x.right, x.mid, x.left)


# -- validated finite multiplication tables ----------------------------------

class FiniteMonoid:
    """Multiplication table over indices 0..n-1, checked on construction.

    The checks run on the table as a numpy array t: (xy)z == x(yz) as
    t[t[x]] == t[x][t], one x-row at a time so that no n^3 array is built,
    and the star laws over the whole n x n table.  An error names the
    first failure in x, y, z order.
    """

    __slots__ = ("table", "one", "star")

    def __init__(self, table, star=None):
        # Imported on first use: importing numpy before identities,
        # serialize and suite are compiled raises the peak RSS of
        # `import diagcat` by about 1.6 MB when no bytecode is cached.
        import numpy as np

        def indices(values, entries, shape: tuple, error: Exception):
            """values as an intp array of this shape, or error unless they
            form one with every entry an integer (not a bool or numpy bool)
            in range(n).  np.array turns bools among ints into ints, so the
            types of the entries, which iterates over them, are read as well."""
            try:
                a = np.array(values)
            except ValueError:  # ragged: a sequence among the entries
                raise error from None
            bad = a.shape != shape or a.dtype.kind not in "iu" or ((a < 0) | (a >= n)).any()
            if bad or not {bool, np.bool_}.isdisjoint(map(type, entries)):
                raise error
            return a.astype(np.intp, copy=False)

        not_square = NotClosed("table is not a square over its own indices")
        try:
            table = tuple(tuple(row) for row in table)
        except TypeError:
            raise not_square from None
        n = len(table)
        if not n:
            raise NoIdentity("table has no identity element")
        if any(len(row) != n for row in table):
            raise not_square
        t = indices(table, chain.from_iterable(table), (n, n), not_square)
        ids = np.arange(n)
        unit = np.flatnonzero((t == ids).all(axis=1) & (t.T == ids).all(axis=1))
        if not unit.size:
            raise NoIdentity("table has no identity element")
        one = int(unit[0])
        for x in range(n):
            bad = t[t[x]] != t[x][t]  # bad[y, z]: (xy)z != x(yz)
            if bad.any():
                y, z = (int(v) for v in np.argwhere(bad)[0])
                raise NotAssociative(f"({x}{y}){z} != {x}({y}{z})")
        if star is not None:
            not_self_map = BadInvolution("star map is not a self-map of the table")
            try:
                star = tuple(star)
            except TypeError:
                raise not_self_map from None
            s = indices(star, star, (n,), not_self_map)
            # anti[x, y]: (xy)* != y* x*
            anti = s[t] != t[np.ix_(s, s)].T
            bad = (s[s] != ids) | anti.any(axis=1)
            if bad.any():
                x = int(np.argmax(bad))
                if s[s[x]] != x:
                    raise BadInvolution(f"star is not involutive at {x}")
                y = int(np.argmax(anti[x]))
                raise BadInvolution(f"star is not an anti-automorphism at ({x},{y})")
        self.table = table
        self.one = one
        self.star = star

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def units(self) -> tuple[int, ...]:
        return tuple(
            i
            for i in range(self.size)
            if any(
                self.table[i][j] == self.one == self.table[j][i]
                for j in range(self.size)
            )
        )

    def index_period(self, i: int) -> tuple[int, int]:
        """Least (t, p) with x^t == x^(t+p); t starts at 1."""
        seen = {}
        acc, t = i, 1
        while acc not in seen:
            seen[acc] = t
            acc = self.table[acc][i]
            t += 1
        return seen[acc], t - seen[acc]


# -- genus pairs over the disconnected singleton base ------------------------

# The rank-0 shape [1] ~> [1] whose two vertices sit in separate blocks;
# its self-composition makes exactly one dead block.
SINGLETON_BASE = make_partition(1, 1, [[vin(1)], [vout(1)]])


def genus_pair(i: int, s, j: int) -> Cobordism:
    """Closed surface data over the singleton base: genus i on the in
    block, j on the out block, closed spectrum s."""
    if i not in (0, 1) or j not in (0, 1):
        raise RangeError("genus entries must be 0 or 1 here")
    return make_cobordism(SINGLETON_BASE, (i, j), s)


def a2_image(x: Cobordism) -> A21Element:
    """Collapse a genus pair: kill everything with a genus-2 closed part.

    The dead block created by one composition step has genus j + k, so a
    genus-2 closed component appears exactly when two genus-1 boundary
    blocks meet; that is the zero case of the five-element table.
    """
    if x.base != SINGLETON_BASE:
        raise RangeError("not a value over the singleton base")
    if x.spectrum.count(2) > 0:
        return A2_ZERO
    return a21_pair(*x.genus)


def je_to_labeled(x: JEElement) -> LabeledPartition:
    """Embed M (the band extension over JE_INT) into the regular labeled
    partitions [1] ~> [1]: the scalar k goes to the identity base with
    label k, the pair (l, r) to SINGLETON_BASE with labels (l, r).  Under
    compose_decorated this is an injective homomorphism: a pair times a
    pair closes the middle block, whose label the labeled row drops.  (The
    cobordism row would deposit it in the spectrum, so M does not embed
    there this way.)  A value of another instance raises InstanceMismatch."""
    if x.instance is not JE_INT:
        raise InstanceMismatch(f"only {JE_INT.name} embeds, not {x.instance.name}")
    if x.kind == "s":
        return LabeledPartition(identity_partition(1), x.value, True)
    return LabeledPartition(SINGLETON_BASE, x.value, True)
