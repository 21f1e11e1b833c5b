"""Set-partition arrows [m] ~> [n] and their composition.

An (m, n)-partition is a set partition of the disjoint union of an incoming
index set {1..m} and an outgoing index set {1..n}.  Vertices are written
``in1, in2, ...`` and ``out1, out2, ...``; the canonical order is all
incoming vertices first, then all outgoing ones, both by index.

A Partition stores its block structure as one integer label per vertex,
in canonical vertex order, numbered as a restricted-growth string: the
first vertex has label 0 and every vertex either repeats a label already
seen or takes the next unused one.  Equal partitions therefore have equal
label tuples; label i names block i.  Outside this module, make_partition()
builds partitions from outside data, _moved() from a grouping of the
slots of a value already valid, and sampling.random_partition from the
restricted-growth labels it draws; code reads them through ``nblocks``
and block_stats() (only annular.make_ann walks the labels), and
``blocks``, the blocks as Vertex tuples derived on first access, serves
only the reprs and serialize's partition and genus codecs.

Composition of alpha: [l] ~> [m] with beta: [m] ~> [n] stacks the two
partitions on a three-layer vertex set (alpha's incoming layer, the shared
middle layer, beta's outgoing layer), takes the join of the two equivalence
relations, and restricts the result to the outer layers.  Classes that fall
entirely inside the middle layer are *dead*: the product forgets them, but
their count b(alpha, beta) and the class of every factor block drive the
label bookkeeping of the decorated variants, so compose() returns them
alongside the product.

A partition of at most MAX_PARTITION_VERTICES = 8 points is interned:
every construction of it, whatever builds it, returns one shared object
from a table of at most 46 113 entries (the partitions of 8 points or
fewer, over every shape), so a bounded_memo() hit on such operands finds
its key by identity.  Larger partitions are built anew each time and
compare by value.

bounded_memo() puts a kernel behind a small memo for the callers whose
values share bases across many calls; compose() itself keeps none, while
reflect_tracked() and rotate_tracked(), which the mirrors of decorated
values call on few bases, keep one each.

>>> a = make_partition(2, 2, [[("in", 1), ("out", 1)], [("in", 2), ("out", 2)]])
>>> compose(a, a).product == a
True
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    BoundExceeded,
    CoverageError,
    OverlapError,
    RangeError,
    ShapeMismatch,
    _shown,
)

__all__ = [
    "IN",
    "OUT",
    "Vertex",
    "vin",
    "vout",
    "Partition",
    "make_partition",
    "identity_partition",
    "CompositionResult",
    "compose",
    "BlockStats",
    "PartitionStats",
    "block_stats",
    "reflect",
    "reflect_tracked",
    "rotate",
    "rotate_tracked",
    "IdempotentDecomposition",
    "is_idempotent_structurally",
    "enumerate_partitions",
    "MAX_PARTITION_VERTICES",
]

IN = 0
OUT = 1

_SIDE_NAMES = {"in": IN, "out": OUT, IN: IN, OUT: OUT}


class Vertex(NamedTuple):
    """A boundary vertex, ordered incoming-before-outgoing, then by index."""

    side: int
    index: int

    def __repr__(self) -> str:
        return f"{'in' if self.side == IN else 'out'}{self.index}"


def vin(i: int) -> Vertex:
    return Vertex(IN, i)


def vout(j: int) -> Vertex:
    return Vertex(OUT, j)


def _points(m: int, n: int) -> Iterator[Vertex]:
    """The vertices of shape [m] ~> [n] in canonical order, one at a time,
    so that a caller can stop before a huge shape is built."""
    yield from map(vin, range(1, m + 1))
    yield from map(vout, range(1, n + 1))


@lru_cache(maxsize=128)
def _ground(m: int, n: int) -> tuple[Vertex, ...]:
    """The vertices of shape [m] ~> [n] in canonical order."""
    return tuple(_points(m, n))


def _relabel(seq) -> tuple[tuple[int, ...], dict[int, int]]:
    """Renumber labels by first occurrence; returns the restricted-growth
    labels and the map from each old label to its new one."""
    new: dict[int, int] = {}
    labels = tuple([new.setdefault(x, len(new)) for x in seq])
    return labels, new


MAX_PARTITION_VERTICES = 8  # 4 140 partitions; each further vertex multiplies that by 5+

# (m, n, labels, nblocks) -> the interned Partition of those fields; at
# most 46 113 entries, the sum of (k + 1) * Bell(k) over k <= 8.
_INTERNED: dict = {}


class Partition:
    """An immutable (m, n)-partition.

    ``labels`` holds the restricted-growth label of every vertex in
    canonical order and ``nblocks`` the number of blocks; equality and hash
    come from the labels.  Use make_partition() to build one with
    validation.

    Of at most MAX_PARTITION_VERTICES points, a construction returns the
    interned object of its four fields; keying on all four keeps a direct
    construction with an inconsistent nblocks from changing what later
    constructions return.
    """

    __slots__ = ("m", "n", "labels", "nblocks", "_blocks", "_hash")

    def __new__(cls, m: int, n: int, labels: tuple[int, ...], nblocks: int):
        small = m + n <= MAX_PARTITION_VERTICES
        if small:
            key = (m, n, labels, nblocks)
            self = _INTERNED.get(key)
            if self is not None:
                return self
        self = object.__new__(cls)
        self.m = m
        self.n = n
        self.labels = labels
        self.nblocks = nblocks
        self._hash = hash((m, labels))
        if small:
            _INTERNED[key] = self
        return self

    def __reduce__(self):
        # pickle, copy and deepcopy rebuild through __new__, which returns
        # the interned object of a small partition.
        return Partition, (self.m, self.n, self.labels, self.nblocks)

    @property
    def blocks(self) -> tuple[tuple[Vertex, ...], ...]:
        """The blocks as vertex tuples in canonical order, block i holding
        the vertices labelled i."""
        try:
            return self._blocks
        except AttributeError:
            groups: list[list[Vertex]] = [[] for _ in range(self.nblocks)]
            for v, label in zip(_ground(self.m, self.n), self.labels):
                groups[label].append(v)
            self._blocks = tuple(map(tuple, groups))
            return self._blocks

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Partition)
            and self.m == other.m
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join("{" + " ".join(map(repr, b)) + "}" for b in self.blocks)
        return f"Partition({self.m}->{self.n}: {body})"

    @property
    def rank(self) -> int:
        """Number of transversal blocks (touching both sides)."""
        m = self.m
        return len(set(self.labels[:m]).intersection(self.labels[m:]))


def _coerce_side(side) -> int:
    """IN or OUT for a side given as "in"/"out" or IN/OUT.  A bool, though
    True == OUT, or an unhashable value raises RangeError like any other
    unknown side."""
    if not isinstance(side, bool):
        try:
            return _SIDE_NAMES[side]
        except (KeyError, TypeError):
            pass
    raise RangeError(f"unknown side {_shown(side)}")


def _require_int(value, what: str) -> int:
    """value if it is an int; a bool, float, string or None raises RangeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise RangeError(f"{what} {_shown(value)} is not an integer")
    return value


def _require_shape(m, n) -> None:
    """RangeError unless m and n are non-negative ints (not bools)."""
    if _require_int(m, "shape") < 0 or _require_int(n, "shape") < 0:
        raise RangeError("shape must be non-negative")


def _coerce_vertex(v) -> tuple[int, int]:
    side, index = v
    return _coerce_side(side), _require_int(index, "vertex index")


def make_partition(m: int, n: int, blocks: Iterable[Iterable]) -> Partition:
    """Build a validated (m, n)-partition from raw block data.

    Each vertex is a Vertex or a (side, index) pair with side "in"/"out"
    (or IN/OUT) and an int index.  Raises RangeError for a shape that is
    no non-negative int, blocks that are no iterable of such pairs,
    unknown sides (a bool included) and non-integer or out-of-range
    indices, OverlapError for repeated vertices, and
    CoverageError for empty blocks or missing vertices; the message names
    the first three missing vertices, and nothing of the shape's size is
    built before the blocks are found to cover it.
    """
    _require_shape(m, n)
    owner: dict[int, int] = {}  # position in canonical order -> block
    try:
        numbered = enumerate(blocks)
    except TypeError:
        raise RangeError(f"blocks {_shown(blocks)} are not iterable") from None
    for b, raw in numbered:
        try:
            block = [_coerce_vertex(v) for v in raw]
        except (TypeError, ValueError):
            raise RangeError(
                f"block {_shown(raw)} is not an iterable of (side, index) pairs"
            ) from None
        if not block:
            raise CoverageError("empty block")
        for side, index in block:
            if side == IN:
                pos, hi = index - 1, m
            else:
                pos, hi = m + index - 1, n
            if not 1 <= index <= hi:
                raise RangeError(
                    f"{_shown(Vertex(side, index))} out of range for shape "
                    f"[{_shown(m)}]~>[{_shown(n)}]"
                )
            if pos in owner:
                raise OverlapError(f"{_shown(Vertex(side, index))} appears twice")
            owner[pos] = b
    if len(owner) < m + n:
        missing = list(islice((v for pos, v in enumerate(_points(m, n)) if pos not in owner), 3))
        more = m + n - len(owner) - len(missing)
        tail = f" and {_shown(more)} more" if more else ""
        raise CoverageError(f"uncovered vertices: {_shown(missing)}{tail}")
    labels, new = _relabel([owner[pos] for pos in range(m + n)])
    return Partition(m, n, labels, len(new))


def identity_partition(n: int) -> Partition:
    _require_shape(n, n)
    return Partition(n, n, tuple(range(n)) * 2, n)


class CompositionResult(NamedTuple):
    """Product partition, dead-class count and class map of one composition.

    classes[i] is the class of alpha's block i and classes[na + j] that of
    beta's block j (na = alpha.nblocks).  A class that reaches an outer
    vertex is numbered by its product block; the dead classes follow as
    product.nblocks, product.nblocks + 1, ... in the order of their least
    middle vertex.  b is b(alpha, beta), the number of dead classes.
    """

    product: Partition
    b: int
    classes: tuple[int, ...]


def compose(alpha: Partition, beta: Partition) -> CompositionResult:
    """Compose alpha: [l] ~> [m] with beta: [m] ~> [n]."""
    if alpha.n != beta.m:
        raise ShapeMismatch(f"cannot compose [{alpha.m}]~>[{alpha.n}] with [{beta.m}]~>[{beta.n}]")
    lo, mid = alpha.m, alpha.n
    la, lb = alpha.labels, beta.labels
    na, nb = alpha.nblocks, beta.nblocks

    # Union-find with path halving over the factor blocks, alpha's as
    # 0..na-1 and beta's as na..na+nb-1, joined through each middle
    # vertex.  The larger root always goes under the smaller one, so
    # parent[x] <= x throughout and the root of every class is its least
    # block; roots counts the classes.
    parent = list(range(na + nb))
    roots = na + nb
    for k in range(mid):
        x = la[lo + k]
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        y = na + lb[k]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x < y:
            parent[y] = x
            roots -= 1
        elif y < x:
            parent[x] = y
            roots -= 1
    # One ascending pass resolves every block to its root.
    for x in range(na + nb):
        parent[x] = parent[parent[x]]

    # Product labels: outer vertices in canonical order, each class
    # numbered by its first appearance.  A class that no outer vertex
    # reaches touches the middle (a block without middle vertices has an
    # outer one), so numbering the middle vertices next numbers the dead
    # classes by their least middle vertex.
    new: dict[int, int] = {}
    number = new.setdefault
    labels = [number(parent[x], len(new)) for x in la[:lo]]
    labels += [number(parent[na + y], len(new)) for y in lb[mid:]]
    live = len(new)
    if roots > live:
        for x in la[lo:]:
            number(parent[x], len(new))
    product = Partition(lo, beta.n, tuple(labels), live)
    return CompositionResult(product, roots - live, tuple(map(new.__getitem__, parent)))


class BlockStats(NamedTuple):
    iv: int  # incoming vertices
    ov: int  # outgoing vertices

    @property
    def v(self) -> int:
        return self.iv + self.ov

    @property
    def is_left(self) -> bool:
        return self.ov == 0

    @property
    def is_right(self) -> bool:
        return self.iv == 0

    @property
    def is_transversal(self) -> bool:
        return self.iv > 0 and self.ov > 0


class PartitionStats(NamedTuple):
    per_block: tuple[BlockStats, ...]
    rank: int
    lb: int  # number of left blocks (incoming only)
    rb: int  # number of right blocks (outgoing only)


def block_stats(p: Partition) -> PartitionStats:
    """Per-block vertex counts plus rank / left / right block totals."""
    iv = [0] * p.nblocks
    ov = [0] * p.nblocks
    for label in p.labels[: p.m]:
        iv[label] += 1
    for label in p.labels[p.m :]:
        ov[label] += 1
    rank = lb = rb = 0
    for i, o in zip(iv, ov):
        if i and o:
            rank += 1
        elif o:
            rb += 1
        else:
            lb += 1
    return PartitionStats(tuple(map(BlockStats, iv, ov)), rank, lb, rb)


MEMO_SIZE = 256  # results each bounded memo holds

_MEMOS: dict = {}  # kernel -> its bounded memo


def bounded_memo(kernel):
    """kernel, a map of one value or a composition of two, behind a memo
    of its MEMO_SIZE most recent results; every call for one kernel
    returns the same memo, so all its callers share it.

    The memo serves a call only when each operand has at most
    MAX_PARTITION_VERTICES points; larger ones run kernel unmemoised.
    Small partitions are interned, so a memo hit on partition operands
    finds its key by identity without calling __eq__; other operands,
    affine diagrams among them, compare by value.
    Two operands are equal only when their shapes are, so a pair whose
    shapes do not meet misses the memo and raises ShapeMismatch from
    kernel, which lru_cache never stores.  A result is stored under its
    own operands only, and callers share it, so kernel must return
    immutable values."""
    if kernel in _MEMOS:
        return _MEMOS[kernel]
    cached = lru_cache(maxsize=MEMO_SIZE)(kernel)

    @wraps(kernel)
    def memoised(x, y=None):
        if x.m + x.n <= MAX_PARTITION_VERTICES and (
            y is None or y.m + y.n <= MAX_PARTITION_VERTICES
        ):
            return cached(x) if y is None else cached(x, y)
        return kernel(x) if y is None else kernel(x, y)

    memoised.cache_info, memoised.cache_clear = cached.cache_info, cached.cache_clear
    _MEMOS[kernel] = memoised
    return memoised


def _moved(m: int, n: int, seq) -> tuple[Partition, Mapping[int, int]]:
    """The partition with slot j in group seq[j], and the group -> block
    map, read-only since the tracked mirrors share it from their memo."""
    labels, new = _relabel(seq)
    return Partition(m, n, labels, len(new)), MappingProxyType(new)


@bounded_memo
def reflect_tracked(p: Partition) -> tuple[Partition, Mapping[int, int]]:
    """reflect(p) plus the block bijection, mapping the index of each
    block of p to the index of its image."""
    return _moved(p.n, p.m, p.labels[p.m :] + p.labels[: p.m])


@bounded_memo
def rotate_tracked(p: Partition) -> tuple[Partition, Mapping[int, int]]:
    """rotate(p) plus the block bijection, as in reflect_tracked()."""
    # incoming i goes to outgoing m + 1 - i and outgoing j to incoming
    # n + 1 - j, which reverses the whole vertex order.
    return _moved(p.n, p.m, p.labels[::-1])


def reflect(p: Partition) -> Partition:
    """Swap the two sides: incoming i becomes outgoing i and vice versa.

    reflect is an involutive anti-automorphism: reflect(a * b) equals
    reflect(b) * reflect(a).
    """
    return reflect_tracked(p)[0]


def rotate(p: Partition) -> Partition:
    """Half-turn: reflect, then reverse the index order on both layers."""
    return rotate_tracked(p)[0]


class IdempotentDecomposition(tuple):
    """Witness for structural idempotency: (component indices, rank) pairs.

    Always truthy, so the n = 0 case (no components) still reads as a
    positive answer.
    """

    def __bool__(self) -> bool:
        return True


def is_idempotent_structurally(e: Partition):
    """Structural idempotency test for a square partition.

    Returns the witness decomposition when the ground set [n] splits into
    the connected components of the join of e's two side restrictions,
    every block stays inside one component, and each restriction has rank
    at most 1.  Returns None otherwise.  The result is truthy exactly when
    e * e == e.

    The join is a union-find over the two parts of each block: index i
    joins the incoming part of block top[i] with the outgoing part of
    block bottom[i].
    """
    if e.m != e.n:
        raise ShapeMismatch("idempotency needs a square shape")
    n, nb = e.n, e.nblocks
    top, bottom = e.labels[:n], e.labels[n:]
    parent = list(range(2 * nb))  # block b's incoming part is b, its outgoing part nb + b

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for b, c in zip(top, bottom):
        parent[find(nb + c)] = find(b)
    rank = [0] * (2 * nb)  # transversal blocks per component root
    for b in set(top).intersection(bottom):
        root = find(b)
        if root != find(nb + b) or rank[root]:
            return None
        rank[root] = 1
    components: dict[int, list[int]] = {}  # by least index
    for i, b in enumerate(top, 1):
        components.setdefault(find(b), []).append(i)
    return IdempotentDecomposition((tuple(c), rank[r]) for r, c in components.items())


def enumerate_partitions(m: int, n: int):
    """Yield every (m, n)-partition; a ground set of more than
    MAX_PARTITION_VERTICES vertices raises BoundExceeded."""
    _require_shape(m, n)
    size = m + n
    if size > MAX_PARTITION_VERTICES:
        raise BoundExceeded(f"ground set of {_shown(size)} exceeds bound {MAX_PARTITION_VERTICES}")
    if size == 0:
        yield Partition(m, n, (), 0)
        return
    # Restricted growth strings in lexicographic order:
    # labels[0] = 0, labels[i] <= max(labels[:i]) + 1.
    labels = [0] * size

    def rec(i: int, top: int):
        if i == size:
            yield Partition(m, n, tuple(labels), top + 1)
            return
        for lab in range(top + 2):
            labels[i] = lab
            yield from rec(i + 1, max(top, lab))

    yield from rec(1, 0)
