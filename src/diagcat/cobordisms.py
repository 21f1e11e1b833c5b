"""Partition arrows decorated with genus labels and closed-surface spectra.

Two decorated variants share a Partition base:

* LabeledPartition -- an integer label on every block; when composition
  merges blocks, the merged class gets the sum of the incoming labels plus
  the increment v - (a + b) + 1 (v middle vertices, a and b merged blocks
  from either side), the cyclomatic count of the merge.
* Cobordism -- labels plus a spectrum recording closed components by
  label; dead blocks of the base composition deposit their labels there.

Non-regular values keep every label and spectrum entry non-negative;
regular values drop the restriction and gain a star with x x* x == x.
The reflection sigma and the half-turn rho transport labels along the
block bijection and are involutive anti-automorphisms on both variants;
they take decorated values only, a bare Partition being mirrored by
partitions.reflect and partitions.rotate.
Values over few bases recur under many labels and spectra, so the merge
plan of a pair of small bases -- its base composition and the increment
of each class -- comes from a bounded memo (partitions.bounded_memo), and
a composition only adds the operands' labels onto the increments.
Deformed partitions, a base with one integer shift, are a counter row
of the category table (serialize.Deformed).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple, Union

from .errors import (
    BaseMismatch,
    NegativeLabel,
    NotIdempotent,
    NotIrreducible,
    NotRegular,
    RangeError,
    RegularityMismatch,
    _shown,
)
from .partitions import (
    CompositionResult,
    Partition,
    PartitionStats,
    _require_int,
    block_stats,
    bounded_memo,
    compose,
    is_idempotent_structurally,
    reflect_tracked,
    rotate_tracked,
)

__all__ = [
    "Spectrum",
    "LabeledPartition",
    "Cobordism",
    "make_cobordism",
    "compose_decorated",
    "compose_cobordism",
    "star_labeled",
    "star_cobordism",
    "sigma",
    "rho",
    "to_labeled",
    "fiber_product_oracle",
]


class Spectrum:
    """Finitely supported multiset of int labels, canonically trimmed.

    Built from another Spectrum, a mapping from label to count, or an
    iterable of (label, count) int pairs; anything else raises RangeError.
    It is not a container: count(genus) reads one label's count."""

    __slots__ = ("pairs",)

    def __init__(
        self, data: Union["Spectrum", Mapping[int, int], Iterable[tuple[int, int]]] = ()
    ):
        if isinstance(data, Spectrum):
            self.pairs = data.pairs
            return
        items = data.items() if isinstance(data, Mapping) else data
        try:
            items = [(genus, count) for genus, count in items]
        except (TypeError, ValueError) as exc:
            raise RangeError(
                f"a spectrum takes a mapping or (label, count) pairs, not {_shown(data)}"
            ) from exc
        self.pairs = Spectrum._of(
            (_require_int(genus, "spectrum label"), _require_int(count, "spectrum count"))
            for genus, count in items
        ).pairs

    @classmethod
    def _of(cls, items: Iterable[tuple[int, int]]) -> "Spectrum":
        """The spectrum of (label, count) pairs whose ints are already
        checked: counts summed per label, zero counts dropped."""
        counts: dict[int, int] = {}
        for genus, count in items:
            counts[genus] = counts.get(genus, 0) + count
        return cls._trimmed(counts)

    @classmethod
    def _trimmed(cls, counts: dict[int, int]) -> "Spectrum":
        """The spectrum of a dict from checked int labels to counts, its
        zero counts dropped."""
        spectrum = object.__new__(cls)
        spectrum.pairs = tuple(sorted([item for item in counts.items() if item[1]]))
        return spectrum

    def __eq__(self, other) -> bool:
        return isinstance(other, Spectrum) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"Spectrum({dict(self.pairs)!r})"

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def count(self, genus: int) -> int:
        """The count of the label genus; 0 when it is absent."""
        for g, c in self.pairs:
            if g == genus:
                return c
        return 0

    def __add__(self, other: "Spectrum") -> "Spectrum":
        return Spectrum._of(self.pairs + other.pairs)

    def negate(self) -> "Spectrum":
        return Spectrum._of((g, -c) for g, c in self.pairs)

    def total(self) -> int:
        return sum(c for _, c in self.pairs)

    def min_genus_negative(self) -> bool:
        return any(g < 0 or c < 0 for g, c in self.pairs)


class LabeledPartition(NamedTuple):
    base: Partition
    genus: tuple[int, ...]
    regular: bool = False


class Cobordism(NamedTuple):
    base: Partition
    genus: tuple[int, ...]
    spectrum: Spectrum
    regular: bool = False


def make_cobordism(
    base: Partition,
    genus: Sequence[int],
    spectrum: Union[Spectrum, Mapping[int, int]] = (),
    regular: bool = False,
) -> Cobordism:
    """Validated constructor; genus holds one int label per block of base,
    in block order, and a mapping or any other non-sequence in its place
    raises RangeError."""
    if isinstance(genus, Mapping):
        raise RangeError("genus must be a label sequence, not a mapping")
    try:
        g = tuple(_require_int(x, "genus label") for x in genus)
    except TypeError:
        raise RangeError(f"genus {_shown(genus)} is not a label sequence") from None
    if len(g) != base.nblocks:
        raise BaseMismatch(f"{len(g)} labels for {base.nblocks} blocks")
    s = spectrum if isinstance(spectrum, Spectrum) else Spectrum(spectrum)
    if not regular:
        if any(x < 0 for x in g):
            raise NegativeLabel(f"negative genus in non-regular value: {_shown(g)}")
        if s.min_genus_negative():
            raise NegativeLabel(f"negative spectrum entry in non-regular value: {_shown(s)}")
    return Cobordism(base, g, s, regular)


def _merge_labels(res: CompositionResult, constants: Sequence, g: Sequence, h: Sequence):
    """Labels of the product blocks and of the dead classes, in order, for
    res = compose(alpha, beta) with labels g on alpha's blocks and h on
    beta's.

    Each class of res.classes sums the labels of its factor blocks plus
    its constant.  Labels are any additive values, and constants holds
    each class's increment (_merge_plan) in the labels' own type."""
    sums = list(constants)
    for c, label in zip(res.classes, (*g, *h)):
        sums[c] = sums[c] + label
    live = res.product.nblocks
    return tuple(sums[:live]), sums[live:]


def _merge_plan(alpha: Partition, beta: Partition) -> tuple[CompositionResult, tuple[int, ...]]:
    """compose(alpha, beta) and the increment v - (a + b) + 1 of each of
    its classes, in class order: v middle vertices, a and b the class's
    blocks from either side.  A class that does not touch the middle is
    one block, for which the count is 0."""
    res = compose(alpha, beta)
    increment = [1] * (res.product.nblocks + res.b)
    for c in res.classes:
        increment[c] -= 1
    for x in alpha.labels[alpha.m :]:
        increment[res.classes[x]] += 1
    return res, tuple(increment)


_plans = bounded_memo(_merge_plan)


def compose_decorated(x, y):
    """Compose two labeled or two cobordism values of one regularity over a
    single base composition; returns the product and that
    CompositionResult.  Mixing a labeled value with a cobordism raises
    BaseMismatch, and a non-regular product with a negative label or
    spectrum entry, which only operands built without make_cobordism()
    can give, raises NegativeLabel."""
    if type(x) is not type(y):
        raise BaseMismatch(f"cannot compose a {type(x).__name__} with a {type(y).__name__}")
    if x.regular != y.regular:
        raise RegularityMismatch("cannot mix regular and non-regular values")
    res, increment = _plans(x.base, y.base)
    live, dead = _merge_labels(res, increment, x.genus, y.genus)
    if not x.regular and live and min(live) < 0:
        raise NegativeLabel(f"negative genus in non-regular product: {_shown(live)}")
    if isinstance(x, LabeledPartition):
        return LabeledPartition(res.product, live, x.regular), res
    if dead or (x.spectrum and y.spectrum):
        counts = dict(x.spectrum.pairs)
        for genus, count in y.spectrum.pairs:
            counts[genus] = counts.get(genus, 0) + count
        for genus in dead:
            counts[genus] = counts.get(genus, 0) + 1
        spectrum = Spectrum._trimmed(counts)
    else:  # a Spectrum is immutable and canonical, so the other one is the sum
        spectrum = x.spectrum or y.spectrum
    if not x.regular and spectrum.min_genus_negative():
        raise NegativeLabel(
            f"negative spectrum entry in non-regular product: {_shown(spectrum)}"
        )
    return Cobordism(res.product, live, spectrum, x.regular), res


def compose_cobordism(x: Cobordism, y: Cobordism) -> Cobordism:
    """Compose, depositing dead-block labels into the spectrum."""
    return compose_decorated(x, y)[0]


def _require_regular(x) -> None:
    if not x.regular:
        raise NotRegular("star needs a regular value")


def _star_genus(
    x: Partition, stats: PartitionStats, genus: Sequence[int]
) -> tuple[Partition, tuple[int, ...]]:
    """The reflected base with labels g*(B*) = 2 - v(B) - g(B); stats is block_stats(x)."""
    image, moved = reflect_tracked(x)
    per_block = stats.per_block
    out = [0] * len(genus)
    for i, target in moved.items():
        out[target] = 2 - per_block[i].v - genus[i]
    return image, tuple(out)


def star_labeled(x: LabeledPartition) -> LabeledPartition:
    _require_regular(x)
    return LabeledPartition(*_star_genus(x.base, block_stats(x.base), x.genus), True)


def star_cobordism(x: Cobordism) -> Cobordism:
    """Star: reflect the base, flip labels by g* = -g - v + 2, negate the
    spectrum and correct label 1 by the closed components that the
    round trip x x* necessarily creates."""
    _require_regular(x)
    stats = block_stats(x.base)
    spectrum = x.spectrum.negate() + Spectrum._of(((1, -(stats.lb + stats.rb)),))
    image, genus = _star_genus(x.base, stats, x.genus)
    return Cobordism(image, genus, spectrum, True)


def _mirror(x, tracked):
    """x under the involution whose base map is reflect_tracked or
    rotate_tracked: labels travel with their blocks, while the spectrum
    and the regularity flag stay put."""
    image, moved = tracked(x.base)
    genus = [0] * len(x.genus)
    for i, target in moved.items():
        genus[target] = x.genus[i]
    return type(x)(image, tuple(genus), *x[2:])


def sigma(x):
    """Side-swapping reflection of a labeled value or a cobordism."""
    return _mirror(x, reflect_tracked)


def rho(x):
    """Half-turn; like sigma but composed with the index reversal."""
    return _mirror(x, rotate_tracked)


def to_labeled(x: Cobordism) -> LabeledPartition:
    """Forget the spectrum."""
    return LabeledPartition(x.base, x.genus, x.regular)


def fiber_product_oracle(e: Partition, xs: Sequence[Cobordism]) -> Cobordism:
    """Closed form for products of cobordisms sharing one irreducible
    idempotent base.

    For rank 1, the transversal label collects every factor's transversal
    label, the interior right labels of all but the last factor, the
    interior left labels of all but the first, and (k-1) copies of the
    constant increment n - p - q - 1; side blocks keep the labels of the
    outermost factors and spectra add.  For rank 0 each adjacent pair
    additionally deposits one closed component of label
    sum(right_l) + sum(left_{l+1}) + n - (p + q) + 1.
    """
    witness = is_idempotent_structurally(e)
    if witness is None:
        raise NotIdempotent("base is not idempotent")
    if len(witness) > 1:
        raise NotIrreducible("base splits into several components")
    if not xs:
        raise BaseMismatch("need at least one factor")
    for x in xs:
        if x.base != e:
            raise BaseMismatch("factor over a different base")
        if x.regular != xs[0].regular:
            raise RegularityMismatch("mixed regularity in factor list")
    if len(xs) == 1:
        return xs[0]

    n = e.n
    k = len(xs)
    stats = block_stats(e)
    left = [i for i, st in enumerate(stats.per_block) if st.is_left]
    right = [i for i, st in enumerate(stats.per_block) if st.is_right]
    trans = [i for i, st in enumerate(stats.per_block) if st.is_transversal]
    p, q = len(left), len(right)
    spectrum = Spectrum()
    for x in xs:
        spectrum = spectrum + x.spectrum

    genus = [0] * e.nblocks
    for i in left:
        genus[i] = xs[0].genus[i]
    for j in right:
        genus[j] = xs[-1].genus[j]

    if trans:
        assert len(trans) == 1 and n >= 1
        t = trans[0]
        label = sum(x.genus[t] for x in xs)
        label += sum(xs[l].genus[j] for l in range(k - 1) for j in right)
        label += sum(xs[l].genus[i] for l in range(1, k) for i in left)
        label += (k - 1) * (n - p - q - 1)
        genus[t] = label
    elif n > 0:
        for l in range(k - 1):
            dead = (
                sum(xs[l].genus[j] for j in right)
                + sum(xs[l + 1].genus[i] for i in left)
                + n - (p + q) + 1
            )
            spectrum = spectrum + Spectrum({dead: 1})

    return Cobordism(e, tuple(genus), spectrum, xs[0].regular)
