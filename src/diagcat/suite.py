"""Acceptance battery.

Sixteen independent checks, one per released acceptance criterion.  Each
check draws its randomness from its own seeded generator, so a run with a
fixed seed always reproduces the same verdicts, witnesses and details.
run_suite() executes the battery in a fixed order and returns a Report
whose JSON form is versioned as "report_v1".

The two exhaustive label checks (cobordism-assoc, labeled-antiautomorphism)
compose at one generic point: the operands' k blocks carry the int labels
B, B^2, ..., B^k, with B = _GENERIC_BASE = 2^20.  A label that a composition
or a star makes is a sum of operand labels with coefficients in {-1, 0, 1}
plus a constant within -2..2, so it is that linear form written in balanced
base B: two results are equal as integers exactly when they are equal as
forms, that is, under every label assignment.

The sampled family laws (involution-laws, regular-star-laws, the random
halves of partition-axioms, cobordism-assoc and circle-counting) run through
_check_associative, _check_involution(s) and _check_star, which know the
families only through the rows of serialize.CATEGORIES: composer,
involutions, star, quotients.
"""

from __future__ import annotations

import itertools
import operator
import random
import time
from collections import Counter
from functools import lru_cache, reduce
from typing import Callable, NamedTuple

import numpy as np

from .annular import (
    _twisted,
    affine_identity,
    affine_power,
    build_ann_monoid,
    compose_affine,
    cup_cap,
    enumerate_affine,
    lambda_pow,
    make_affine,
    project_to_ann,
    rho_affine,
    shift_gap,
    sigma_affine,
    zeta,
)
from .auxmonoids import (
    A2_ONE,
    A2_ZERO,
    CF_CIRCLE,
    CF_EMPTY,
    ReesL2Element,
    SDPElement,
    a2_image,
    a21_elements,
    a21_mul,
    a21_pair,
    a21_star,
    genus_pair,
    rees_mul,
)
from .cobordisms import (
    Cobordism,
    Spectrum,
    compose_cobordism,
    _merge_labels,
    _plans,
    fiber_product_oracle,
    make_cobordism,
    rho,
    sigma,
    to_labeled,
)
from .errors import CrossingError, DiagcatError
from .identities import (
    IDENTITY_REGISTRY,
    Word,
    canonical_form,
    content,
    evaluate,
    extreme_rep,
    holds_in_M,
    holds_in_N,
    left_section,
    monoid_REES,
    monoid_SDP,
    normal_form,
    parse_word,
    right_section,
    sort_to_normal,
    star_mix_words,
    zimin,
    zimin_sorted_pair,
)
from .partitions import (
    IN,
    OUT,
    Partition,
    block_stats,
    compose,
    enumerate_partitions,
    is_idempotent_structurally,
    reflect,
)
from .sampling import (
    _below,
    random_affine,
    random_cobordism,
    random_spectrum,
    random_word,
)
from .serialize import CATEGORIES, Category, Deformed


class CheckFailed(AssertionError):
    """Raised inside a check to mark its criterion as failed."""


def _require(cond: bool, message: str | Callable[[], str]) -> None:
    """Fail the check unless cond holds.  A message that formats operands
    is passed as a callable, so it is only built when the check fails."""
    if not cond:
        raise CheckFailed(message() if callable(message) else message)


@lru_cache(maxsize=None)
def _parts(m: int, n: int) -> tuple[Partition, ...]:
    return tuple(enumerate_partitions(m, n))


@lru_cache(maxsize=None)
def _part_index(m: int, n: int) -> dict:
    return {p: i for i, p in enumerate(_parts(m, n))}


def _mul(row: Category, x, y):
    return row.compose(x, y)[0]


def _check_associative(row: Category, x, y, z):
    """(x y) z == x (y z), and the diagnostics (dead blocks, or circles b0
    and bw) of the two bracketings add up alike; returns (x y) z."""
    xy, d_xy = row.compose(x, y)
    yz, d_yz = row.compose(y, z)
    left, d_left = row.compose(xy, z)
    right, d_right = row.compose(x, yz)
    _require(
        left == right and all(d_xy[k] + d_left[k] == d_yz[k] + d_right[k] for k in d_xy),
        lambda: f"{row.name}: the {'diagnostics' if left == right else 'products'} of "
        f"(x y) z and x (y z) differ at {x!r}, {y!r}, {z!r}",
    )
    return left


def _check_involution(row: Category, name: str, x, y, xy) -> None:
    """The row's involution name (sigma or rho) squares to the identity on
    x, reverses the product xy of x and y, and commutes at x with each of
    the row's quotient maps."""
    inv = getattr(row, name)
    ix = inv(x)
    _require(inv(ix) == x, lambda: f"{row.name}: {name} fails to square away on {x!r}")
    _require(
        inv(xy) == _mul(row, inv(y), ix),
        lambda: f"{row.name}: {name} fails to reverse on {x!r}, {y!r}",
    )
    for target, q in row.quotients.items():
        _require(
            q(ix) == getattr(CATEGORIES[target], name)(q(x)),
            lambda: f"{row.name} -> {target} does not commute with {name} at {x!r}",
        )


def _check_involutions(row: Category, x, y) -> None:
    xy = _mul(row, x, y)
    for name in ("sigma", "rho"):
        _check_involution(row, name, x, y, xy)


def _check_star(row: Category, x) -> None:
    """x** == x, x x* x == x and x* x x* == x* for the row's star."""
    xs = row.star(x)
    _require(row.star(xs) == x, lambda: f"{row.name}: x** != x for {x!r}")
    _require(_mul(row, _mul(row, x, xs), x) == x, lambda: f"{row.name}: x x* x != x for {x!r}")
    _require(
        _mul(row, _mul(row, xs, x), xs) == xs, lambda: f"{row.name}: x* x x* != x* for {x!r}"
    )


# --------------------------------------------------------------------------
# 1. associativity and the dead-block cocycle


TRIPLE_BUDGET = 10**6


@lru_cache(maxsize=None)
def _pair_table(a: int, b: int, c: int):
    """Tabulate compose over hom(a,b) x hom(b,c) as product indices into
    hom(a,c) plus the dead-block counts; both arrays are read-only, since
    every caller shares them."""
    left, right = _parts(a, b), _parts(b, c)
    target = _part_index(a, c)
    prod = np.empty((len(left), len(right)), dtype=np.int32)
    dead = np.empty_like(prod)
    for i, x in enumerate(left):
        for j, y in enumerate(right):
            r = compose(x, y)
            prod[i, j] = target[r.product]
            dead[i, j] = r.b
    prod.flags.writeable = dead.flags.writeable = False
    return prod, dead


def check_partition_axioms(rng: random.Random) -> str:
    sizes = range(4)
    tables = {key: _pair_table(*key) for key in itertools.product(sizes, repeat=3)}

    triples = 0
    skipped = []
    for a, b, c, d in itertools.product(sizes, repeat=4):
        count = len(_parts(a, b)) * len(_parts(b, c)) * len(_parts(c, d))
        if count > TRIPLE_BUDGET:
            skipped.append((a, b, c, d))
            continue
        p1, b1 = tables[(a, b, c)]
        p2, b2 = tables[(a, c, d)]
        p3, b3 = tables[(b, c, d)]
        p4, b4 = tables[(a, b, d)]
        left = p2[p1]
        right = p4[:, p3] if p4.size else np.empty_like(left)
        lb = b1[:, :, None] + b2[p1]
        rb = b3[None, :, :] + b4[:, p3]
        _require(
            np.array_equal(left, right) and np.array_equal(lb, rb),
            lambda: f"associativity or label cocycle broken at shape {(a, b, c, d)}",
        )
        triples += count

    row = CATEGORIES["P"]
    for _ in range(10_000):
        _check_associative(row, *[row.sample(rng, 4, 4, True) for _ in range(3)])
    return (
        f"{triples} exhaustive triples over layer sizes <= 3 "
        f"({len(skipped)} shapes above the 10^6 budget: {skipped}); "
        f"10000 random [4]~>[4] triples; products and dead counts agree"
    )


# --------------------------------------------------------------------------
# 2. the reflection star laws on plain partitions


def check_reflect_star_laws(rng: random.Random) -> str:
    """The star laws over hom(n,n), n = 2, 3, read from the composition
    tables, with the reflection as the index map star."""
    singles = pairs = 0
    for n in (2, 3):
        parts = _parts(n, n)
        index = _part_index(n, n)
        prod, dead = _pair_table(n, n, n)
        star = np.array([index[reflect(a)] for a in parts])
        rb, lb = np.array([(st.rb, st.lb) for st in map(block_stats, parts)]).T
        ids = np.arange(len(parts))
        fwd, bwd = prod[ids, star], prod[star, ids]
        laws = (
            (star[star] == ids, "double reflection moved {!r}"),
            (dead[ids, star] == rb, "b(a, a*) != rb(a) at {!r}"),
            (dead[star, ids] == lb, "b(a*, a) != lb(a) at {!r}"),
            (prod[fwd, ids] == ids, "a a* a != a at {!r}"),
            (prod[bwd, star] == star, "a* a a* != a* at {!r}"),
        )
        held = np.array([ok for ok, _ in laws])
        if not held.all():
            i = int(np.argmin(held.all(axis=0)))
            raise CheckFailed(laws[int(np.argmin(held[:, i]))][1].format(parts[i]))
        product_rule = star[prod] == prod[star][:, star].T
        if not product_rule.all():
            i, j = np.unravel_index(np.argmin(product_rule), product_rule.shape)
            raise CheckFailed(f"(ab)* != b* a* at {parts[i]!r}, {parts[j]!r}")
        singles += len(parts)
        pairs += len(parts) ** 2
    return (
        f"{singles} partitions over [2]~>[2] and [3]~>[3]: star laws and both "
        f"dead-count identities hold; product rule checked on {pairs} pairs"
    )


# --------------------------------------------------------------------------
# 3. labeled composition at the generic point


_GENERIC_BASE = 1 << 20


def _generic(*bases: Partition) -> list[Cobordism]:
    """Regular cobordisms with empty spectra over bases at the generic
    point: their k blocks carry the labels B, B^2, ..., B^k in order."""
    powers = itertools.accumulate(itertools.repeat(_GENERIC_BASE), operator.mul)
    return [
        Cobordism(p, tuple(itertools.islice(powers, p.nblocks)), Spectrum(), True) for p in bases
    ]


def check_cobordism_assoc(rng: random.Random) -> str:
    parts = _parts(2, 2)
    triples = 0
    for a, b, c in itertools.product(parts, repeat=3):
        x, y, z = _generic(a, b, c)
        left = _check_associative(CATEGORIES["Cob-bar"], x, y, z)
        # tie the composition to its merge plans, dead-label deposits included
        r_xy, inc = _plans(a, b)
        live_xy, dead_xy = _merge_labels(r_xy, inc, x.genus, y.genus)
        r, inc = _plans(r_xy.product, c)
        live, dead = _merge_labels(r, inc, live_xy, z.genus)
        _require(
            left == Cobordism(r.product, live, Spectrum._of((d, 1) for d in dead_xy + dead), True),
            lambda: f"compose_decorated out of step with its merge plans at {a!r}, {b!r}, {c!r}",
        )
        triples += 1

    randoms = 0
    bits = rng.getrandbits
    for _ in range(10_000):
        m, k, l, n = [_below(bits, 4) for _ in range(4)]
        regular = rng.random() < 0.5
        x = random_cobordism(rng, m, k, regular=regular, spectrum_support=3)
        y = random_cobordism(rng, k, l, regular=regular, spectrum_support=3)
        z = random_cobordism(rng, l, n, regular=regular, spectrum_support=3)
        _check_associative(CATEGORIES["Cob-bar" if regular else "Cob"], x, y, z)
        randoms += 1
    return (
        f"{triples} base triples over [2]~>[2] checked symbolically, covering "
        f"every label assignment, with per-triple numeric spot checks; "
        f"{randoms} random spectral triples over shapes <= 3"
    )


# --------------------------------------------------------------------------
# 4. the sandwich laws of the regular stars


def check_regular_star_laws(rng: random.Random) -> str:
    rows = (CATEGORIES["Pd-bar"], CATEGORIES["Cob-bar"])
    count = 0
    bits = rng.getrandbits
    for _ in range(10_000):
        m, n = _below(bits, 4), _below(bits, 4)
        for row in rows:
            _check_star(row, row.sample(rng, m, n, True))
            count += 1
    return (
        f"{count} random regular elements over shapes <= [3]~>[3], split "
        f"between deformed partitions and full labeled values; all three "
        f"sandwich laws hold"
    )


# --------------------------------------------------------------------------
# 5. when the labeled stars reverse products


def check_labeled_antiautomorphism(rng: random.Random) -> str:
    parts = _parts(2, 2)
    labeled, deformed = CATEGORIES["Cob0-bar"], CATEGORIES["Pd-bar"]

    # the genus-labeled star reverses every product: at the generic point,
    # so under every label assignment, and at labels drawn from -2..2
    bits = rng.getrandbits
    for a, b in itertools.product(parts, repeat=2):
        generic = [to_labeled(x) for x in _generic(a, b)]
        drawn = [x._replace(genus=tuple([_below(bits, 5) - 2 for _ in x.genus])) for x in generic]
        for how, (x, y) in (("symbolically", generic), ("numerically", drawn)):
            _require(
                labeled.star(_mul(labeled, x, y))
                == _mul(labeled, labeled.star(y), labeled.star(x)),
                lambda: f"(xy)* != y* x* {how} at {x!r}, {y!r}",
            )

    # the deformed star reverses some products but not all of them
    cond_pairs = eq_pairs = extra = 0
    for a, b in itertools.product(parts, repeat=2):
        sa, sb = block_stats(a), block_stats(b)
        r = compose(a, b)
        sp = block_stats(r.product)
        cond = sa.rb + sb.lb == 2 * r.b
        verdicts = set()
        for s, t in itertools.product((-2, 0, 2), repeat=2):
            x = Deformed(a, (s,), True)
            y = Deformed(b, (t,), True)
            lhs = deformed.star(_mul(deformed, x, y))
            rhs = _mul(deformed, deformed.star(y), deformed.star(x))
            verdicts.add(lhs == rhs)
        _require(
            len(verdicts) == 1,
            lambda: f"deformed star equality depends on shifts at {a!r}, {b!r}",
        )
        eq = verdicts.pop()
        if cond:
            cond_pairs += 1
            _require(eq, lambda: f"rb(a) + lb(b) = 2b did not force reversal at {a!r}, {b!r}")
        if eq:
            eq_pairs += 1
            extra += not cond
        exact = (
            sa.rb + sa.lb + sb.rb + sb.lb - sp.rb - sp.lb == 2 * r.b
        )
        _require(
            eq == exact,
            lambda: f"side-count drop criterion missed the reversal verdict at {a!r}, {b!r}",
        )
    _require(extra > 0, "expected reversal without the sufficient condition")
    return (
        f"genus-labeled star reverses all 225 base pairs (symbolic plus "
        f"numeric spot checks); deformed star: sufficient condition holds on "
        f"{cond_pairs} pairs, reversal on {eq_pairs} of 225, including {extra} "
        f"outside the condition, so only the forward implication is valid; "
        f"the exact criterion (side-count drop equals twice the dead count) "
        f"matches on all pairs"
    )


# --------------------------------------------------------------------------
# 6. structural idempotency


def check_idempotent_structure(rng: random.Random) -> str:
    sizes = (0, 1, 2, 3)
    total = idem = 0
    for n in sizes:
        for e in _parts(n, n):
            verdict = is_idempotent_structurally(e)
            truth = compose(e, e).product == e
            _require(
                bool(verdict) == truth,
                lambda: f"structural verdict disagrees with e*e at {e!r}",
            )
            if truth:
                idem += 1
                _require(
                    all(rank <= 1 for _, rank in verdict),
                    lambda: f"witness component with rank above 1 at {e!r}",
                )
            total += 1
    return (
        f"{total} square partitions over n in {sizes}: structural "
        f"verdicts all match e*e; {idem} idempotents found"
    )


# --------------------------------------------------------------------------
# 7. closed-form products over one idempotent base


@lru_cache(maxsize=1)
def _irreducible_idempotent_bases() -> tuple[Partition, ...]:
    found = []
    for n in range(4):
        for e in _parts(n, n):
            witness = is_idempotent_structurally(e)
            if witness and len(witness) <= 1:
                found.append(e)
    return tuple(found)


def _random_fiber_element(rng: random.Random, e: Partition, regular: bool) -> Cobordism:
    bits = rng.getrandbits
    lo, width = (-2, 5) if regular else (0, 4)
    labels = tuple([lo + _below(bits, width) for _ in range(e.nblocks)])
    spectrum = random_spectrum(rng, support=_below(bits, 3))
    return make_cobordism(e, labels, spectrum, regular)


def check_fiber_oracle(rng: random.Random) -> str:
    bases = _irreducible_idempotent_bases()
    _require(
        len(bases) == 69,
        lambda: f"expected 69 irreducible idempotent bases with n <= 3, found {len(bases)}",
    )
    for i in range(1000):
        e = bases[i % len(bases)]
        regular = rng.random() < 0.5
        xs = [
            _random_fiber_element(rng, e, regular)
            for _ in range(1 + _below(rng.getrandbits, 6))
        ]
        direct = reduce(compose_cobordism, xs)
        _require(
            fiber_product_oracle(e, xs) == direct,
            lambda: f"oracle disagrees with iterated composition over {e!r}",
        )

    lhs, rhs = parse_word("abacaba"), parse_word("acababa")
    for i in range(1000):
        e = bases[i % len(bases)]
        regular = rng.random() < 0.5
        subst = {ch: _random_fiber_element(rng, e, regular) for ch in "abc"}
        val_l = reduce(compose_cobordism, (subst[ch] for ch in lhs.letters))
        val_r = reduce(compose_cobordism, (subst[ch] for ch in rhs.letters))
        _require(
            val_l == val_r,
            lambda: f"shuffled seven-letter identity failed in the fiber over {e!r}",
        )
    return (
        "69 irreducible idempotent bases with n <= 3; 1000 random products "
        "of length <= 6 match the closed form; the shuffled seven-letter "
        "identity holds under 1000 random fiber substitutions"
    )


# --------------------------------------------------------------------------
# 8. collapsing genus pairs onto the five-element band with zero


def check_a2_morphism(rng: random.Random) -> str:
    els = a21_elements()
    for x, y in itertools.product(els, repeat=2):
        z = a21_mul(x, y)
        if x is A2_ONE:
            expected = y
        elif y is A2_ONE:
            expected = x
        elif x is A2_ZERO or y is A2_ZERO:
            expected = A2_ZERO
        elif (x.j, y.i) == (1, 1):
            expected = A2_ZERO
        else:
            expected = a21_pair(x.i, y.j)
        _require(z == expected, lambda: f"band table wrong at {x!r} * {y!r} = {z!r}")
    _require(
        a21_mul(a21_pair(0, 1), a21_pair(1, 0)) is A2_ZERO,
        "(0,1)(1,0) should vanish",
    )
    _require(
        a21_mul(a21_pair(0, 0), a21_pair(1, 1)) == a21_pair(0, 1),
        "(0,0)(1,1) should be (0,1)",
    )

    pool = []
    for i, j in itertools.product((0, 1), repeat=2):
        for counts in itertools.product(range(3), repeat=4):
            spectrum = Spectrum({g: c for g, c in enumerate(counts) if c})
            pool.append(genus_pair(i, spectrum, j))
    checked = 0
    for x in pool:
        ix = a2_image(x)
        _require(
            a2_image(sigma(x)) == a21_star(ix) and a2_image(rho(x)) == a21_star(ix),
            lambda: f"collapse map breaks the involutions at {x!r}",
        )
        for y in pool:
            _require(
                a2_image(compose_cobordism(x, y)) == a21_mul(ix, a2_image(y)),
                lambda: f"collapse map is not multiplicative at {x!r}, {y!r}",
            )
            checked += 1
    return (
        f"band-with-zero table matches on all 36 pairs; collapse map is a "
        f"homomorphism on all {checked} products of {len(pool)} genus pairs "
        f"(entries <= 2, genus support <= 3) and respects both involutions"
    )


# --------------------------------------------------------------------------
# 9. affine diagram validation and the twist laws


_CROSSING_EXAMPLES = (
    (2, 2, {(IN, 1): (0, OUT, 2), (IN, 2): (0, OUT, 1),
            (OUT, 1): (0, IN, 2), (OUT, 2): (0, IN, 1)}),
    (4, 0, {(IN, 1): (0, IN, 3), (IN, 3): (0, IN, 1),
            (IN, 2): (0, IN, 4), (IN, 4): (0, IN, 2)}),
    (2, 2, {(IN, 1): (1, OUT, 1), (OUT, 1): (-1, IN, 1),
            (IN, 2): (0, OUT, 2), (OUT, 2): (0, IN, 2)}),
)


def check_affine_validation(rng: random.Random) -> str:
    row = CATEGORIES["aTLe"]
    accepted = 0
    for n in range(1, 6):
        generators = [zeta(n), lambda_pow(n), affine_identity(n)]
        if n >= 2:
            generators += [cup_cap(n, i) for i in range(1, n + 1)]
        for d in generators:
            _require(
                row.decode(row.encode(d)) == d,
                lambda: f"validator rejected or rebuilt {d!r} differently",
            )
            accepted += 1
        _require(
            affine_power(zeta(n), n) == lambda_pow(n),
            lambda: f"rotation^{n} is not the full shift at width {n}",
        )

    rejected = 0
    for m, n, partners in _CROSSING_EXAMPLES:
        try:
            make_affine(m, n, partners)
        except CrossingError:
            rejected += 1
        else:
            raise CheckFailed(f"validator accepted a crossing matching on ({m},{n})")

    pool = list(enumerate_affine(1, 3, 1)) + list(enumerate_affine(3, 1, 1))
    slid = 0
    bits = rng.getrandbits
    for i in range(1000):
        if i % 4 == 0:
            a = pool[_below(bits, len(pool))]
        else:
            a = random_affine(rng, 1 + _below(bits, 4), steps=1 + _below(bits, 5))
        r = _below(bits, 7) - 3
        left = compose_affine(lambda_pow(a.m, r), a).product
        right = compose_affine(a, lambda_pow(a.n, r)).product
        _require(left == right, lambda: f"full shift fails to slide across {a!r}")
        _require(
            left.partner == a.partner
            and left.offset == _twisted(a.m, a.partner, a.offset, r),
            lambda: f"full shift by {r} broke the twist rule on {a!r}",
        )
        slid += 1

    counts = {}
    mismatch = 0
    for m, n in ((1, 1), (2, 2), (3, 3), (1, 3), (3, 1)):
        diagrams = list(enumerate_affine(m, n, 2))
        counts[(m, n)] = len(diagrams)
        positive = [d for d in diagrams if d.rank > 0]
        shadows = [project_to_ann(d) for d in positive]
        for (x, sx), (y, sy) in itertools.product(
            zip(positive, shadows), repeat=2
        ):
            same = sx == sy
            gap = shift_gap(x, y)
            _require(
                (gap is not None) == same,
                lambda: f"shadow fiber test disagrees with twist search at {x!r}, {y!r}",
            )
            mismatch += 1
    _require(
        counts[(1, 1)] == 5
        and counts[(2, 2)] == 13
        and counts[(3, 3)] == 58
        and counts[(1, 3)] == 15,
        lambda: f"enumeration counts moved: {counts}",
    )
    return (
        f"{accepted} generator diagrams rebuilt through the validator; "
        f"{rejected} crossing matchings rejected; full-shift translation "
        f"laws on {slid} diagrams; same-shadow iff twist-of-full-shift "
        f"checked on all rank-positive pairs at offsets <= 2 "
        f"({mismatch} pairs, counts {sorted(counts.items())})"
    )


# --------------------------------------------------------------------------
# 10. circle bookkeeping


def check_circle_counting(rng: random.Random) -> str:
    cc1, cc2 = cup_cap(2, 1), cup_cap(2, 2)
    r = compose_affine(cc1, cc1)
    _require(
        r.product == cc1 and r.b0 == 1 and r.bw == 0,
        lambda: f"cup-cap self-composition miscounted: b0={r.b0}, bw={r.bw}",
    )
    w = compose_affine(cc1, cc2)
    _require(
        w.b0 == 0 and w.bw == 1,
        lambda: f"wrap element miscounted: b0={w.b0}, bw={w.bw}",
    )

    randoms = 0
    bits = rng.getrandbits
    for row in (CATEGORIES["aTL"], CATEGORIES["aTLd"]):
        for _ in range(5000):
            n = 1 + _below(bits, 3)
            x, y, z = (row.sample(rng, n, n, False) for _ in range(3))
            left = _check_associative(row, x, y, z)
            _require(
                left.base.rank == 0 or left.counts[0] == 0,
                lambda: f"positive rank with nonzero wrap count: {left!r}",
            )
            randoms += 1
    return (
        f"cup-cap self-composition gives b0=1, bw=0 and the wrap element "
        f"gives bw=1; {randoms} random associativity cases; wrap counts "
        f"always vanish at positive rank"
    )


# --------------------------------------------------------------------------
# 11. the width-3 shadow monoid


def check_ann3_structure(rng: random.Random) -> str:
    annm = build_ann_monoid(3)
    els, fm = annm.elements, annm.monoid
    _require(len(els) == 12, lambda: f"expected 12 elements, found {len(els)}")
    units = fm.units()
    _require(len(units) == 3, lambda: f"unit group should have order 3, found {len(units)}")
    _require(
        all(els[u].rank == 3 for u in units),
        "units should all have full rank",
    )
    for u in units:
        if u != fm.one:
            _require(
                fm.index_period(u) == (1, 3),
                "non-identity unit should have order 3",
            )
    band = [i for i, e in enumerate(els) if e.rank == 1]
    _require(len(band) == 9, lambda: f"expected 9 rank-1 elements, found {len(band)}")
    in_band = set(band)
    for i in band:
        _require(fm.table[i][i] == i, "rank-1 elements should be idempotent")
        for j in band:
            ij = fm.table[i][j]
            _require(ij in in_band, "rank-1 products should stay at rank 1")
            _require(fm.table[ij][i] == i, "xyx != x inside the band")
    for s in range(fm.size):
        for i in band:
            _require(
                fm.table[s][i] in in_band and fm.table[i][s] in in_band,
                "the rank-1 elements should absorb the whole monoid",
            )
    rows = {tuple(fm.table[i][j] for j in band) for i in band}
    cols = {tuple(fm.table[j][i] for j in band) for i in band}
    _require(
        len(rows) == 3 and len(cols) == 3,
        lambda: f"band should be 3 x 3, found {len(rows)} rows and {len(cols)} columns",
    )
    return (
        "12 elements; cyclic unit group of order 3 at full rank; the 9 "
        "rank-1 elements form an idempotent 3 x 3 band that absorbs the "
        "monoid on both sides"
    )


# --------------------------------------------------------------------------
# 12. a mirror pair generating an infinite cyclic twist


def check_wrap_idempotent_search(rng: random.Random) -> str:
    idems = [
        d
        for d in enumerate_affine(3, 3, 2)
        if d.rank == 1 and compose_affine(d, d).product == d
    ]
    _require(
        len(idems) == 9, lambda: f"expected 9 rank-1 idempotents, found {len(idems)}"
    )
    idem_set = set(idems)
    found = None
    for mirror_name, mirror in (("sigma", sigma_affine), ("rho", rho_affine)):
        for a in idems:
            b = mirror(a)
            if b not in idem_set:
                continue
            ab = compose_affine(a, b).product
            if ab.rank == 0:
                continue
            gaps = []
            power = ab
            for t in range(1, 9):
                if t > 1:
                    power = compose_affine(power, ab).product
                q = shift_gap(ab, power)
                if q is None:
                    break
                gaps.append(q)
            if len(gaps) < 8:
                continue
            diffs = {gaps[t + 1] - gaps[t] for t in range(7)}
            if len(diffs) == 1 and diffs != {0}:
                found = (mirror_name, gaps)
                break
        if found:
            break
    _require(
        found is not None,
        "no mirror pair of rank-1 idempotents with linearly growing twist",
    )
    name, gaps = found
    return (
        f"{name}-mirror pair of rank-1 idempotents found among {len(idems)} "
        f"candidates at offsets <= 2; twist of the product powers grows "
        f"linearly: {gaps}"
    )


# --------------------------------------------------------------------------
# 13. the word engine


def _section_key(w: Word, reduce: Callable[[int], int]):
    """The full occurrence counts of w, and for each letter x the letter
    counts of its left and right sections at x, each passed through reduce."""

    def counted(section: Word):
        return tuple(sorted((y, reduce(c)) for y, c in Counter(section.letters).items()))

    counts = Counter(w.letters)
    sections = tuple(
        (x, counted(left_section(w, x)), counted(right_section(x, w))) for x in sorted(counts)
    )
    return (tuple(sorted(counts.items())), sections)


def _m_key(w: Word):
    return _section_key(w, lambda c: c)


def _n_key(w: Word):
    # sections only by content and parity
    return _section_key(w, lambda c: c % 2)


def check_word_engine(rng: random.Random) -> str:
    w = parse_word("x3yxytz4xyz")
    rep = extreme_rep(w)
    _require(str(rep.e) == "xytzxyz", lambda: f"extreme word moved: {rep.e}")
    _require(
        [str(b) for b in rep.blocks] == ["x2", "xy", "1", "z3", "1", "1"],
        lambda: f"interior blocks moved: {[str(b) for b in rep.blocks]}",
    )
    _require(rep.reassemble() == w, "extreme representation does not reassemble")
    _require(normal_form(w) == w, "the worked example should already be sorted")

    words = [
        Word(t)
        for length in range(1, 8)
        for t in itertools.product("xyz", repeat=length)
    ]
    nfs = [normal_form(u) for u in words]
    cfs = [canonical_form(u) for u in words]
    mkeys = [_m_key(u) for u in words]
    nkeys = [_n_key(u) for u in words]
    _require(
        len(set(nfs)) == len(set(mkeys)) == len(set(zip(nfs, mkeys))),
        "sorted forms do not classify the count-and-section data",
    )
    _require(
        len(set(cfs)) == len(set(nkeys)) == len(set(zip(cfs, nkeys))),
        "canonical forms do not classify the parity data",
    )

    by_nf: dict = {}
    for u, nf in zip(words, nfs):
        by_nf.setdefault(nf, []).append(u)
    for group in by_nf.values():
        head = extreme_rep(group[0])
        for u in group[1:]:
            other = extreme_rep(u)
            _require(
                other.e == head.e,
                lambda: f"equivalent words with different extreme words: {group[0]}, {u}",
            )
            _require(
                all(
                    Counter(p.letters) == Counter(q.letters)
                    for p, q in zip(head.blocks, other.blocks)
                ),
                lambda: f"equivalent words with unbalanced interior blocks: {group[0]}, {u}",
            )

    # exercise the pairwise deciders directly on sampled pairs
    nf_of, cf_of = dict(zip(words, nfs)), dict(zip(words, cfs))
    bits = rng.getrandbits
    for _ in range(3000):
        u, v = words[_below(bits, len(words))], words[_below(bits, len(words))]
        _require(
            holds_in_M(u, v) == (nf_of[u] == nf_of[v]),
            lambda: f"one-variable decider and sorted forms disagree on {u}, {v}",
        )
        _require(
            holds_in_N(u, v) == (cf_of[u] == cf_of[v]),
            lambda: f"parity decider and canonical forms disagree on {u}, {v}",
        )
    positives = 0
    for group in by_nf.values():
        if len(group) >= 2:
            u, v = group[_below(bits, len(group))], group[_below(bits, len(group))]
            _require(holds_in_M(u, v), lambda: f"decider rejects an equivalent pair {u}, {v}")
            positives += 1

    sorted_words = 0
    for _ in range(10_000):
        u = random_word(rng)
        result, steps = sort_to_normal(u)
        _require(
            result == normal_form(u)
            and Counter(result.letters) == Counter(u.letters),
            lambda: f"sorting did not terminate at the sorted form for {u}",
        )
        sorted_words += 1

    nested = IDENTITY_REGISTRY["interior-swap-nested"]
    crossed = IDENTITY_REGISTRY["interior-swap-crossed"]
    cube = IDENTITY_REGISTRY["cube-transport"]
    _require(
        holds_in_M(nested.lhs, nested.rhs),
        "nested interior swap should hold with full counts",
    )
    _require(
        holds_in_M(crossed.lhs, crossed.rhs),
        "crossed interior swap should hold with full counts",
    )
    _require(
        holds_in_N(cube.lhs, cube.rhs),
        "cube transport should hold up to parity",
    )
    _require(
        not holds_in_M(cube.lhs, cube.rhs),
        "cube transport should fail with full counts",
    )
    return (
        f"worked decomposition reproduced; over all {len(words)} words on 3 "
        f"letters up to length 7 the sorted and canonical forms classify "
        f"exactly the count and parity data, extreme words and interior "
        f"balance hold per class ({positives} in-class pairs spot checked); "
        f"sorting terminated correctly on {sorted_words} random words; the "
        f"two interior swaps hold, cube transport holds only up to parity"
    )


# --------------------------------------------------------------------------
# 14. closed-form values of the recursive doubling words


_FOREST_GENERATORS = (
    CF_CIRCLE,
    CF_CIRCLE.enclose(),
    CF_CIRCLE + CF_CIRCLE,
    CF_CIRCLE.enclose().enclose(),
    CF_CIRCLE + CF_CIRCLE.enclose(),
)


def check_shift_monoid_zimin(rng: random.Random) -> str:
    sdp = monoid_SDP()
    for k in range(1, 6):
        z = zimin(k)
        letters = sorted(content(z))
        subst = {
            ch: SDPElement(_FOREST_GENERATORS[i], CF_EMPTY, 1)
            for i, ch in enumerate(letters)
        }
        value = evaluate(z, subst, sdp)
        left = _FOREST_GENERATORS[0] * 2 ** (k - 1)
        right = CF_EMPTY
        for i in range(1, k):
            right = right + _FOREST_GENERATORS[i] * 2 ** (k - 1 - i)
        _require(
            value == SDPElement(left, right, 2**k - 1),
            lambda: f"closed form missed at k={k}: {value!r}",
        )
        if k >= 2:
            w = zimin_sorted_pair(k).rhs
            _require(
                any(a == b == letters[0] for a, b in zip(w.letters, w.letters[1:])),
                lambda: f"registered witness at k={k} should contain a square of the first letter",
            )
            _require(
                evaluate(w, subst, sdp) != value,
                lambda: f"sorted witness fails to separate at k={k}",
            )
    return (
        "doubling words match ((2^(k-1)x1, sum 2^(k-i)xi), 2^k - 1) for "
        "k <= 5; the sorted witnesses with a squared first letter separate "
        "for k in 2..5"
    )


# --------------------------------------------------------------------------
# 15. the two-sided nesting witnesses


def check_rees_witnesses(rng: random.Random) -> str:
    x0 = ReesL2Element(CF_EMPTY, CF_EMPTY, CF_EMPTY)
    acc = x0
    for t in range(2, 9):
        acc = rees_mul(acc, x0)
        _require(
            acc == ReesL2Element(CF_EMPTY, CF_CIRCLE * (t - 1), CF_EMPTY),
            lambda: f"(0,0,0)^{t} should be (0, (t-1) bare circles, 0), got {acc!r}",
        )

    rees = monoid_REES()
    marker = (CF_CIRCLE + CF_CIRCLE).enclose()
    subst = {"x": ReesL2Element(CF_EMPTY, CF_EMPTY, CF_CIRCLE)}
    mixed = pure = 0
    for t in range(3, 9):
        for w in star_mix_words(t):
            value = evaluate(w, subst, rees)
            _require(
                marker in value.mid.indecomposables(),
                lambda: f"mixing word {w} lost the doubled nested circle",
            )
            mixed += 1
        for text in ("x" * t, "x*" * t):
            value = evaluate(parse_word(text), subst, rees)
            _require(
                marker not in value.mid.indecomposables(),
                lambda: f"pure power {text} grew a doubled nested circle",
            )
            pure += 1
    return (
        f"powers of the bare triple accumulate one circle per step up to "
        f"t=8; the doubled nested circle appears in all {mixed} mixing "
        f"witnesses and in none of the {pure} pure powers"
    )


# --------------------------------------------------------------------------
# 16. the two involutions across every family


def check_involution_laws(rng: random.Random) -> str:
    rows = [row for row in CATEGORIES.values() if True in row.regularities]
    strips = [row for row in rows if not row.square]
    squares = [row for row in rows if row.square]
    checks = 0
    bits = rng.getrandbits
    for _ in range(5000):
        m, n, r = _below(bits, 4), _below(bits, 4), _below(bits, 4)
        for row in strips:
            _check_involutions(row, row.sample(rng, m, n, True), row.sample(rng, n, r, True))
        checks += 1

    # fresh affine samples cost about twice the laws, so draw pools once
    pools = {
        (row.name, n): [row.sample(rng, n, n, True) for _ in range(500)]
        for row in squares
        for n in (1, 2, 3)
    }
    for _ in range(5000):
        n = 1 + _below(bits, 3)
        for row in squares:
            pool = pools[row.name, n]
            x, y = pool[_below(bits, len(pool))], pool[_below(bits, len(pool))]
            _check_involutions(row, x, y)
            if row.name == "aTLe":
                _check_star(row, x)  # its star is the reflection
        checks += 1

    for x in a21_elements():
        _require(a21_star(a21_star(x)) == x, lambda: f"band involution moved {x!r}")
        for y in a21_elements():
            _require(
                a21_star(a21_mul(x, y)) == a21_mul(a21_star(y), a21_star(x)),
                lambda: f"band involution fails to reverse on {x!r}, {y!r}",
            )
    return (
        f"{checks} sampled rounds: both involutions square to the identity "
        f"and reverse products on partitions, deformed and labeled values, "
        f"affine diagrams, wrap pairs, two-counter triples, shadows and "
        f"deformed shadows; quotient maps commute with them; the reflection "
        f"is the regular star of the circle-free family; band involution "
        f"laws exhaustive"
    )


# --------------------------------------------------------------------------
# registry and runner


class CheckResult(NamedTuple):
    check: str
    anchor: str
    status: str
    detail: str
    elapsed: float

    def line(self) -> str:
        return f"[{self.status.upper():<4}] {self.check:<28} {self.detail} ({self.elapsed:.2f}s)"


class Report(NamedTuple):
    schema: str
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> int:
        return sum(r.status == "pass" for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r.status == "fail" for r in self.results)

    @property
    def skipped(self) -> int:
        return sum(r.status == "skip" for r in self.results)

    @property
    def elapsed(self) -> float:
        return sum(r.elapsed for r in self.results)

    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "schema": self.schema,
            "seed": self.seed,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "elapsed": round(self.elapsed, 3),
            "entries": [
                {
                    "check": r.check,
                    "anchor": r.anchor,
                    "status": r.status,
                    "detail": r.detail,
                    "elapsed": round(r.elapsed, 3),
                }
                for r in self.results
            ],
        }


CHECKS: tuple[tuple[str, str, Callable[[random.Random], str]], ...] = (
    ("partition-axioms", "partition-composition", check_partition_axioms),
    ("reflect-star-laws", "reflection-star", check_reflect_star_laws),
    ("cobordism-assoc", "labeled-associativity", check_cobordism_assoc),
    ("regular-star-laws", "regular-star-laws", check_regular_star_laws),
    ("labeled-antiautomorphism", "label-antiautomorphism", check_labeled_antiautomorphism),
    ("idempotent-structure", "idempotent-structure", check_idempotent_structure),
    ("fiber-oracle", "fiber-closed-forms", check_fiber_oracle),
    ("a2-morphism", "two-point-band-morphism", check_a2_morphism),
    ("affine-validation", "affine-validation", check_affine_validation),
    ("circle-counting", "circle-counting", check_circle_counting),
    ("ann3-structure", "annular-rank-structure", check_ann3_structure),
    ("wrap-idempotent-search", "infinite-order-pair", check_wrap_idempotent_search),
    ("word-engine", "word-normal-forms", check_word_engine),
    ("shift-monoid-zimin", "shift-zimin-values", check_shift_monoid_zimin),
    ("rees-witnesses", "nesting-witnesses", check_rees_witnesses),
    ("involution-laws", "involution-laws", check_involution_laws),
)

CHECK_NAMES = tuple(name for name, _, _ in CHECKS)


def run_suite(seed: int = 0, filter: str | None = None) -> Report:
    """Run the battery; filter selects checks by substring match but still
    emits a skip entry for the others, so every criterion appears once."""
    results = []
    for index, (name, anchor, fn) in enumerate(CHECKS):
        if filter is not None and filter not in name:
            results.append(CheckResult(name, anchor, "skip", "filtered out", 0.0))
            continue
        start = time.perf_counter()
        try:
            detail = fn(random.Random(seed * 1_000_003 + index))
            status = "pass"
        except CheckFailed as exc:
            status, detail = "fail", str(exc)
        except DiagcatError as exc:
            status, detail = "fail", f"unexpected library error: {exc}"
        except Exception as exc:  # a crashing check is a failing check
            status, detail = "fail", f"crashed: {exc!r}"
        results.append(
            CheckResult(name, anchor, status, detail, time.perf_counter() - start)
        )
    return Report("report_v1", seed, tuple(results))
