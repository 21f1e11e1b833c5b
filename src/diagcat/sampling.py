"""Seeded random generators for every diagram family.

All samplers take an explicit random.Random so that suite runs are
replayable from a printed seed.
"""

from __future__ import annotations

import random
from typing import Optional

from .partitions import IN, OUT, Partition, make_partition
from .cobordisms import (
    Cobordism,
    DeformedPartition,
    Spectrum,
    make_cobordism,
)
from .annular import (
    AffineDiagram,
    AffinePair,
    AffineTriple,
    affine_identity,
    compose_affine,
    cup_cap,
    make_pair,
    make_triple,
    sigma_affine,
    zeta,
)
from .identities import Word

__all__ = [
    "random_partition",
    "random_deformed",
    "random_spectrum",
    "random_cobordism",
    "random_affine",
    "random_pair",
    "random_triple",
    "random_word",
]


def random_partition(rng: random.Random, m: int, n: int) -> Partition:
    """Uniform-ish set partition via sequential block assignment."""
    points = [(IN, i) for i in range(1, m + 1)] + [(OUT, j) for j in range(1, n + 1)]
    blocks: list[list] = []
    for p in points:
        i = rng.randrange(len(blocks) + 1)
        if i == len(blocks):
            blocks.append([p])
        else:
            blocks[i].append(p)
    return make_partition(m, n, blocks)


def random_deformed(
    rng: random.Random,
    m: int,
    n: int,
    lo: int = -2,
    hi: int = 2,
    regular: bool = False,
) -> DeformedPartition:
    base = random_partition(rng, m, n)
    shift = rng.randint(lo if regular else max(lo, 0), hi)
    return DeformedPartition(base, shift, regular)


def _random_labels(rng, base, lo, hi):
    return {blk: rng.randint(lo, hi) for blk in base.blocks}


def random_spectrum(
    rng: random.Random,
    support: int = 3,
    max_count: int = 2,
    lo: int = 0,
    hi: int = 4,
) -> Spectrum:
    genera = rng.sample(range(lo, hi + 1), min(support, hi - lo + 1))
    return Spectrum({g: rng.randint(1, max_count) for g in genera[:support]})


def random_cobordism(
    rng: random.Random,
    m: int,
    n: int,
    lo: int = -2,
    hi: int = 2,
    regular: bool = False,
    spectrum_support: int = 2,
) -> Cobordism:
    base = random_partition(rng, m, n)
    if not regular:
        lo = max(lo, 0)
    spectrum = random_spectrum(rng, rng.randint(0, spectrum_support), lo=max(lo, 0))
    return make_cobordism(base, _random_labels(rng, base, lo, hi), spectrum, regular)


def random_affine(
    rng: random.Random, n: int, steps: Optional[int] = None
) -> AffineDiagram:
    """Random product of rotation and cup-cap generators at width n."""
    if steps is None:
        steps = rng.randint(0, 6)
    gens = [zeta(n), sigma_affine(zeta(n))]
    if n >= 2:
        gens += [cup_cap(n, i) for i in range(1, n + 1)]
    out = affine_identity(n)
    for _ in range(steps):
        out = compose_affine(out, rng.choice(gens)).product
    return out


def random_pair(
    rng: random.Random, n: int, max_k: int = 3, regular: bool = False
) -> AffinePair:
    skel = random_affine(rng, n)
    lo = -max_k if regular else 0
    k = 0 if skel.rank > 0 else rng.randint(lo, max_k)
    return make_pair(skel, k, regular)


def random_triple(
    rng: random.Random, n: int, max_k: int = 3, regular: bool = False
) -> AffineTriple:
    skel = random_affine(rng, n)
    lo = -max_k if regular else 0
    k = 0 if skel.rank > 0 else rng.randint(lo, max_k)
    return make_triple(skel, k, rng.randint(lo, max_k), regular)


def random_word(
    rng: random.Random,
    letters: str = "abc",
    max_len: int = 7,
    min_len: int = 1,
) -> Word:
    length = rng.randint(min_len, max_len)
    return Word(tuple(rng.choice(letters) for _ in range(length)))
