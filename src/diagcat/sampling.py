"""Seeded random generators for every diagram family.

All samplers take an explicit random.Random so that suite runs are
replayable from a printed seed.
"""

from __future__ import annotations

import random
from typing import Optional

from .partitions import Partition, _ground, make_partition
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
    blocks: list[list] = []
    for p in _ground(m, n):
        i = rng.randrange(len(blocks) + 1)
        if i == len(blocks):
            blocks.append([p])
        else:
            blocks[i].append(p)
    return make_partition(m, n, blocks)


def random_deformed(
    rng: random.Random, m: int, n: int, regular: bool = False
) -> DeformedPartition:
    base = random_partition(rng, m, n)
    shift = rng.randint(-2 if regular else 0, 2)
    return DeformedPartition(base, shift, regular)


def random_spectrum(rng: random.Random, support: int = 3) -> Spectrum:
    """Up to support distinct genera in 0-4, each with count 1 or 2."""
    genera = rng.sample(range(5), min(support, 5))
    return Spectrum({g: rng.randint(1, 2) for g in genera})


def random_cobordism(
    rng: random.Random,
    m: int,
    n: int,
    regular: bool = False,
    spectrum_support: int = 2,
) -> Cobordism:
    base = random_partition(rng, m, n)
    spectrum = random_spectrum(rng, rng.randint(0, spectrum_support))
    labels = {blk: rng.randint(-2 if regular else 0, 2) for blk in base.blocks}
    return make_cobordism(base, labels, spectrum, regular)


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


def random_pair(rng: random.Random, n: int, regular: bool = False) -> AffinePair:
    skel = random_affine(rng, n)
    k = 0 if skel.rank > 0 else rng.randint(-3 if regular else 0, 3)
    return make_pair(skel, k, regular)


def random_triple(rng: random.Random, n: int, regular: bool = False) -> AffineTriple:
    skel = random_affine(rng, n)
    lo = -3 if regular else 0
    k = 0 if skel.rank > 0 else rng.randint(lo, 3)
    return make_triple(skel, k, rng.randint(lo, 3), regular)


def random_word(rng: random.Random, max_len: int = 7) -> Word:
    """A word of 1 to max_len letters over abc."""
    length = rng.randint(1, max_len)
    return Word(tuple(rng.choice("abc") for _ in range(length)))
