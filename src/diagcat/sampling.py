"""Seeded random generators for partitions, cobordisms, affine diagrams
and words; the counter rows of serialize.CATEGORIES draw their counters
over these.

All samplers take an explicit random.Random so that suite runs are
replayable from a printed seed.
"""

from __future__ import annotations

import random
from typing import Optional

from .partitions import Partition, _require_shape, bounded_memo
from .cobordisms import Cobordism, Spectrum
from .annular import AffineDiagram, _generators, affine_identity, compose_affine
from .identities import Word

__all__ = [
    "random_partition",
    "random_spectrum",
    "random_cobordism",
    "random_affine",
    "random_word",
]


def random_partition(rng: random.Random, m: int, n: int) -> Partition:
    """Uniform-ish set partition via sequential block assignment: each
    vertex joins one of the blocks opened so far or opens the next, so the
    draws are the restricted-growth labels themselves."""
    _require_shape(m, n)
    labels, opened = [], 0
    for _ in range(m + n):
        labels.append(rng.randrange(opened + 1))
        opened = max(opened, labels[-1] + 1)
    return Partition(m, n, tuple(labels), opened)


def random_spectrum(rng: random.Random, support: int = 3) -> Spectrum:
    """Up to support distinct genera in 0-4, each with count 1 or 2."""
    genera = rng.sample(range(5), min(support, 5))
    return Spectrum._of([(g, rng.randint(1, 2)) for g in genera])


def random_cobordism(
    rng: random.Random,
    m: int,
    n: int,
    regular: bool = False,
    spectrum_support: int = 2,
) -> Cobordism:
    """A cobordism over a random_partition() base; labels are drawn in
    -2..2 when regular and 0..2 otherwise, so the value is valid as drawn
    and skips make_cobordism()'s checks."""
    base = random_partition(rng, m, n)
    spectrum = random_spectrum(rng, rng.randint(0, spectrum_support))
    low = -2 if regular else 0
    labels = tuple([rng.randint(low, 2) for _ in range(base.nblocks)])
    return Cobordism(base, labels, spectrum, regular)


_step = bounded_memo(compose_affine)  # short walks at small widths revisit their products


def random_affine(
    rng: random.Random, n: int, steps: Optional[int] = None
) -> AffineDiagram:
    """Random product of rotation and cup-cap generators at width n."""
    if steps is None:
        steps = rng.randint(0, 6)
    gens = _generators(n)
    out = affine_identity(n)
    for _ in range(steps):
        out = _step(out, rng.choice(gens)).product
    return out


def random_word(rng: random.Random, max_len: int = 7) -> Word:
    """A word of 1 to max_len letters over abc."""
    length = rng.randint(1, max_len)
    return Word(tuple(rng.choice("abc") for _ in range(length)))
