"""Seeded random generators for partitions, cobordisms, affine diagrams
and words; the counter rows of serialize.CATEGORIES draw their counters
over these.

All samplers take an explicit random.Random so that suite runs are
replayable from a printed seed.  They draw through _below on the
generator's getrandbits, which is the rejection loop behind CPython's
randrange, randint, choice and sample: the samplers make the values and
leave the generator in the state that those methods would, on Python
3.10-3.13, with one Python frame per draw instead of three.  A size that
is not an int, or is too small, raises RangeError before any draw.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import RangeError, _shown
from .partitions import Partition, _require_int, _require_shape, bounded_memo
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


def _below(getrandbits, n: int) -> int:
    """A uniform int in 0..n-1 from getrandbits(n.bit_length()) draws,
    rejected until one is below n, as Random._randbelow_with_getrandbits
    draws it.  With bits = rng.getrandbits, _below(bits, n) is
    rng.randrange(n), a + _below(bits, b - a + 1) is rng.randint(a, b) and
    s[_below(bits, len(s))] is rng.choice(s), in value and in the state
    they leave.  n <= 0 raises ValueError: getrandbits(0) is always 0, so
    the loop would never end."""
    if n <= 0:
        raise ValueError("empty range")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_partition(rng: random.Random, m: int, n: int) -> Partition:
    """Uniform-ish set partition via sequential block assignment: each
    vertex joins one of the blocks opened so far or opens the next, so the
    draws are the restricted-growth labels themselves."""
    _require_shape(m, n)
    bits = rng.getrandbits
    labels, opened = [], 0
    for _ in range(m + n):
        label = _below(bits, opened + 1)
        labels.append(label)
        if label == opened:
            opened += 1
    return Partition(m, n, tuple(labels), opened)


def random_spectrum(rng: random.Random, support: int = 3) -> Spectrum:
    """Up to support distinct genera in 0-4, each with count 1 or 2.  The
    genera are drawn as rng.sample(range(5), k) draws them: each draw takes
    one of the 5 - i genera left and moves the last one into its place."""
    if _require_int(support, "spectrum support") < 0:
        raise RangeError(f"spectrum support {_shown(support)} is negative")
    bits = rng.getrandbits
    pool, genera = [0, 1, 2, 3, 4], []
    for i in range(min(support, 5)):
        j = _below(bits, 5 - i)
        genera.append(pool[j])
        pool[j] = pool[4 - i]
    return Spectrum._of([(g, 1 + _below(bits, 2)) for g in genera])


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
    if _require_int(spectrum_support, "spectrum support") < 0:
        raise RangeError(f"spectrum support {_shown(spectrum_support)} is negative")
    base = random_partition(rng, m, n)
    bits = rng.getrandbits
    spectrum = random_spectrum(rng, _below(bits, spectrum_support + 1))
    low = -2 if regular else 0
    labels = tuple([low + _below(bits, 3 - low) for _ in range(base.nblocks)])
    return Cobordism(base, labels, spectrum, regular)


_step = bounded_memo(compose_affine)  # short walks at small widths revisit their products


def random_affine(
    rng: random.Random, n: int, steps: Optional[int] = None
) -> AffineDiagram:
    """Random product of rotation and cup-cap generators at width n."""
    bits = rng.getrandbits
    if steps is None:
        steps = _below(bits, 7)
    elif _require_int(steps, "steps") < 0:
        raise RangeError(f"steps {_shown(steps)} is negative")
    gens = _generators(_require_int(n, "shape"))  # cached: an unhashable n must not reach it
    out = affine_identity(n)
    for _ in range(steps):
        out = _step(out, gens[_below(bits, len(gens))]).product
    return out


def random_word(rng: random.Random, max_len: int = 7) -> Word:
    """A word of 1 to max_len letters over abc."""
    if _require_int(max_len, "max_len") < 1:
        raise RangeError(f"max_len {_shown(max_len)} is below 1")
    bits = rng.getrandbits
    length = 1 + _below(bits, max_len)
    return Word(tuple(["abc"[_below(bits, 3)] for _ in range(length)]))
