"""The bounded memos behind the decorated compositions' merge plans, the
counter rows, the tracked partition mirrors and the affine sampler's
walk."""

import itertools
import random

import pytest

from diagcat import CATEGORIES, annular, cobordisms, partitions
from diagcat.annular import AffineDiagram, compose_affine
from diagcat.cobordisms import (
    Cobordism,
    LabeledPartition,
    Spectrum,
    _merge_labels,
    _merge_plan,
    compose_decorated,
    rho,
    sigma,
)
from diagcat.errors import ShapeMismatch
from diagcat.partitions import (
    MAX_PARTITION_VERTICES,
    MEMO_SIZE,
    Partition,
    bounded_memo,
    compose,
    enumerate_partitions,
    reflect_tracked,
    rotate_tracked,
)
from diagcat.sampling import random_affine, random_cobordism, random_partition
from diagcat.serialize import Deformed


def clear_memos():
    for memo in partitions._MEMOS.values():
        memo.cache_clear()


def memo_sizes():
    return [memo.cache_info().currsize for memo in partitions._MEMOS.values()]


def _pool(cat, rng, width, regular):
    """Eight values per shape [a] ~> [b] with a, b <= width, drawn once, so
    that pairs over them repeat."""
    shapes = [(w, w) for w in range(1, width + 1)] if cat.square else list(
        itertools.product(range(width + 1), repeat=2)
    )
    return {shape: [cat.sample(rng, *shape, regular) for _ in range(8)] for shape in shapes}


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_memoised_rows_agree_with_fresh_compositions(name):
    cat = CATEGORIES[name]
    rng = random.Random(name)
    for regular in cat.regularities:
        pool = _pool(cat, rng, 3, regular)
        pairs = []
        for _ in range(300):
            l, m = rng.choice(list(pool))
            n = rng.choice([b for a, b in pool if a == m])
            pairs.append((rng.choice(pool[l, m]), rng.choice(pool[m, n])))
        fresh = []
        for x, y in pairs:
            clear_memos()
            fresh.append((cat.compose(x, y), cat.star(x) if regular else None))
        clear_memos()
        for (x, y), (composed, star) in zip(pairs * 2, fresh * 2):
            assert cat.compose(x, y) == composed
            if regular:
                assert cat.star(x) == star
        assert sum(memo.cache_info().hits for memo in partitions._MEMOS.values()) > 0, name


def test_one_memo_per_kernel_and_mirrors_and_walks_agree_with_their_kernels():
    assert bounded_memo(cobordisms._merge_plan) is cobordisms._plans
    assert bounded_memo(compose_affine) is bounded_memo(compose_affine)
    kernels = {
        compose,
        cobordisms._merge_plan,
        compose_affine,
        reflect_tracked.__wrapped__,
        rotate_tracked.__wrapped__,
    }
    assert set(partitions._MEMOS) == kernels
    rng = random.Random(3)
    for _ in range(500):
        p = random_partition(rng, rng.randint(0, 5), rng.randint(0, 5))
        q = random_partition(rng, p.n, rng.randint(0, 5))
        res, increments = cobordisms._plans(p, q)
        assert (res, increments) == cobordisms._merge_plan(p, q)
        assert res == compose(p, q) and isinstance(increments, tuple)
        for tracked in (reflect_tracked, rotate_tracked):
            image, moved = tracked(p)
            assert (image, moved) == tracked.__wrapped__(p)
            with pytest.raises(TypeError):
                moved[0] = 0  # shared from the memo, so read-only
    clear_memos()
    walk = [random_affine(random.Random(seed), 3) for seed in range(200)]
    assert bounded_memo(compose_affine).cache_info().hits > 0
    unmemoised = []
    for seed in range(200):
        r = random.Random(seed)
        out, steps, gens = annular.affine_identity(3), r.randint(0, 6), annular._generators(3)
        for _ in range(steps):
            out = compose_affine(out, r.choice(gens)).product
        unmemoised.append(out)
    assert walk == unmemoised


def _one_block(m, n):
    """The [m] ~> [n] partition with a single block: its labels are the
    same for every shape with the same number of points."""
    return Partition(m, n, (0,) * (m + n), 1)


def test_a_shape_mismatch_is_raised_past_a_primed_memo():
    p11, p20, p02 = _one_block(1, 1), _one_block(2, 0), _one_block(0, 2)
    cob = {p: Cobordism(p, (0,), Spectrum(), False) for p in (p11, p20, p02)}
    clear_memos()
    compose_decorated(cob[p11], cob[p11])
    compose_decorated(cob[p02], cob[p20])
    for x, y in ((p11, p20), (p20, p11), (p11, p02), (p02, p11)):
        with pytest.raises(ShapeMismatch):
            compose_decorated(cob[x], cob[y])
    shapes = {
        "P": (p11, p20),
        "Ann": (annular.AnnularPartition(p11), annular.AnnularPartition(p20)),
        # A through string and a cup share the partner tuple (1, 0).
        "aTLe": (AffineDiagram(1, 1, (1, 0), (0, 0)), AffineDiagram(2, 0, (1, 0), (0, 0))),
    }
    for base_row, counter_row in (("P", "Pd-bar"), ("Ann", "Annd"), ("aTLe", "aTL")):
        for name, lift in ((base_row, lambda b: b), (counter_row, lambda b: Deformed(b, (0,), True))):
            cat = CATEGORIES[name]
            square, other = (lift(b) for b in shapes[base_row])
            cat.compose(square, square)
            for x, y in ((square, other), (other, square)):
                with pytest.raises(ShapeMismatch):
                    cat.compose(x, y)


def _bare(x):
    """The partition or affine diagram under a value of any row."""
    while not isinstance(x, (Partition, AffineDiagram)):
        x = x.base
    return x


def test_an_involution_does_not_store_its_image():
    """A mirror stores its result under its operand only, so
    sigma(sigma(x)) == x computes both sides; a counter row's star stores
    only its two compositions with x."""
    rng = random.Random(5)
    checked = 0
    for name, cat in CATEGORIES.items():
        for regular in cat.regularities:
            x = cat.sample(rng, 2, 2, regular)
            for mirror in (cat.sigma, cat.rho):
                clear_memos()
                image = mirror(x)
                assert mirror(image) == x
                hits = sum(memo.cache_info().hits for memo in partitions._MEMOS.values())
                if _bare(image) != _bare(x):
                    assert hits == 0, name
                    checked += sum(memo_sizes()) == 2
            if regular and isinstance(x, Deformed):
                clear_memos()
                image = cat.star(x)
                a, b = _bare(x), _bare(image)
                memo = bounded_memo(compose_affine if name.startswith("aTL") else compose)
                keys = {(a, b), (b, a)}
                assert memo.cache_info().currsize == len(keys), name
    assert checked > 0  # the partition rows' mirrors were memoised


def _unlabelled(p):
    return Cobordism(p, (0,) * p.nblocks, Spectrum(), True)


def test_memos_stay_within_capacity_and_skip_large_shapes():
    clear_memos()
    bases = list(enumerate_partitions(3, 3))[:40]
    for p, q in itertools.product(bases, bases[:20]):  # 800 distinct pairs
        compose_decorated(_unlabelled(p), _unlabelled(q))
        reflect_tracked(p)
        assert max(memo_sizes()) <= MEMO_SIZE
    assert cobordisms._plans.cache_info().currsize == MEMO_SIZE

    clear_memos()
    rng = random.Random(8)
    # [4] ~> [4] holds the bound; one more point passes the memo by.
    for m, n in ((4, 4), (4, 5), (5, 4), (5, 5)):
        x, y = random_cobordism(rng, m, n, regular=True), random_cobordism(rng, n, m, regular=True)
        compose_decorated(x, y)
        sigma(x), rho(x)
        # one merge plan and one block map per mirror
        assert sum(memo_sizes()) == (3 if m + n <= MAX_PARTITION_VERTICES else 0), (m, n)
        clear_memos()
    for name, cat in CATEGORIES.items():
        regular = cat.regularities[-1]
        x, y = cat.sample(rng, 5, 5, regular), cat.sample(rng, 5, 5, regular)
        clear_memos()
        cat.compose(x, y)
        cat.sigma(x), cat.rho(x)
        if regular:
            cat.star(x)
        assert sum(memo_sizes()) == 0, name


def _merged_by_oracle(x, y):
    """compose_decorated(x, y) through a fresh _merge_plan, past the
    memo."""
    res, increments = _merge_plan(x.base, y.base)
    live, dead = _merge_labels(res, increments, x.genus, y.genus)
    if isinstance(x, LabeledPartition):
        return LabeledPartition(res.product, live, x.regular), res
    spectrum = x.spectrum + y.spectrum + Spectrum([(d, 1) for d in dead])
    return Cobordism(res.product, live, spectrum, x.regular), res


def _decorations(rng, p, regular):
    """A labeled value and a cobordism over p with random int labels."""
    low = -3 if regular else 0
    genus = tuple(rng.randint(low, 3) for _ in range(p.nblocks))
    entries = rng.randint(0, 2)
    spectrum = Spectrum({rng.randint(low, 3): rng.randint(low, 2) for _ in range(entries)})
    return LabeledPartition(p, genus, regular), Cobordism(p, genus, spectrum, regular)


def test_merge_plans_equal_the_merge_labels_oracle_before_and_after_eviction():
    rng = random.Random(11)
    pairs = [
        (p, q)
        for a, b, c in itertools.product(range(3), repeat=3)
        for p in enumerate_partitions(a, b)
        for q in enumerate_partitions(b, c)
    ]
    for k in (3, 4):
        pairs += [(random_partition(rng, k, k), random_partition(rng, k, k)) for _ in range(500)]
    bases = list(enumerate_partitions(3, 3))
    evicting = [(p, q) for p in bases[:20] for q in bases[20:35]]  # 300 distinct pairs
    assert len(evicting) > MEMO_SIZE
    clear_memos()
    for _ in range(2):
        for p, q in pairs:
            for regular in (False, True):
                xs, ys = _decorations(rng, p, regular), _decorations(rng, q, regular)
                for x, y in zip(xs, ys):
                    assert compose_decorated(x, y) == _merged_by_oracle(x, y), (x, y)
        for p, q in evicting:
            compose_decorated(_unlabelled(p), _unlabelled(q))
    assert cobordisms._plans.cache_info().hits > len(pairs)
