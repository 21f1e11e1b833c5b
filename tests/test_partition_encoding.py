"""Partitions stored as restricted-growth label tuples, checked against
set-based reference implementations that know nothing of the labels."""

import itertools
import random
from typing import NamedTuple

import numpy as np
import pytest

from diagcat import (
    IN,
    OUT,
    enumerate_partitions,
    is_idempotent_structurally,
    make_partition,
    reflect,
    rho,
    sigma,
    star_cobordism,
    vin,
    vout,
)
from diagcat.cobordisms import Cobordism, LabeledPartition, Spectrum, _merge_labels, _merge_plan
from diagcat.partitions import _ground, _moved, compose, rotate
from diagcat.sampling import random_cobordism, random_partition, random_spectrum


class Merge(NamedTuple):
    """A class of the join that touches the middle layer: the factor blocks
    it merges and the middle indices it visits."""

    alpha_blocks: tuple[int, ...]
    beta_blocks: tuple[int, ...]
    middle: tuple[int, ...]


def join_oracle(alpha, beta):
    """Compose by merging vertex sets on three layers until no two
    classes share a point; returns the product, the origin of each
    product block (("alpha", i) or ("beta", j) for an untouched factor
    block, else a Merge) and the dead classes by least middle index."""
    pieces = []
    for i, block in enumerate(alpha.blocks):
        points = {("top", v.index) if v.side == IN else ("mid", v.index) for v in block}
        pieces.append((points, {("alpha", i)}))
    for j, block in enumerate(beta.blocks):
        points = {("mid", v.index) if v.side == IN else ("bot", v.index) for v in block}
        pieces.append((points, {("beta", j)}))
    classes = []
    for points, tags in pieces:
        points, tags = set(points), set(tags)
        rest = []
        for other_points, other_tags in classes:
            if other_points & points:
                points |= other_points
                tags |= other_tags
            else:
                rest.append((other_points, other_tags))
        classes = rest + [(points, tags)]

    def info(points, tags):
        return Merge(
            tuple(sorted(i for side, i in tags if side == "alpha")),
            tuple(sorted(j for side, j in tags if side == "beta")),
            tuple(sorted(k for layer, k in points if layer == "mid")),
        )

    live, dead = {}, []
    for points, tags in classes:
        outer = tuple(
            sorted(vin(k) if layer == "top" else vout(k) for layer, k in points if layer != "mid")
        )
        if not outer:
            dead.append(info(points, tags))
        elif any(layer == "mid" for layer, _ in points):
            live[outer] = info(points, tags)
        else:
            (tag,) = tags
            live[outer] = tag
    product = make_partition(alpha.m, beta.n, list(live))
    origins = tuple(live[block] for block in product.blocks)
    return product, origins, tuple(sorted(dead, key=lambda d: d.middle))


def symbolic_rows(na, nb):
    """One unit row per factor block, alpha's then beta's, and the constant
    row, as the suite's cobordism-assoc check builds them."""
    width = na + nb + 1
    return np.eye(na, width, 0, dtype=np.int64), np.eye(nb, width, na, dtype=np.int64), np.eye(
        1, width, width - 1, dtype=np.int64
    )[0]


def oracle_row(origin, rows_a, rows_b, one):
    """The label of a class from the oracle: the sum of its blocks' rows,
    plus v - (a + b) + 1 constants for a class through the middle."""
    if not isinstance(origin, Merge):
        side, i = origin
        return (rows_a if side == "alpha" else rows_b)[i]
    a, b, v = origin
    return (
        sum(rows_a[i] for i in a)
        + sum(rows_b[j] for j in b)
        + (len(v) - (len(a) + len(b)) + 1) * one
    )


def assert_matches_oracle(x, y):
    r = compose(x, y)
    product, origins, dead = join_oracle(x, y)
    assert r.product == product
    assert r.product.blocks == product.blocks
    assert r.b == len(dead)
    for c, origin in enumerate(origins + dead):
        if isinstance(origin, Merge):
            members = [*origin.alpha_blocks, *(x.nblocks + j for j in origin.beta_blocks)]
        else:
            members = [origin[1] if origin[0] == "alpha" else x.nblocks + origin[1]]
        assert [i for i, k in enumerate(r.classes) if k == c] == members
    rows_a, rows_b, one = symbolic_rows(x.nblocks, y.nblocks)
    increments = _merge_plan(x, y)[1]
    live_rows, dead_rows = _merge_labels(r, np.outer(increments, one), rows_a, rows_b)
    expected = [oracle_row(o, rows_a, rows_b, one).tolist() for o in origins + dead]
    assert [row.tolist() for row in (*live_rows, *dead_rows)] == expected
    assert len(live_rows) == len(origins)


def assert_labels_match_blocks(p):
    points = [vin(i) for i in range(1, p.m + 1)] + [vout(j) for j in range(1, p.n + 1)]
    assert len(p.blocks) == p.nblocks
    for i, block in enumerate(p.blocks):
        assert block == tuple(v for v, label in zip(points, p.labels) if label == i)


def test_compose_matches_join_on_all_small_shapes():
    pairs = 0
    for a, b, c in itertools.product(range(3), repeat=3):
        for x in enumerate_partitions(a, b):
            for y in enumerate_partitions(b, c):
                assert_matches_oracle(x, y)
                pairs += 1
    assert pairs == 564


@pytest.mark.parametrize("n", [4, 8])
def test_compose_matches_join_on_random_pairs(n):
    rng = random.Random(n)
    for _ in range(300):
        l, r = rng.randint(0, n), rng.randint(0, n)
        x, y = random_partition(rng, l, n), random_partition(rng, n, r)
        assert_matches_oracle(x, y)
        assert_labels_match_blocks(compose(x, y).product)


def test_blocks_hold_the_points_of_their_label():
    for m, n in ((0, 0), (1, 2), (2, 2), (3, 1)):
        for p in enumerate_partitions(m, n):
            assert_labels_match_blocks(p)
    rng = random.Random(7)
    for _ in range(100):
        assert_labels_match_blocks(random_partition(rng, rng.randint(0, 8), rng.randint(0, 8)))


def _flip(v):
    return (OUT if v.side == IN else IN), v.index


def _turn(p):
    return lambda v: (OUT, p.m + 1 - v.index) if v.side == IN else (IN, p.n + 1 - v.index)


def moved_oracle(p, move):
    """The image of p under a vertex map, and for each block of p the
    index of its image block."""
    image = make_partition(p.n, p.m, [[move(v) for v in block] for block in p.blocks])
    index = {block: t for t, block in enumerate(image.blocks)}
    targets = [index[tuple(sorted(map(move, block)))] for block in p.blocks]
    return image, targets


def _hom_22_23():
    return list(enumerate_partitions(2, 2)) + list(enumerate_partitions(2, 3))


def test_reflect_and_rotate_carry_blocks():
    for p in _hom_22_23():
        for inv, mover in ((reflect, _flip), (rotate, _turn(p))):
            image, _ = moved_oracle(p, mover)
            assert inv(p) == image
            assert inv(p).blocks == image.blocks
            assert inv(inv(p)) == p


def test_involutions_and_star_carry_labels():
    for p in _hom_22_23():
        genus = tuple(10 * i + 1 for i in range(len(p.blocks)))
        spectrum = Spectrum({2: 1})
        for inv, mover in ((sigma, _flip), (rho, _turn(p))):
            image, targets = moved_oracle(p, mover)
            expected = [0] * len(genus)
            for label, t in zip(genus, targets):
                expected[t] = label
            assert inv(LabeledPartition(p, genus, True)) == LabeledPartition(
                image, tuple(expected), True
            )
            assert inv(Cobordism(p, genus, spectrum, True)) == Cobordism(
                image, tuple(expected), spectrum, True
            )
        image, targets = moved_oracle(p, _flip)
        starred = [0] * len(genus)
        for block, label, t in zip(p.blocks, genus, targets):
            starred[t] = -label - len(block) + 2
        sides = sum(1 for b in p.blocks if len({v.side for v in b}) == 1)
        assert star_cobordism(Cobordism(p, genus, spectrum, True)) == Cobordism(
            image, tuple(starred), Spectrum({2: -1, 1: -sides}), True
        )


# -- the Vertex-block code that the label versions replaced ------------------


def idempotent_oracle(e):
    """is_idempotent_structurally as it ran on the blocks' Vertex tuples."""
    n = e.n
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for block in e.blocks:
        ins = [v.index for v in block if v.side == IN]
        outs = [v.index for v in block if v.side == OUT]
        for group in (ins, outs):
            for i in group[1:]:
                parent[find(i)] = find(group[0])
    for block in e.blocks:
        if len({find(v.index) for v in block}) > 1:
            return None
    components = {}
    for i in range(1, n + 1):
        components.setdefault(find(i), []).append(i)
    witness = []
    for indices in sorted(components.values()):
        index_set = set(indices)
        rank = 0
        for block in e.blocks:
            if block[0].index in index_set or block[-1].index in index_set:
                if any(v.side == IN for v in block) and any(v.side == OUT for v in block):
                    rank += 1
        if rank > 1:
            return None
        witness.append((tuple(indices), rank))
    return tuple(witness)


def random_partition_oracle(rng, m, n):
    """random_partition as it grew Vertex blocks and validated them."""
    blocks = []
    for p in _ground(m, n):
        i = rng.randrange(len(blocks) + 1)
        if i == len(blocks):
            blocks.append([p])
        else:
            blocks[i].append(p)
    return make_partition(m, n, blocks)


def random_cobordism_oracle(rng, m, n, regular):
    """random_cobordism as it drew one label per block into a block-keyed
    mapping, read back in block order."""
    base = random_partition_oracle(rng, m, n)
    spectrum = random_spectrum(rng, rng.randint(0, 2))
    labels = {blk: rng.randint(-2 if regular else 0, 2) for blk in base.blocks}
    return Cobordism(base, tuple(labels[blk] for blk in base.blocks), spectrum, regular)


def test_structural_idempotency_matches_the_vertex_walk():
    square = 0
    for n in range(5):
        for e in enumerate_partitions(n, n):
            witness = is_idempotent_structurally(e)
            assert (witness and tuple(witness)) == idempotent_oracle(e)
            square += 1
    assert square == 4361
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(5, 7)
        e = random_partition(rng, n, n)
        witness = is_idempotent_structurally(e)
        assert (witness and tuple(witness)) == idempotent_oracle(e)


def random_partition_moved(rng, m, n):
    """random_partition as it drew groups and renumbered them through
    partitions._moved()."""
    groups, opened = [], 0
    for _ in range(m + n):
        groups.append(rng.randrange(opened + 1))
        opened = max(opened, groups[-1] + 1)
    return _moved(m, n, groups)[0]


def test_random_partition_draws_restricted_growth_labels():
    new, old = random.Random(17), random.Random(17)
    for _ in range(10_000):
        m, n = new.randint(0, 4), new.randint(0, 4)
        old.randint(0, 4), old.randint(0, 4)
        p = random_partition(new, m, n)
        q = random_partition_moved(old, m, n)
        assert (p.m, p.n, p.labels, p.nblocks) == (q.m, q.n, q.labels, q.nblocks)
        assert new.getstate() == old.getstate()


def test_samplers_draw_what_the_vertex_blocks_drew():
    for seed in range(1000):
        new, old = random.Random(seed), random.Random(seed)
        m, n = new.randint(0, 4), new.randint(0, 4)
        old.randint(0, 4), old.randint(0, 4)
        p = random_partition(new, m, n)
        assert p == random_partition_oracle(old, m, n)
        regular = seed % 2 == 1
        assert random_cobordism(new, m, n, regular) == random_cobordism_oracle(old, m, n, regular)
        assert new.getstate() == old.getstate()
