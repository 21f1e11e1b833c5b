import copy
import pickle
import random

import pytest

from diagcat import (
    CATEGORIES,
    CompositionResult,
    Partition,
    block_stats,
    compose,
    enumerate_partitions,
    identity_partition,
    is_idempotent_structurally,
    make_partition,
    reflect,
    vin,
    vout,
)
from diagcat import partitions
from diagcat.annular import AnnularPartition
from diagcat.cobordisms import Cobordism, Spectrum, _merge_labels, _merge_plan
from diagcat.errors import BoundExceeded, CoverageError, OverlapError, RangeError, ShapeMismatch
from diagcat.partitions import MAX_PARTITION_VERTICES, rotate
from diagcat.sampling import random_partition
from diagcat.serialize import Deformed


# the hourglass: both sides collapsed, nothing transversal
H = make_partition(2, 2, [[vin(1), vin(2)], [vout(1), vout(2)]])


def test_make_partition_validates():
    with pytest.raises(RangeError):
        make_partition(1, 1, [[vin(1), vin(2)], [vout(1)]])
    with pytest.raises(OverlapError):
        make_partition(1, 1, [[vin(1), vout(1)], [vout(1)]])
    with pytest.raises(CoverageError):
        make_partition(2, 1, [[vin(1), vout(1)]])
    with pytest.raises(CoverageError, match="empty block"):
        make_partition(1, 1, [[vin(1), vout(1)], []])


@pytest.mark.parametrize("index", [1.9, 1.0, True, "1", None])
def test_make_partition_rejects_non_integer_indices(index):
    with pytest.raises(RangeError):
        make_partition(1, 1, [[("in", index), ("out", 1)]])
    with pytest.raises(RangeError):
        make_partition(1, 1, [[("in", 1), ("out", index)]])


@pytest.mark.parametrize("side", [False, True, ["in"]])
@pytest.mark.parametrize("position", [0, 1])
def test_make_partition_rejects_boolean_and_unhashable_sides(position, side):
    vertices = [("in", 1), ("out", 1)]
    assert make_partition(1, 1, [vertices]) == identity_partition(1)
    vertices[position] = (side, 1)
    with pytest.raises(RangeError):
        make_partition(1, 1, [vertices])


@pytest.mark.parametrize(
    "m, n, count",
    [(0, 0, 1), (1, 0, 1), (1, 1, 2), (2, 2, 15), (2, 3, 52), (3, 3, 203)],
)
def test_enumerate_counts(m, n, count):
    parts = list(enumerate_partitions(m, n))
    assert len(parts) == count
    assert len(set(parts)) == count


def test_enumerate_bound():
    assert MAX_PARTITION_VERTICES == 8
    assert sum(1 for _ in enumerate_partitions(4, 4)) == 4140
    with pytest.raises(BoundExceeded, match="ground set of 9 exceeds bound 8"):
        next(enumerate_partitions(5, 4))


def test_identity_is_neutral():
    for p in enumerate_partitions(2, 3):
        assert compose(identity_partition(2), p).product == p
        assert compose(p, identity_partition(3)).product == p


def test_compose_counts_dead_blocks():
    r = compose(H, H)
    assert r.product == H
    assert r.b == 1
    # H's outgoing block and the second H's incoming block close off
    assert r.classes == (0, 2, 2, 1)


def test_compose_class_map_covers_factor_blocks():
    r = compose(H, identity_partition(2))
    assert isinstance(r, CompositionResult)
    assert len(r.classes) == H.nblocks + identity_partition(2).nblocks
    assert set(r.classes) == set(range(r.product.nblocks + r.b))


def test_increment_counts_components():
    # a merged class visiting v middle points out of a + b blocks gets
    # v - (a + b) + 1 on top of its blocks' labels
    def merged(alpha, beta):
        r, increments = _merge_plan(alpha, beta)
        live, dead = _merge_labels(r, increments, [0] * alpha.nblocks, [0] * beta.nblocks)
        return (*live, *dead)

    one_point = identity_partition(1)
    fan_out = make_partition(1, 2, [[vin(1), vout(1), vout(2)]])
    fan_in = make_partition(2, 1, [[vin(1), vin(2), vout(1)]])
    cap = make_partition(2, 0, [[vin(1), vin(2)]])
    assert merged(one_point, one_point) == (0,)  # v, a, b = 1, 1, 1
    assert merged(fan_out, fan_in) == (1,)  # 2, 1, 1
    assert merged(identity_partition(2), cap) == (0,)  # 2, 2, 1


def test_reflect_swaps_sides():
    p = make_partition(2, 1, [[vin(1), vout(1)], [vin(2)]])
    q = reflect(p)
    assert (q.m, q.n) == (1, 2)
    assert reflect(q) == p
    assert reflect(H) == H


def test_block_stats_on_hourglass():
    st = block_stats(H)
    assert st.rank == 0
    assert st.lb == 1 and st.rb == 1


@pytest.mark.parametrize("n, idem", [(0, 1), (1, 2), (2, 12), (3, 114), (4, 1512)])
def test_idempotent_census(n, idem):
    found = [e for e in enumerate_partitions(n, n) if is_idempotent_structurally(e)]
    assert len(found) == idem


def test_structural_verdict_matches_squaring():
    for n in range(5):
        for e in enumerate_partitions(n, n):
            assert bool(is_idempotent_structurally(e)) == (compose(e, e).product == e)


def test_idempotent_witness_ranks():
    # components partition the middle points 1..n, each at rank 0 or 1
    for e in enumerate_partitions(2, 2):
        witness = is_idempotent_structurally(e)
        if witness:
            assert all(rank <= 1 for _, rank in witness)
            covered = sorted(i for ix, _ in witness for i in ix)
            assert covered == [1, 2]
    with pytest.raises(ShapeMismatch, match="idempotency needs a square shape"):
        is_idempotent_structurally(make_partition(1, 0, [[vin(1)]]))


def test_partition_is_hashable_and_ordered_canonically():
    p = make_partition(1, 1, [[vout(1)], [vin(1)]])
    q = make_partition(1, 1, [[vin(1)], [vout(1)]])
    assert p == q and hash(p) == hash(q)
    assert isinstance(p, Partition)


# The partitions of at most 8 points over every shape: (k + 1) * Bell(k)
# summed over the point counts k = 0..8.
INTERN_BOUND = sum((k + 1) * bell for k, bell in enumerate([1, 1, 2, 5, 15, 52, 203, 877, 4140]))


def test_equal_small_partitions_are_one_object_whichever_path_builds_them():
    P = CATEGORIES["P"]
    table = {p.labels: p for p in enumerate_partitions(2, 2)}
    for p in table.values():
        assert make_partition(2, 2, p.blocks) is p
        assert compose(p, identity_partition(2)).product is p
        assert compose(identity_partition(2), p).product is p
        assert reflect(reflect(p)) is p
        assert rotate(rotate(p)) is p
        assert P.decode(P.encode(p)) is p
    for x in table.values():
        for y in table.values():
            product = compose(x, y).product
            assert product is table[product.labels]
    rng = random.Random(0)
    for _ in range(200):
        p = random_partition(rng, 2, 2)
        assert p is table[p.labels]


def test_pickle_and_copies_return_the_interned_object():
    p = make_partition(2, 1, [[vin(1), vout(1)], [vin(2)]])
    values = [
        p,
        Cobordism(p, (0, 2), Spectrum({0: 1}), False),
        Deformed(p, (3,), True),
        AnnularPartition(p),
    ]
    for value in values:
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert clone == value
            assert (clone if value is p else clone.base) is p


def test_partitions_over_the_bound_compare_by_value():
    blocks = [[vin(1), vin(3), vout(2)], [vin(2), vout(4)], [vin(4), vin(5)], [vout(1), vout(3)]]
    a, b = make_partition(5, 4, blocks), make_partition(5, 4, blocks)
    assert a is not b
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert (a.m, a.n, a.labels, a.nblocks) not in partitions._INTERNED
    assert compose(a, identity_partition(4)).product == a


def test_hash_is_that_of_the_shape_and_labels():
    big = make_partition(5, 4, [[vin(i) for i in range(1, 6)] + [vout(j) for j in range(1, 5)]])
    for p in (*enumerate_partitions(2, 2), identity_partition(0), big):
        assert hash(p) == hash((p.m, p.labels))


def test_an_inconsistent_construction_leaves_later_lookups_alone(monkeypatch):
    monkeypatch.setattr(partitions, "_INTERNED", {})
    odd = Partition(1, 1, (0, 0), 2)
    p = make_partition(1, 1, [[("in", 1), ("out", 1)]])
    assert p.nblocks == 1 and p is not odd
    assert identity_partition(1) is p


def test_the_intern_table_stays_within_its_bound(monkeypatch):
    assert sum(1 for _ in enumerate_partitions(4, 4)) == 4140
    assert 4140 <= len(partitions._INTERNED) <= INTERN_BOUND == 46_113
    monkeypatch.setattr(partitions, "_INTERNED", {})
    parts = list(enumerate_partitions(4, 4))
    assert len(partitions._INTERNED) == 4140
    assert all(p is q for p, q in zip(enumerate_partitions(4, 4), parts))
    assert len(partitions._INTERNED) == 4140
