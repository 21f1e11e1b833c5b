import pytest

from diagcat import (
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
from diagcat.cobordisms import increment
from diagcat.errors import BoundExceeded, CoverageError, OverlapError, RangeError
from diagcat.partitions import MAX_PARTITION_VERTICES, MergeInfo


# the hourglass: both sides collapsed, nothing transversal
H = make_partition(2, 2, [[vin(1), vin(2)], [vout(1), vout(2)]])


def test_make_partition_validates():
    with pytest.raises(RangeError):
        make_partition(1, 1, [[vin(1), vin(2)], [vout(1)]])
    with pytest.raises(OverlapError):
        make_partition(1, 1, [[vin(1), vout(1)], [vout(1)]])
    with pytest.raises(CoverageError):
        make_partition(2, 1, [[vin(1), vout(1)]])


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
    assert len(r.dead_blocks) == 1
    assert isinstance(r.dead_blocks[0], MergeInfo)


def test_compose_origins_cover_product():
    r = compose(H, identity_partition(2))
    assert isinstance(r, CompositionResult)
    assert len(r.origins) == len(r.product.blocks)


def test_increment_counts_components():
    # a merged class visiting v middle points out of a + b blocks
    assert increment(1, 1, 1) == 0
    assert increment(2, 1, 1) == 1
    assert increment(2, 2, 1) == 0


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


def test_partition_is_hashable_and_ordered_canonically():
    p = make_partition(1, 1, [[vout(1)], [vin(1)]])
    q = make_partition(1, 1, [[vin(1)], [vout(1)]])
    assert p == q and hash(p) == hash(q)
    assert isinstance(p, Partition)
