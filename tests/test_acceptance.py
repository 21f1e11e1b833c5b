"""Acceptance battery: one test per released criterion.

The suite runs once per session with seed 0; each test asserts its
criterion's entry passed and surfaces the check's detail on failure, and
the details must equal the benchmark's seed-0 reference.  The suite's
shared law helpers are also tested on their own, against broken rows.
"""

import itertools
import json
import random
from pathlib import Path

import pytest

from diagcat import CATEGORIES, Deformed, cli, suite
from diagcat.annular import affine_identity, cup_cap, enumerate_affine
from diagcat.errors import RangeError
from diagcat.partitions import make_partition, rotate
from diagcat.suite import CheckFailed, _check_involutions, _check_star, _pair_table, run_suite

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.fixture(scope="module")
def report():
    return run_suite(seed=0)


def _entry(report, check):
    got = {r.check: r for r in report.results}[check]
    assert got.status == "pass", f"{check}: {got.detail}"
    return got


def test_partition_composition_axioms(report):
    _entry(report, "partition-axioms")


def test_reflection_star_laws(report):
    _entry(report, "reflect-star-laws")


def test_labeled_composition_associativity(report):
    _entry(report, "cobordism-assoc")


def test_regular_star_sandwich_laws(report):
    _entry(report, "regular-star-laws")


def test_label_star_antiautomorphism(report):
    _entry(report, "labeled-antiautomorphism")


def test_structural_idempotency_verdicts(report):
    _entry(report, "idempotent-structure")


def test_fiber_closed_forms(report):
    _entry(report, "fiber-oracle")


def test_two_point_band_collapse(report):
    _entry(report, "a2-morphism")


def test_affine_validation_and_shift_laws(report):
    _entry(report, "affine-validation")


def test_circle_counting(report):
    _entry(report, "circle-counting")


def test_width_three_shadow_monoid(report):
    _entry(report, "ann3-structure")


def test_mirror_pair_of_infinite_order(report):
    _entry(report, "wrap-idempotent-search")


def test_word_engine_normal_forms(report):
    _entry(report, "word-engine")


def test_shift_monoid_doubling_values(report):
    _entry(report, "shift-monoid-zimin")


def test_nesting_witnesses(report):
    _entry(report, "rees-witnesses")


def test_involution_laws_across_families(report):
    _entry(report, "involution-laws")


def test_every_criterion_has_one_entry(report):
    assert len(report.results) == 16
    assert len({r.check for r in report.results}) == 16
    assert report.skipped == 0


def test_details_match_the_benchmark_reference(report):
    expected = json.loads(REFERENCE.read_text())["suite"]["details"]["0"]
    assert {r.check: r.detail for r in report.results} == expected


def _pairs(row, regular, count=20):
    """Composable pairs drawn through the row's sampler."""
    rng = random.Random(row.name)
    pairs = []
    for _ in range(count):
        l, m, n = [rng.randint(1, 3)] * 3 if row.square else [rng.randint(0, 3) for _ in "lmn"]
        pairs.append((row.sample(rng, l, m, regular), row.sample(rng, m, n, regular)))
    return pairs


def test_associativity_helper_catches_a_non_associative_product():
    atle = CATEGORIES["aTLe"]
    row = atle._replace(compose=lambda x, y: atle.compose(x, atle.sigma(y)))
    with pytest.raises(CheckFailed, match="the products of"):
        for x, y, z in itertools.product(enumerate_affine(2, 2, 1), repeat=3):
            suite._check_associative(row, x, y, z)


def test_associativity_helper_catches_diagnostics_that_do_not_add_up():
    # the true products, with one circle too many after a rank-0 left operand
    atle = CATEGORIES["aTLe"]

    def compose(x, y):
        product, diag = atle.compose(x, y)
        return product, {**diag, "b0": diag["b0"] + (x.rank == 0)}

    row = atle._replace(compose=compose)
    one, cap = affine_identity(2), cup_cap(2, 1)
    assert suite._check_associative(row, one, one, one) == one
    with pytest.raises(CheckFailed, match="the diagnostics of"):
        suite._check_associative(row, cap, one, one)


def test_involution_helper_catches_a_broken_sigma():
    row = CATEGORIES["aTL"]._replace(sigma=lambda x: x)
    with pytest.raises(CheckFailed, match="sigma fails to reverse"):
        for x, y in _pairs(row, False):
            _check_involutions(row, x, y)


def test_involution_helper_catches_a_quotient_that_misses_rho():
    # sigma fixes this value and rho moves it, so the constant map to it
    # commutes with sigma only
    base = make_partition(2, 2, [[("in", 1), ("out", 1)], [("in", 2)], [("out", 2)]])
    c = Deformed(base, (0,), True)
    row = CATEGORIES["Cob-bar"]._replace(quotients={"Pd-bar": lambda x: c})
    with pytest.raises(CheckFailed, match="does not commute with rho"):
        for x, y in _pairs(row, True):
            _check_involutions(row, x, y)


def test_star_helper_catches_a_wrong_star():
    row = CATEGORIES["Pd-bar"]._replace(star=CATEGORIES["Pd-bar"].sigma)
    with pytest.raises(CheckFailed):
        for x, _ in _pairs(row, True):
            _check_star(row, x)


def test_reflect_star_laws_catch_a_rotation_in_place_of_the_reflection(monkeypatch):
    monkeypatch.setattr(suite, "reflect", rotate)
    with pytest.raises(CheckFailed, match=r"at Partition\(\d->\d: "):
        suite.check_reflect_star_laws(random.Random(0))


def test_pair_tables_are_shared_read_only():
    prod, dead = _pair_table(2, 2, 2)
    assert _pair_table(2, 2, 2)[0] is prod
    for table in (prod, dead):
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_failing_and_crashing_checks_fail_the_report(monkeypatch, capsys):
    def failed(rng):
        raise CheckFailed("law broken at x")

    def library_error(rng):
        raise RangeError("value out of range")

    def crashed(rng):
        raise ValueError("boom")

    monkeypatch.setattr(suite, "CHECKS", (
        ("failed", "a", failed),
        ("library-error", "b", library_error),
        ("crashed", "c", crashed),
    ))
    report = run_suite(seed=0)
    assert [(r.check, r.status, r.detail) for r in report.results] == [
        ("failed", "fail", "law broken at x"),
        ("library-error", "fail", "unexpected library error: value out of range"),
        ("crashed", "fail", "crashed: ValueError('boom')"),
    ]
    assert not report.ok()
    assert cli.main(["suite"]) == 1
    assert "0 passed, 3 failed, 0 skipped in " in capsys.readouterr().out
