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

from diagcat import CATEGORIES, Deformed, cli, cobordisms, suite
from diagcat.annular import affine_identity, cup_cap, enumerate_affine
from diagcat.cobordisms import Cobordism, Spectrum, to_labeled
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


def test_cobordism_assoc_ties_the_composition_to_its_merge_plans(monkeypatch):
    # one spectrum entry 0 per dead block keeps the product associative,
    # but it is not the dead labels that the merge plans deposit
    compose_decorated = cobordisms.compose_decorated

    def compose(x, y):
        product, res = compose_decorated(x, y)
        if isinstance(product, Cobordism):
            product = product._replace(spectrum=product.spectrum + Spectrum({0: res.b}))
        return product, res

    monkeypatch.setattr(cobordisms, "compose_decorated", compose)
    cap = make_partition(2, 2, [[("in", 1), ("in", 2)], [("out", 1), ("out", 2)]])
    x, y, z = suite._generic(cap, cap, cap)
    assert suite._check_associative(CATEGORIES["Cob-bar"], x, y, z).spectrum.count(0) == 2
    with pytest.raises(CheckFailed, match="out of step with its merge plans"):
        suite.check_cobordism_assoc(random.Random(0))


def test_labeled_antiautomorphism_catches_a_star_that_shifts_labels(monkeypatch):
    row = CATEGORIES["Cob0-bar"]

    def star(x):
        xs = row.star(x)
        return xs._replace(genus=tuple(g + 1 for g in xs.genus))

    monkeypatch.setitem(CATEGORIES, "Cob0-bar", row._replace(star=star))
    with pytest.raises(CheckFailed, match=r"\(xy\)\* != y\* x\* symbolically"):
        suite.check_labeled_antiautomorphism(random.Random(0))


def _generic_form(label: int) -> tuple[int, list[int]]:
    """label in balanced base suite._GENERIC_BASE: its constant digit and
    the coefficients of B, B^2, ..., in order."""
    base = suite._GENERIC_BASE
    digits = []
    while label:
        digit = (label + base // 2) % base - base // 2
        digits.append(digit)
        label = (label - digit) // base
    constant, *coefficients = digits or [0]
    return constant, coefficients


def test_generic_point_labels_are_small_linear_forms():
    """The premise of the generic point: every label of (x y) z over the
    3 375 triples, and of (x y)* over the 225 pairs, is a sum of operand
    labels with coefficients in {-1, 0, 1} plus a small constant."""
    labels = []
    parts = suite._parts(2, 2)
    cob, labeled = CATEGORIES["Cob-bar"], CATEGORIES["Cob0-bar"]
    for a, b, c in itertools.product(parts, repeat=3):
        x, y, z = suite._generic(a, b, c)
        xyz = suite._mul(cob, suite._mul(cob, x, y), z)
        labels += [*xyz.genus, *(g for g, _ in xyz.spectrum.pairs)]
    for a, b in itertools.product(parts, repeat=2):
        x, y = map(to_labeled, suite._generic(a, b))
        labels += labeled.star(suite._mul(labeled, x, y)).genus
    for label in labels:
        constant, coefficients = _generic_form(label)
        assert abs(constant) <= 16 and set(coefficients) <= {-1, 0, 1}, label


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
