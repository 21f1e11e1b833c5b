import json
import time

import pytest

from diagcat import CATEGORIES, cup_cap, identity_partition, make_cobordism, zeta
from diagcat.cli import main


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_normalform_worked_example(capsys):
    assert main(["normalform", "x3yxytz4xyz", "--canonical"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "word: x3yxytz4xyz",
        "extreme word: xytzxyz",
        "decomposition: x.x2.y.xy.t.1.z.z3.x.1.y.1.z",
        "normal form: x3yxytz4xyz",
        "canonical form: x3yxytz2xyz3",
    ]


def test_normalform_canonical_on_a_long_word(capsys):
    assert main(["normalform", "--canonical", "abcdefgabcdefgacegbdfa3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "word: abcdefgabcdefgacegbdfa3"
    assert out[-1].startswith("canonical form: ")


def test_normalform_rejects_an_overlong_word(capsys):
    assert main(["normalform", "x2000000"]) == 3
    assert "longer than 1000000 symbols" in capsys.readouterr().err


def test_compose_identity_with_identity(tmp_path, capsys):
    enc = CATEGORIES["P"].encode
    path = _write(tmp_path, "id.json", enc(identity_partition(2)))
    assert main(["compose", "P", path, path]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["category"] == "P"
    assert got["dead_blocks"] == 0
    assert got["product"] == enc(identity_partition(2))


def test_compose_cup_cap_counts_a_circle(tmp_path, capsys):
    enc = CATEGORIES["aTLe"].encode
    path = _write(tmp_path, "cc.json", enc(cup_cap(2, 1)))
    assert main(["compose", "aTLe", path, path]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["b0"] == 1 and got["bw"] == 0
    assert got["product"] == enc(cup_cap(2, 1))


def test_compose_shape_mismatch_exits_2(tmp_path, capsys):
    enc = CATEGORIES["P"].encode
    a = _write(tmp_path, "a.json", enc(identity_partition(2)))
    b = _write(tmp_path, "b.json", enc(identity_partition(3)))
    assert main(["compose", "P", a, b]) == 2
    assert "error:" in capsys.readouterr().err


def test_compose_validation_failure_exits_3(tmp_path, capsys):
    crossing = {
        "m": 2,
        "n": 2,
        "partners": [
            {"from": {"side": "in", "index": 1}, "to": {"offset": 0, "side": "out", "index": 2}},
            {"from": {"side": "in", "index": 2}, "to": {"offset": 0, "side": "out", "index": 1}},
            {"from": {"side": "out", "index": 1}, "to": {"offset": 0, "side": "in", "index": 2}},
            {"from": {"side": "out", "index": 2}, "to": {"offset": 0, "side": "in", "index": 1}},
        ],
    }
    a = _write(tmp_path, "x.json", crossing)
    b = _write(tmp_path, "cc.json", CATEGORIES["aTLe"].encode(cup_cap(2, 1)))
    assert main(["compose", "aTLe", a, b]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("size, blocks", [
    (2, [["in1", "in2", "out1"], ["out2"]]),  # not a matching
    (3, [["in1", "out3"], ["in2", "out2"], ["in3", "out1"]]),  # reversed strings
])
def test_compose_non_shadow_ann_exits_3(tmp_path, capsys, size, blocks):
    def vertex(v):
        return {"side": v[:-1], "index": int(v[-1])}

    obj = {"m": size, "n": size, "blocks": [[vertex(v) for v in b] for b in blocks]}
    path = _write(tmp_path, "ann.json", obj)
    assert main(["compose", "Ann", path, path]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("spectrum", [1]), ("genus", "in1"), ("side", "up")])
def test_compose_malformed_value_exits_2(tmp_path, capsys, field, value):
    if field == "side":
        category, obj = "aTLe", CATEGORIES["aTLe"].encode(cup_cap(2, 1))
        obj["partners"][0]["to"]["side"] = value
    else:
        cob = make_cobordism(identity_partition(1), (0,))
        category, obj = "Cob", {**CATEGORIES["Cob"].encode(cob), field: value}
    path = _write(tmp_path, "bad.json", obj)
    assert main(["compose", category, path, path]) == 2
    assert "error:" in capsys.readouterr().err


def test_compose_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["compose", "P", str(path), str(path)]) == 2
    capsys.readouterr()


def test_compose_integer_literal_over_the_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"m": 1, "n": 1, "blocks": [[{"side": "in", "index": 1%s}]]}' % ("0" * 5000))
    assert main(["compose", "P", str(path), str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def _one_point(category, m):
    """A value of shape [m] ~> [0] that lists one point (two for aTLe)."""
    if category == "P":
        return {"m": m, "n": 0, "blocks": [[{"side": "in", "index": 1}]]}
    return {"m": m, "n": 0, "partners": [
        {"from": {"side": "in", "index": 1}, "to": {"offset": 0, "side": "in", "index": 2}},
        {"from": {"side": "in", "index": 2}, "to": {"offset": 0, "side": "in", "index": 1}},
    ]}


@pytest.mark.parametrize("category", ["P", "aTLe"])
@pytest.mark.parametrize("m", [10**30, 3_000_000])
def test_compose_rejects_a_shape_larger_than_its_entries_at_once(tmp_path, capsys, category, m):
    path = _write(tmp_path, "huge.json", _one_point(category, m))
    start = time.perf_counter()
    assert main(["compose", category, path, path]) == 3
    assert time.perf_counter() - start < 0.1
    err = capsys.readouterr().err
    assert err.startswith("error: uncovered vertices: [in2, in3, in4] and " if category == "P"
                          else "error: no partner for (0, 3)")
    assert len(err) < 1000


def test_compose_round_trips_its_own_output(tmp_path, capsys):
    enc = CATEGORIES["aTLe"].encode
    path = _write(tmp_path, "z.json", enc(zeta(3)))
    assert main(["compose", "aTLe", path, path]) == 0
    product = json.loads(capsys.readouterr().out)["product"]
    back = _write(tmp_path, "back.json", product)
    assert main(["compose", "aTLe", back, path]) == 0
    capsys.readouterr()


def test_check_criterion_modes(capsys):
    assert main(["check", "cube-transport", "N"]) == 0
    assert "holds (structural criterion)" in capsys.readouterr().out
    assert main(["check", "cube-transport", "M"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "identity: x3yx = xyx3",
        "monoid: M",
        "verdict: fails (structural criterion; x=1, y=(0,0))",
    ]


def test_check_search_strips_the_decider(capsys):
    assert main(["check", "cube-transport", "M", "--search"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "seed: 0"
    assert out[3].startswith("verdict: fails (substitution witness; ")
    assert main(["check", "interior-swap-nested", "N", "--search", "--budget", "50"]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "seed: 0", "verdict: unknown (no witness within budget 50)"
    ]


def test_check_structural_criteria_take_plain_words(capsys):
    assert main(["check", "star-sandwich", "N"]) == 2
    assert "the structural criteria take plain words" in capsys.readouterr().err


def test_check_search_is_deterministic(capsys):
    assert main(["check", "commutation", "A21", "--search"]) == 1
    first = capsys.readouterr().out
    assert "seed: 0" in first and "fails" in first
    assert main(["check", "commutation", "A21", "--search"]) == 1
    assert capsys.readouterr().out == first


def test_check_rejects_a_negative_budget(capsys):
    assert main(["check", "cube-transport", "rees", "--budget", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--budget must be non-negative" in captured.err


def test_check_unknown_monoid_exits_2(capsys):
    assert main(["check", "commutation", "Q7"]) == 2
    assert "unknown monoid" in capsys.readouterr().err


def test_check_inline_identity(capsys):
    assert main(["check", "xy=yx", "N"]) == 1
    capsys.readouterr()


def test_idempotents_p_census(capsys):
    assert main(["idempotents", "2", "P"]) == 0
    out = capsys.readouterr()
    rows = [json.loads(line) for line in out.out.splitlines()]
    assert len(rows) == 12
    assert all(c["rank"] <= 1 for row in rows for c in row["components"])
    assert "12 idempotents among 15" in out.err


def test_idempotents_past_the_enumeration_bound_exit_3(capsys):
    assert main(["idempotents", "5", "P"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds bound 8" in captured.err


def test_idempotents_of_too_many_ann_generators_exit_3_at_once(capsys):
    start = time.perf_counter()
    assert main(["idempotents", "1000000", "Ann"]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "closure exceeded 2000 elements" in captured.err


@pytest.mark.parametrize("n", ["64", "1000", "1997"])
def test_idempotents_past_the_counted_closure_exit_3_at_once(capsys, n):
    start = time.perf_counter()
    assert main(["idempotents", n, "Ann"]) == 3
    assert time.perf_counter() - start < 1
    assert "closure exceeded 2000 elements" in capsys.readouterr().err


def test_idempotents_rejects_unknown_category(capsys):
    assert main(["idempotents", "2", "Vec"]) == 2
    capsys.readouterr()


def test_suite_filter_and_json(capsys):
    assert main(["suite", "--filter", "ann3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "report_v1"
    assert report["seed"] == 0
    assert "full" not in report
    assert len(report["entries"]) == 16
    assert report["passed"] == 1 and report["skipped"] == 15
    by_check = {e["check"]: e for e in report["entries"]}
    assert by_check["ann3-structure"]["status"] == "pass"
    assert by_check["ann3-structure"]["anchor"] == "annular-rank-structure"


def test_suite_text_mode_prints_seed(capsys):
    assert main(["suite", "--filter", "rees", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed: 5")
    assert "[PASS] rees-witnesses" in out


@pytest.mark.parametrize("args", [
    ["compose", "P"],
    ["nope"],
    [],
    ["suite", "--full"],
    ["check", "commutation", "M", "--criterion"],
])
def test_usage_errors_exit_2(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
