import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

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
    assert main(["normalform", "--canonical", "x200000"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "canonical form: x200000"


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


def test_compose_unknown_category_exits_2_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["compose", "nope", missing, missing]) == 2
    err = capsys.readouterr().err
    assert "unknown category 'nope' (choose from P, Pd, " in err
    assert "cannot read" not in err


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


def test_check_fiber_names_its_witness(capsys):
    assert main(["check", "star-sandwich", "fiber"]) == 1
    assert "verdict: fails (substitution witness; x=" in capsys.readouterr().out


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
    for n, name, field, found, total in (
        ("2", "aTLe", "diagram", 5, 13),
        ("3", "aTLe", "diagram", 10, 58),
        ("2", "Ann", "shadow", 2, 3),
        ("3", "Ann", "shadow", 10, 12),
    ):
        assert main(["idempotents", n, name]) == 0
        out = capsys.readouterr()
        assert f"{found} idempotents among {total} elements" in out.err
        rows = [json.loads(line) for line in out.out.splitlines()]
        assert len(rows) == found
        cat = CATEGORIES[name]
        for row in rows:
            e = cat.decode(row[field])
            assert cat.compose(e, e)[0] == e
            assert e.rank == row["rank"]


@pytest.mark.parametrize("n, category, digest, summary", [
    ("0", "P", "ea09eaf838ebfbf974b3c05001844a78b35c09ca5fc6a738bb883695ca5c93cd", "1 idempotents among 1 elements"),
    ("1", "P", "97cd2c7bc1e61b1ea188f86316ef01d9558899000a135daca3ba08de32062b77", "2 idempotents among 2 elements"),
    ("2", "P", "fb4c4b1fc3062a41779a7ec83fc7464c0c376b38423e509a8cb907ae81f0721e", "12 idempotents among 15 elements"),
    ("3", "P", "157d8571c137919a01e68df9aea62e508d06dc7ddfd773de200d9249aa8dc2fe", "114 idempotents among 203 elements"),
    ("0", "aTLe", "b38e3ead5f648854651ce1fefcc810b993b8c53c1572ef3bd3bbf388357775d8", "1 idempotents among 1 elements"),
    ("1", "aTLe", "2a4165eb1218b33e1c5f4a335649c46f0d464a7f410655ded415a39bdedd13b5", "1 idempotents among 5 elements"),
    ("2", "aTLe", "4ccee3e8aa660cb2d6b470284515b0f8cdf9e014bc9878bdb7c7df4f06e01156", "5 idempotents among 13 elements"),
    ("3", "aTLe", "8f089bea57090674fe6cdb88a3adcf79b7a85afda3c41c0f9432079aa6bfd77e", "10 idempotents among 58 elements"),
    ("0", "Ann", "05938249365daf9b049c802acfaebdb5bdd9b5b70ad47ec1046750a592ca34b7", "1 idempotents among 1 elements"),
    ("1", "Ann", "aefe5443bd4c22ded0f6cc22382bfd5fd25b8f4f24fbb0570524bbb30f0143f5", "1 idempotents among 1 elements"),
    ("2", "Ann", "c454cec937c34a8b60fd5f7d6c176f8d54f017f6d89390039acc91785195493d", "2 idempotents among 3 elements"),
    ("3", "Ann", "b0644f5e3c5e6e26f2f6f65c878a888cf93d6690aee652e5e42d2ae4c22aee94", "10 idempotents among 12 elements"),
    ("4", "Ann", "70975328fa3542759ea608ff6bcac6caf2cdf414f59da9387f32038d48ef49ca", "17 idempotents among 40 elements"),
])
def test_idempotents_listing_is_pinned(capsys, n, category, digest, summary):
    """The whole listing, value encodings and extra fields in their order,
    pinned by the sha256 of stdout; the count summary comes last, on stderr."""
    assert main(["idempotents", n, category]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    assert captured.err == summary + "\n"


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


@pytest.mark.parametrize("argv, message", [
    (["compose", "P", "-", "-"], "only one operand may come from stdin"),
    (["check", "no-such", "M"], "'no-such' is neither a registered identity"),
    (["idempotents", "-1", "P"], "n must be non-negative"),
    (["normalform", "x*y"], "starred letter"),
])
def test_commands_reject_bad_operands_with_exit_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


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


def test_python_m_diagcat_runs_the_command_line(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "diagcat", "normalform", "x3yx"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["normalform", "x3yx"]) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [["idempotents", "4", "P"], ["normalform", "x3yx"]])
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    """A reader that closes its end at once, as head -1 does: idempotents
    4 P meets it while printing its 531 KB, normalform's four lines only
    when they are flushed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    # stdout stays block-buffered, as it is for a pipe by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "diagcat.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    try:
        # stderr is read after the exit: empty, or a traceback far below a
        # pipe's buffer, so the timeout bounds a child that never exits
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == 141
    assert err == b""
