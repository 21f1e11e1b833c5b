import doctest
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diagcat
from diagcat.auxmonoids import JE_INT, JE_PARITY, je_pair, je_s
from diagcat.errors import RangeError
from diagcat.identities import star_mix_words, zimin

MODULES = sorted(info.name for info in pkgutil.iter_modules(diagcat.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"diagcat.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_run(name):
    module = importlib.import_module(f"diagcat.{name}")
    assert doctest.testmod(module).failed == 0


def test_package_imports_cleanly():
    src = Path(diagcat.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import diagcat"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr


def test_importing_diagcat_and_a_word_command_load_no_numpy():
    src = Path(diagcat.__file__).resolve().parents[1]
    program = (
        "import sys, diagcat\n"
        "from diagcat.cli import main\n"
        "assert main(['normalform', 'x3yx']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "from diagcat import CHECK_NAMES, Report, run_suite\n"
        "assert 'numpy' in sys.modules and len(CHECK_NAMES) == 16\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library example)", "exec"), {})


IDENTITY_1_1 = [(("in", 1), (0, "out", 1)), (("out", 1), (0, "in", 1))]


@pytest.mark.parametrize("build", [
    pytest.param(lambda: diagcat.identity_partition(-1), id="identity_partition(-1)"),
    pytest.param(lambda: diagcat.make_partition(True, 0, [[("in", 1)]]),
                 id="make_partition(True)"),
    pytest.param(lambda: diagcat.make_partition(1.0, 1, [[("in", 1), ("out", 1)]]),
                 id="make_partition(1.0)"),
    pytest.param(lambda: list(diagcat.enumerate_partitions(True, True)),
                 id="enumerate_partitions(True,True)"),
    pytest.param(lambda: list(diagcat.enumerate_partitions(-1, 1)),
                 id="enumerate_partitions(-1,1)"),
    pytest.param(lambda: diagcat.affine_identity(-1), id="affine_identity(-1)"),
    pytest.param(lambda: diagcat.make_affine(True, True, IDENTITY_1_1),
                 id="make_affine(True,True)"),
    pytest.param(lambda: diagcat.zeta(True), id="zeta(True)"),
    pytest.param(lambda: diagcat.lambda_pow(1, True), id="lambda_pow(1,True)"),
    pytest.param(lambda: diagcat.lambda_pow(-1), id="lambda_pow(-1)"),
    pytest.param(lambda: diagcat.cup_cap(2, True), id="cup_cap(2,True)"),
    pytest.param(lambda: diagcat.affine_power(diagcat.zeta(2), True),
                 id="affine_power(zeta(2),True)"),
    pytest.param(lambda: diagcat.affine_power(diagcat.zeta(2), 2.0),
                 id="affine_power(zeta(2),2.0)"),
    pytest.param(lambda: list(diagcat.enumerate_affine(1, 1, True)),
                 id="enumerate_affine(1,1,True)"),
    pytest.param(lambda: diagcat.a21_pair(True, 0), id="a21_pair(True,0)"),
    pytest.param(lambda: je_s(JE_INT, True), id="je_s(True)"),
    pytest.param(lambda: je_pair(JE_PARITY, True, 0), id="je_pair(True,0)"),
    pytest.param(lambda: zimin(True), id="zimin(True)"),
    pytest.param(lambda: zimin(1.5), id="zimin(1.5)"),
    pytest.param(lambda: star_mix_words(2.5), id="star_mix_words(2.5)"),
    # containers that are no blocks, partner pairs or label sequences
    pytest.param(lambda: diagcat.make_partition(1, 1, 5), id="make_partition(blocks=5)"),
    pytest.param(lambda: diagcat.make_partition(1, 1, [5]), id="make_partition(block=5)"),
    pytest.param(lambda: diagcat.make_partition(1, 1, [["a"]]), id="make_partition(vertex='a')"),
    pytest.param(lambda: diagcat.make_partition(1, 1, [[("in", 1, 2)], [("out", 1)]]),
                 id="make_partition(vertex=triple)"),
    pytest.param(lambda: diagcat.make_affine(1, 1, 5), id="make_affine(partners=5)"),
    pytest.param(lambda: diagcat.make_affine(1, 1, [("in", 1)]), id="make_affine(unpaired)"),
    pytest.param(lambda: diagcat.make_affine(1, 1, {("in", 1): (0, "out")}),
                 id="make_affine(partner=pair)"),
    pytest.param(lambda: diagcat.make_cobordism(diagcat.identity_partition(1), 5),
                 id="make_cobordism(genus=5)"),
])
def test_shapes_and_counts_must_be_non_negative_ints(build):
    with pytest.raises(RangeError):
        build()
