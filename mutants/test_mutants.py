"""Standing mutants: each case breaks one line of a copy of the package and expects named tests to fail.

Run from the repository root with `python -m pytest -q mutants`.  Each case
copies src/, tests/, README.md and pyproject.toml to a temporary directory
(tests/conftest.py puts the copy's src/ first on sys.path, and the README
tests read README.md), applies one exact text substitution, which must match
exactly once so that a refactor moving the code fails the case loudly, and
runs the named tests of the copy in a subprocess.  Every named test must
report a FAILED line.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (module under src/sidediameter, text, its replacement, tests that must catch it)
MUTANTS = [
    pytest.param(
        "pairs.py",
        "        if e != (-1 if index % 2 else 1):\n"
        '            raise InvalidPairError(f"index {_shown(index, str)} inconsistent with sign {int(e):+d}")\n',
        "",
        ["tests/test_pairs.py::test_pair_rejects_invalid_constructions"],
        id="index-parity-check-removed",
    ),
    pytest.param(
        "cli.py",
        "e = pairs._pell_sign(a, d, n)",
        "e = -1 if n % 2 else 1",
        ["tests/test_cli.py::test_nth_keeps_the_pell_check_in_decimal",
         "tests/test_cli.py::test_nth_refuses_a_wrong_value_at_one_doubling_level"],
        id="nth-check-replaced-by-parity",
    ),
    pytest.param(
        "pairs.py",
        "if a < 1 or d < 1:",
        "if a < 0 or d < 1:",
        ["tests/test_pairs.py::test_pair_rejects_invalid_constructions",
         "tests/test_cli.py::test_trace_refuses_a_pair_with_the_pair_check_message"],
        id="side-bound-zero",
    ),
    pytest.param(
        "approx.py",
        "- n.bit_length() + 1) * 30103",
        "- n.bit_length() - 2) * 30103",
        ["tests/test_approx.py::test_correct_digits_matches_linear_scan",
         "tests/test_cli.py::test_gen_rows_agree_with_the_public_digit_functions"],
        id="correct-digits-three-bits-low",
    ),
    pytest.param(
        "approx.py",
        "return p >> 1, q >> 1, n >> 2",
        "return p, q, n",
        ["tests/test_approx.py::test_run_method_rows_equal_the_public_fraction_steps",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="babylonian-halving-removed",
    ),
    pytest.param(
        "approx.py",
        "_coprime_fraction(p, q), digits",
        "Fraction(p, q), digits",
        ["tests/test_approx.py::test_compare_takes_no_gcd"],
        id="fraction-with-gcd",
    ),
    pytest.param(
        "approx.py",
        '"under" if n < 0 else "over"',
        '"under" if -n < 0 else "over"',
        ["tests/test_approx.py::test_run_method_rows_equal_the_public_fraction_steps",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="side-from-minus-n",
    ),
    pytest.param(
        "approx.py",
        "while j > 0:",
        "while j > 1:",
        ["tests/test_approx.py::test_correct_digits_matches_linear_scan",
         "tests/test_cli.py::test_gen_rows_agree_with_the_public_digit_functions"],
        id="correct-digits-walk-stops-at-1",
    ),
    pytest.param(
        "cli.py",
        '"-1" if n % 2 else "1",',
        '"1" if n % 2 else "-1",',
        ["tests/test_cli.py::test_gen_rows_agree_with_the_public_digit_functions",
         "tests/test_cli.py::test_gen_prints_the_rows_of_the_public_generate_list"],
        id="gen-parity-sign-swapped",
    ),
    pytest.param(
        "cli.py",
        '"\\n]\\n"',
        '"\\n]"',
        ["tests/test_cli.py::test_gen_streams_what_the_former_renderers_printed",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="gen-json-tail-newline-dropped",
    ),
    pytest.param(
        "identities.py",
        '"," if i else ""',
        '""',
        ["tests/test_cli.py::test_decimal_trace_matches_the_library_trace",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="trace-json-step-separator-dropped",
    ),
]


@pytest.mark.parametrize("module,text,replacement,tests", MUTANTS)
def test_mutant_is_caught(tmp_path, module, text, replacement, tests):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("README.md", "pyproject.toml"):
        shutil.copy(ROOT / name, tmp_path / name)
    path = tmp_path / "src" / "sidediameter" / module
    source = path.read_text()
    assert source.count(text) == 1, f"{text!r} must occur exactly once in {module}"
    path.write_text(source.replace(text, replacement))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
        capture_output=True, text=True, timeout=120,
    )
    failed = [line for line in result.stdout.splitlines() if line.startswith("FAILED ")]
    for test in tests:
        assert any(line.startswith(f"FAILED {test}") for line in failed), result.stdout[-3000:]
