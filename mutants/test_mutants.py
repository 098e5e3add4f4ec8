"""Standing mutants: each case breaks one line of a copy of the package and expects named tests to fail.

Run from the repository root with `python -m pytest -q mutants`.  Each case
copies src/, tests/, README.md and pyproject.toml to a temporary directory
(tests/conftest.py puts the copy's src/ first on sys.path, and the README
tests read README.md), applies one exact text substitution, which must match
exactly once so that a refactor moving the code fails the case loudly, and
runs the named tests of the copy in a subprocess, without shrinking a failing
hypothesis example.  Every named test must report a FAILED line.

A session fixture starts the collected cases' subprocesses at once, through a
pool of at most `os.cpu_count()` workers; each case's test waits for its own.
"""

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# (module under src/sidediameter, text, its replacement, tests that must catch it)
MUTANTS = [
    pytest.param(
        "_exact.py",
        "        if e != (-1 if index % 2 else 1):\n"
        '            raise InvalidPairError(f"index {_shown(index, str)} inconsistent with sign {int(e):+d}")\n',
        "",
        ["tests/test_pairs.py::test_pair_rejects_invalid_constructions"],
        id="index-parity-check-removed",
    ),
    pytest.param(
        "_out.py",
        "_exact._nth_checked(n, decimal.Decimal(1))",
        "_exact._nth_components(n, decimal.Decimal(1))",
        ["tests/test_cli.py::test_nth_keeps_the_pell_check_in_decimal",
         "tests/test_cli.py::test_nth_refuses_a_wrong_value_at_one_doubling_level"],
        id="nth-check-replaced-by-parity",
    ),
    pytest.param(
        "_exact.py",
        "exact and min(a, d) >= 1",
        "min(a, d) >= 1",
        # d + 2**61 - 1 one level below the last doubling keeps every residue.
        ["tests/test_cli.py::test_nth_refuses_a_wrong_value_at_one_doubling_level[half-12000]",
         "tests/test_pairs.py::test_library_nth_refuses_a_wrong_value_at_one_doubling_level[half-50]"],
        id="nth-half-level-check-removed",
    ),
    pytest.param(
        "_exact.py",
        " and (s * s - 2 * r * r - (-1 if n & 1 else 1)) % _PRIME == 0",
        "",
        # d + 1 after the last doubling leaves the level below it a checked pair.
        ["tests/test_cli.py::test_nth_refuses_a_wrong_value_at_one_doubling_level[top-50]",
         "tests/test_pairs.py::test_library_nth_refuses_a_wrong_value_at_one_doubling_level[top-12000]"],
        id="nth-top-residue-check-removed",
    ),
    pytest.param(
        "_exact.py",
        "min(a, d) >= 1 and (s",
        "(s",
        ["tests/test_pairs.py::test_library_nth_refuses_a_side_negated_below_the_last_doubling"],
        id="nth-side-bound-removed",
    ),
    pytest.param(
        "_exact.py",
        "if a < 1 or d < 1:",
        "if a < 0 or d < 1:",
        ["tests/test_pairs.py::test_pair_rejects_invalid_constructions",
         "tests/test_cli.py::test_trace_refuses_a_pair_with_the_pair_check_message"],
        id="side-bound-zero",
    ),
    pytest.param(
        "_steps.py",
        "- n.bit_length() + 1) * 30103",
        "- n.bit_length() - 2) * 30103",
        ["tests/test_approx.py::test_correct_digits_matches_linear_scan",
         "tests/test_cli.py::test_gen_rows_agree_with_the_public_digit_functions"],
        id="correct-digits-three-bits-low",
    ),
    pytest.param(
        "_steps.py",
        "p, q, n = p // 2, q // 2, n // 4",
        "p, q, n = p, q, n",
        ["tests/test_approx.py::test_run_method_rows_equal_the_public_fraction_steps",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="babylonian-halving-removed",
    ),
    pytest.param(
        "_exact.py",
        "2 * (p * q), n * n",
        "2 * (p * q), abs(n * n)",
        # The same value on every int and Decimal, but no ring map: only the proof on `Poly` sees it.
        ["tests/test_pairs.py::test_pell_maps_are_proved_by_running_them_on_polynomials"],
        id="pell-doubling-leaves-the-ring",
    ),
    pytest.param(
        "polynomials.py",
        "            if type(coeff) is not int:\n"
        '                raise ValueError(f"coefficient of {mono!r} must be an integer, got {_shown(coeff)}")\n',
        "",
        ["tests/test_polynomials.py::test_a_float_coefficient_cannot_prove_a_false_identity",
         "tests/test_polynomials.py::test_coefficients_must_be_plain_ints"],
        id="poly-coefficient-check-removed",
    ),
    pytest.param(
        "polynomials.py",
        "any(type(e) is not int or e < 0 for e in mono)",
        "any(e < 0 or not isinstance(e, int) for e in mono)",
        # A bool exponent compares with 0 like an int, and a str raises TypeError before isinstance.
        ["tests/test_polynomials.py::test_exponents_must_be_plain_ints[true]",
         "tests/test_polynomials.py::test_exponents_must_be_plain_ints[str]"],
        id="poly-exponent-check-by-isinstance",
    ),
    pytest.param(
        "approx.py",
        # In `run_method`, the one place that builds the reports' Fractions.
        "_coprime_fraction(p, q), digits",
        "Fraction(p, q), digits",
        ["tests/test_approx.py::test_compare_takes_no_gcd"],
        id="fraction-with-gcd",
    ),
    pytest.param(
        "_steps.py",
        '"under" if n < 0 else "over"',
        '"under" if -n < 0 else "over"',
        ["tests/test_approx.py::test_run_method_rows_equal_the_public_fraction_steps",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="side-from-minus-n",
    ),
    pytest.param(
        "_steps.py",
        "(10**cap).bit_length() < den.bit_length()",
        "(10**cap).bit_length() <= den.bit_length()",
        ["tests/test_approx.py::test_correct_digits_matches_linear_scan",
         "tests/test_approx.py::test_digit_kernel_agrees_on_ints_and_integral_decimals"],
        id="correct-digits-size-test-one-bit-loose",
    ),
    pytest.param(
        "_steps.py",
        "n.adjusted() + cap < den.adjusted()",
        "n.adjusted() + cap <= den.adjusted()",
        ["tests/test_approx.py::test_digit_kernel_agrees_on_ints_and_integral_decimals"],
        id="correct-digits-size-test-one-digit-loose",
    ),
    pytest.param(
        "_steps.py",
        "_shifted(rem, digits) // den",
        "_shifted(rem, digits) / den",
        ["tests/test_approx.py::test_digit_kernel_agrees_on_ints_and_integral_decimals",
         "tests/test_cli.py::test_compare_prints_the_library_reports_byte_for_byte",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="decimal-string-quotient-not-integral",
    ),
    pytest.param(
        "_steps.py",
        "while j > 0:",
        "while j > 1:",
        ["tests/test_approx.py::test_correct_digits_matches_linear_scan",
         "tests/test_cli.py::test_gen_rows_agree_with_the_public_digit_functions"],
        id="correct-digits-walk-stops-at-1",
    ),
    pytest.param(
        "_tables.py",
        '"-1" if side == "under" else "1"',
        '"1" if side == "under" else "-1"',
        ["tests/test_cli.py::test_gen_rows_agree_with_the_public_digit_functions",
         "tests/test_cli.py::test_gen_prints_the_rows_of_the_public_generate_list"],
        id="gen-parity-sign-swapped",
    ),
    pytest.param(
        "_tables.py",
        '(0, one, one, 0, "under")',
        '(0, one, one, 0, "over")',
        ["tests/test_cli.py::test_gen_csv_first_four",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="gen-start-state-over",
    ),
    pytest.param(
        "_tables.py",
        "args.count - 1",
        "args.count",
        ["tests/test_cli.py::test_gen_prints_the_rows_of_the_public_generate_list",
         "tests/test_cli.py::test_gen_is_the_side_diameter_report_with_its_columns_permuted"],
        id="gen-one-row-too-many",
    ),
    pytest.param(
        "_out.py",
        '    write("\\n")\n',
        "",
        ["tests/test_cli.py::test_gen_streams_what_the_former_renderers_printed",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="gen-json-tail-newline-dropped",
    ),
    pytest.param(
        "_tables.py",
        "end = lead.strip() + tail.strip()",
        "end = lead + tail",
        ["tests/test_cli.py::test_compare_prints_the_library_reports_byte_for_byte",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="empty-table-not-as-json-dumps",
    ),
    pytest.param(
        "_tables.py",
        "            yield row[-1]\n",
        "",
        ["tests/test_cli.py::test_compare_prints_the_library_reports_byte_for_byte",
         "tests/test_cli.py::test_gen_streams_what_the_former_renderers_printed"],
        id="row-end-dropped-when-written-in-pieces",
    ),
    pytest.param(
        "_tables.py",
        '_json(dict.fromkeys(columns, "%s"), inner)',
        '_json(dict.fromkeys(columns, "%s"), indent)',
        ["tests/test_cli.py::test_golden_stdout_bytes",
         "tests/test_cli.py::test_compare_prints_the_library_reports_byte_for_byte"],
        id="table-row-template-at-the-table-indent",
    ),
    pytest.param(
        "_exact.py",
        "return _EXACT.add(convert(lo, half), _EXACT.multiply(convert(hi, width - half), power(half)))",
        "return _EXACT.multiply(convert(hi, width - half), power(half))",
        ["tests/test_approx.py::test_to_decimal_matches_str",
         "tests/test_approx.py::test_to_decimal_examples"],
        id="to-decimal-split-drops-lo",
    ),
    pytest.param(
        "_tables.py",
        "doubled = 2 ** (min(steps, 64) + 1) - 2",
        "doubled = 2 ** min(steps, 64) - 2",
        ["tests/test_cli.py::test_index_verbs_refuse_output_over_the_limit_before_computing[compare-first-over]"],
        id="compare-estimate-halved",
    ),
    pytest.param(
        "_out.py",
        '"," if i else ""',
        '""',
        ["tests/test_cli.py::test_decimal_trace_matches_the_library_trace",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="trace-json-step-separator-dropped",
    ),
    pytest.param(
        "identities.py",
        "def catalog_by_name() -> dict[str, NamedIdentity]:",
        "identity_catalog()\n\n\ndef catalog_by_name() -> dict[str, NamedIdentity]:",
        ["tests/test_cli.py::test_each_verb_loads_only_the_modules_it_needs[trace --n 3-identities]",
         "tests/test_cli.py::test_library_trace_loads_no_polynomial_ring"],
        id="catalog-built-at-import",
    ),
    pytest.param(
        "identities.py",
        "side * side, diam * diam",
        "diam * diam, side * side",
        ["tests/test_cli.py::test_decimal_trace_matches_the_library_trace",
         "tests/test_identities.py::test_trace_steps_are_balanced_and_ordered"],
        id="trace-next-squares-swapped",
    ),
    pytest.param(
        "identities.py",
        '"(2*A+D)^2 + D^2"',
        '"(2*A+D)^2 + A^2"',
        ["tests/test_identities.py::test_library_trace_sides_evaluate_to_their_values",
         "tests/test_identities.py::test_cli_trace_sides_evaluate_to_their_values",
         "tests/test_identities.py::test_printed_derivation_is_proved_over_a_d_e",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="trace-table-side-misprinted",
    ),
    pytest.param(
        "identities.py",
        '"(2*A+D)^2 + D^2"',
        '"(2*A+D)^2 + 2*A^2 +e"',
        # Equal in value for every pair, since d^2 = 2a^2 + e: only the proof sees the
        # hypothesis used in step 1, and the golden bytes its new text.
        ["tests/test_identities.py::test_printed_derivation_is_proved_over_a_d_e",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="trace-table-side-uses-the-hypothesis-early",
    ),
    pytest.param(
        "identities.py",
        "(next_d2, 2 * next_a2 - e)",
        "(next_d2 + e, 2 * next_a2)",
        # Still balanced, so `_check_steps` passes; the kept value is no longer the printed sides'.
        ["tests/test_identities.py::test_checked_step_values_are_the_printed_sides_evaluated",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="trace-conclusion-value-not-its-sides",
    ),
    pytest.param(
        "identities.py",
        '"+e": f"+ {e}"',
        '"+e": f"- {e}"',
        ["tests/test_identities.py::test_library_trace_sides_evaluate_to_their_values",
         "tests/test_identities.py::test_cli_trace_sides_evaluate_to_their_values",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="trace-plus-e-word-flipped",
    ),
    pytest.param(
        "_exact.py",
        "decimal.Decimal(1 << w)",
        "decimal.Decimal(1 << (w - 1))",
        ["tests/test_approx.py::test_to_decimal_matches_str",
         "tests/test_approx.py::test_to_decimal_examples"],
        id="to-decimal-leaf-power-halved",
    ),
    pytest.param(
        "_exact.py",
        "-1 if n & 2 else 1",
        "1 if n & 2 else -1",
        # Wrong on every level: no test module computes a pair at collection, so each test fails alone.
        ["tests/test_pairs.py::test_nth_examples",
         "tests/test_pairs.py::test_nth_64_matches_frozen_oracle_value",
         "tests/test_pairs.py::test_nth_components_equal_the_iterative_oracle_in_both_number_types"],
        id="nth-sign-term-inverted",
    ),
    pytest.param(
        "_exact.py",
        "p + q, -n",
        "p + q + 1, -n",
        # One map serves both paths: the odd levels of `nth`, and the ratio step of `compare` and
        # `run_method`, which an explicit example steps from 1.
        ["tests/test_pairs.py::test_nth_components_equal_the_iterative_oracle_in_both_number_types",
         "tests/test_approx.py::test_run_method_rows_equal_the_public_fraction_steps",
         "tests/test_identities.py::test_elegant_core_is_the_hand_written_identity"],
        id="pell-step-side-off-by-one",
    ),
    pytest.param(
        "approx.py",
        "k = n.bit_length() * 30103 // 100000",
        "k = int(n.bit_length() * 0.30103)",
        # The float estimate gives the same digit counts, so only the source scan sees it.
        ["tests/test_exactness.py::test_no_float_enters_the_source"],
        id="digit-count-estimate-in-float",
    ),
    pytest.param(
        "_out.py",
        "pow(1 + s * _ROOT_2, args.n, _PRIME)",
        "pow(1 + s * _ROOT_2, args.n + 1, _PRIME)",
        ["tests/test_cli.py::test_nth_check_oracle",
         "tests/test_cli.py::test_nth_check_oracle_matches_and_prints_the_iterative_line"],
        id="oracle-exponent-off-by-one",
    ),
    pytest.param(
        "_out.py",
        '" d=", _exact.to_decimal(d),',
        '" d=", _exact.to_decimal(d).replace("7", "8", n > 1000),',
        # The Pell check runs before the line is printed, so only the residue oracle sees the digit.
        ["tests/test_cli.py::test_nth_check_oracle_matches_and_prints_the_iterative_line",
         "tests/test_cli.py::test_check_oracle_runs_past_the_former_limit_without_the_iterative_path"],
        id="printed-digit-corrupted-after-check",
    ),
    pytest.param(
        "cli.py",
        "        stack.enter_context(decimal.localcontext(_exact._EXACT))\n",
        "",
        # `run`'s one exact context gone: the oracle's residues, and every other Decimal step of
        # every handler, run under the caller's context and round or raise.
        ["tests/test_exactness.py::test_every_verb_prints_the_same_under_a_hostile_decimal_context",
         "tests/test_cli.py::test_golden_stdout_bytes"],
        id="oracle-residues-left-decimal",
    ),
    pytest.param(
        "_out.py",
        'pieces[0::2] == (f"n={args.n} a=", " d=", f" e={-1 if args.n % 2 else 1}")',
        "True",
        # Only the wrong sign keeps the digits that the residues accept.
        ["tests/test_cli.py::test_nth_check_oracle_reports_a_mismatch"],
        id="nth-oracle-format-unchecked",
    ),
    pytest.param(
        "identities.py",
        "\n    _check_steps(steps)\n",
        "\n",
        # The core's check is the only one on the paths of `trace_elegant` and `trace --n`.
        ["tests/test_identities.py::test_derivation_refuses_an_unbalanced_step_by_itself",
         "tests/test_cli.py::test_trace_by_index_keeps_the_pell_check_in_decimal"],
        id="core-step-check-removed",
    ),
    pytest.param(
        "_steps.py",
        '"-" if num < 0 else ""',
        '"-" if num <= 0 else ""',
        ["tests/test_approx.py::test_decimal_string_rendering"],
        id="decimal-string-zero-signed",
    ),
    pytest.param(
        "_out.py",
        "shown[1:3]",
        "shown[1:4]",
        ["tests/test_cli.py::test_a_refused_estimate_over_20_digits_is_shown_in_scientific_form"],
        id="refused-estimate-mantissa-misprinted",
    ),
    pytest.param(
        "_out.py",
        "if len(shown) > 20:",
        "if len(shown) >= 20:",
        ["tests/test_cli.py::test_a_refused_estimate_over_20_digits_is_shown_in_scientific_form"],
        id="refused-estimate-of-20-digits-shortened",
    ),
    pytest.param(
        "_out.py",
        "-(-3828 * n",
        "-(-3827 * n",
        # Every budget rests on this rate: its proof fails, and so does the first index that `nth` refuses.
        ["tests/test_cli.py::test_component_digits_rate_bounds_log10_of_1_plus_root_2",
         "tests/test_cli.py::test_index_verbs_refuse_output_over_the_limit_before_computing[nth-first-over]"],
        id="component-digits-rate-lowered",
    ),
    pytest.param(
        "_exact.py",
        "v.denominator.bit_length()) > _STR_MAX_BITS",
        "v.denominator.bit_length()) >= _STR_MAX_BITS",
        ["tests/test_pairs.py::test_shown_gives_the_size_from_2_to_the_14000_on[Fraction]"],
        id="shown-fraction-size-one-bit-early",
    ),
    pytest.param(
        "cli.py",
        "from sidediameter import _exact\n",
        "from sidediameter import _exact, approx\n",
        ["tests/test_cli.py::test_each_verb_loads_only_the_modules_it_needs[nth 5-]",
         "tests/test_cli.py::test_each_verb_loads_only_the_modules_it_needs[trace --n 3-identities]"],
        id="cli-loads-approx-at-import",
    ),
    pytest.param(
        "cli.py",
        "from sidediameter import _exact\n",
        "from sidediameter import _exact, pairs\n",
        ["tests/test_cli.py::test_each_verb_loads_only_the_modules_it_needs[nth 5-]"],
        id="cli-loads-pairs-at-import",
    ),
    pytest.param(
        "_tables.py",
        '(0, one, one, 0, "under")',
        '(0, 1, 1, 0, "under")',
        # Row 1 alone in ints prints the same bytes, only slower: its places come from an int division.
        ["tests/test_cli.py::test_gen_steps_and_prints_every_row_in_exact_decimal"],
        id="gen-row-one-in-int",
    ),
    pytest.param(
        "cli.py",
        "argv and argv[0] in _GRAMMAR",
        "argv",
        # A first argument that names no verb then reaches `_GRAMMAR[verb]` in the pre-import.
        ["tests/test_cli.py::test_outputs_that_name_no_verb_first_come_from_the_full_parser[help]",
         "tests/test_cli.py::test_outputs_that_name_no_verb_first_come_from_the_full_parser[h-nth]",
         "tests/test_cli.py::test_outputs_that_name_no_verb_first_come_from_the_full_parser[unknown]"],
        id="pre-import-for-any-first-argument",
    ),
    pytest.param(
        "cli.py",
        'value not in spec.get("choices", [value])',
        "False",
        # `gen --format xml` read into a namespace that argparse refuses.
        ["tests/test_cli.py::test_the_reader_gives_what_argparse_gives"],
        id="reader-skips-choices",
    ),
    pytest.param(
        "cli.py",
        " or word in texts",
        "",
        # argparse keeps the last value of a repeated option, but it refuses a bad first one first:
        # `gen --count x --count 3` is a usage error, not three rows.
        ["tests/test_cli.py::test_the_reader_gives_what_argparse_gives"],
        id="reader-takes-a-repeated-option",
    ),
    pytest.param(
        "_exact.py",
        "half = width >> 1",
        "half = min(width >> 1, _LEAF_BITS)",
        # Peeling one leaf a level prints the same digits, only in linearly many levels.
        ["tests/test_approx.py::test_to_decimal_splits_at_most_log2_of_bits_over_the_leaf_plus_one_levels_deep"],
        id="to-decimal-split-peels-one-leaf",
    ),
    pytest.param(
        "approx.py",
        "k = n.bit_length() * 30103 // 100000",
        "k = n.bit_length() * 30103 // 100000 + 3",
        # The walk down still finds every count, three comparisons later.
        ["tests/test_approx.py::test_decimal_digit_count_corrects_its_estimate_at_most_twice"],
        id="digit-count-estimate-three-high",
    ),
    pytest.param(
        "cli.py",
        '    sys.modules["sidediameter.cli"] = sys.modules[__name__]\n',
        "",
        ["tests/test_cli.py::test_usage_errors_under_the_cli_module_exit_2[table-verb]",
         "tests/test_cli.py::test_usage_errors_under_the_cli_module_exit_2[trace]"],
        id="cli-module-runs-a-second-copy",
    ),
    pytest.param(
        "_tables.py",
        "from sidediameter import _steps\n",
        "from sidediameter import _steps, approx\n",
        ["tests/test_cli.py::test_each_verb_loads_only_the_modules_it_needs[gen --count 3-]",
         "tests/test_cli.py::test_each_verb_loads_only_the_modules_it_needs[compare --steps 2-]"],
        id="tables-load-approx-at-import",
    ),
    pytest.param(
        "__init__.py",
        '"to_decimal": "_exact"',
        '"to_decimal": "pairs"',
        # `pairs` re-exports the same object, so only the modules that the name loads show it.
        ["tests/test_cli.py::test_package_names_load_on_first_use"],
        id="package-name-from-the-wrong-module",
    ),
    pytest.param(
        "_proofs.py",
        "38 * _component_digits(args.n)",
        "37 * _component_digits(args.n)",
        ["tests/test_cli.py::test_index_verbs_refuse_output_over_the_limit_before_computing[trace-first-over]",
         "tests/test_cli.py::test_index_verbs_refuse_output_over_the_limit_before_computing[trace-pretty-first-over]"],
        id="trace-estimate-one-component-short",
    ),
]


def _run_case(root: Path, module: str, text: str, replacement: str, tests: list[str]) -> list[str]:
    """The FAILED lines of the named tests, run on a copy of the package under `root` with one substitution."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("README.md", "pyproject.toml"):
        shutil.copy(ROOT / name, root / name)
    path = root / "src" / "sidediameter" / module
    source = path.read_text()
    assert source.count(text) == 1, f"{text!r} must occur exactly once in {module}"
    path.write_text(source.replace(text, replacement))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin",
         "--hypothesis-seed=0", "--hypothesis-profile=no-shrink", *tests],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src"), PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"),
        capture_output=True, text=True, timeout=120,
    )
    return result.stdout


@pytest.fixture(scope="session")
def outcomes(request, tmp_path_factory):
    """The stdout of each collected case's run, by case id, as futures of a pool started once."""
    collected = {item.callspec.id for item in request.session.items if item.originalname == "test_mutant_is_caught"}
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        futures = {case.id: pool.submit(_run_case, tmp_path_factory.mktemp(case.id), *case.values)
                   for case in MUTANTS if case.id in collected}
        yield futures
        for future in futures.values():
            future.cancel()


@pytest.mark.parametrize("module,text,replacement,tests", MUTANTS)
def test_mutant_is_caught(request, outcomes, module, text, replacement, tests):
    stdout = outcomes[request.node.callspec.id].result()
    failed = [line for line in stdout.splitlines() if line.startswith("FAILED ")]
    for test in tests:
        assert any(line.startswith(f"FAILED {test}") for line in failed), stdout[-3000:]
