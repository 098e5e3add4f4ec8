import argparse
import contextlib
import csv
import decimal
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidediameter
from sidediameter import (_exact, _out, _parser, _steps, _tables, approx, cli, generate, identities, pairs,
                          to_decimal, trace_elegant)
from sidediameter._tables import _GEN_COLUMNS
from sidediameter._out import _nth_line
from sidediameter.cli import build_parser, run
from sidediameter.pairs import SideDiameterPair, nth


@functools.cache
def big_pair() -> SideDiameterPair:
    """Pair 12000, of 4,594 digits each: above the default int-to-str limit of 4,300 digits.

    Like every pair a test needs, it is computed when a test runs, not at collection, so a
    broken `nth` fails the tests that use it and leaves the others collected.
    """
    return nth(12000)


def computed(argv) -> list:
    """argv with each callable in it replaced by the value it returns."""
    return [arg() if callable(arg) else arg for arg in argv]


FRESH_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_gen_csv_first_four():
    code, out, err = invoke(["gen", "--count", "4", "--format", "csv"])
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "n,a,d,e,ratio_decimal,correct_digits",
        "1,1,1,-1,1.000000000000000000000000000000,0",
        "2,2,3,1,1.500000000000000000000000000000,1",
        "3,5,7,-1,1.400000000000000000000000000000,1",
        "4,12,17,1,1.416666666666666666666666666666,2",
    ]


def test_gen_steps_and_prints_every_row_in_exact_decimal(monkeypatch):
    received = []
    cells = _steps._cells

    def spy(*row):
        received.append(row)
        return cells(*row)

    monkeypatch.setattr(_steps, "_cells", spy)
    assert invoke(["gen", "--count", "5", "--format", "json"])[0] == 0
    # (step, num, den, correct digits, side, places), row 1 at step 0 included.
    assert [row[0] for row in received] == [0, 1, 2, 3, 4]
    assert all(type(row[1]) is type(row[2]) is Decimal for row in received)


def test_gen_csv_rows_carry_the_pairs_and_signs():
    code, out, _ = invoke(["gen", "--count", "4"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(int(r[1]), int(r[2]), int(r[3])) for r in rows] == [
        (1, 1, -1), (2, 3, 1), (5, 7, -1), (12, 17, 1),
    ]


def test_gen_json_round_trips_to_library_values():
    code, out, _ = invoke(["gen", "--count", "100", "--format", "json"])
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed) == 100
    rebuilt = [
        SideDiameterPair(int(row["a"]), int(row["d"]), index=int(row["n"]))
        for row in parsed
    ]
    assert rebuilt == generate(100)
    for row, pair in zip(parsed, rebuilt):
        assert int(row["e"]) == pair.sign
    _, csv_out, _ = invoke(["gen", "--count", "100", "--format", "csv"])
    header, *lines = csv_out.splitlines()
    assert len(lines) == 100
    for line, row in zip(lines, parsed):
        assert list(row) == header.split(",")
        assert list(row.values()) == line.split(",")


def _within(num: int, den: int, k: int) -> bool:
    """|num/den - sqrt(2)| < 10**-k, by one root: den * 10**k * sqrt(2) lies in (r, r + 1)."""
    r = math.isqrt(2 * (den * 10**k) ** 2)
    return num * 10**k - den <= r and r + 1 <= num * 10**k + den


@pytest.mark.parametrize("digits", [0, 30, 100])
def test_gen_rows_agree_with_the_public_digit_functions(digits):
    cap = approx.DEFAULT_DIGIT_CAP
    code, out, err = invoke(["gen", "--count", "300", "--digits", str(digits)])
    assert (code, err) == (0, "")
    header, *lines = out.splitlines()
    assert header.split(",") == list(_GEN_COLUMNS) and len(lines) == 300
    for p, line in zip(generate(300), lines):
        value = approx.ratio(p)
        row = tuple(line.split(","))
        assert row == (
            str(p.index),
            to_decimal(p.a),
            to_decimal(p.d),
            str(p.sign),
            approx.decimal_string(value, digits),
            str(approx.correct_digits(value, cap)),
        )
        k = int(row[-1])
        assert k == 0 or _within(p.d, p.a, k)
        assert k == cap or not _within(p.d, p.a, k + 1)


def test_gen_digits_flag_controls_decimal_precision():
    code, out, _ = invoke(["gen", "--count", "2", "--digits", "4"])
    assert code == 0
    assert out.splitlines()[2].startswith("2,2,3,1,1.5000,")


def _gen_stdout(rows, fmt: str) -> str:
    """`gen`'s stdout for `rows`, tuples of cells in `_GEN_COLUMNS` order: `json.dumps` or CSV."""
    if fmt == "json":
        return json.dumps([dict(zip(_GEN_COLUMNS, row)) for row in rows], indent=2) + "\n"
    return "\n".join([",".join(_GEN_COLUMNS), *(",".join(row) for row in rows)]) + "\n"


def _former_gen_stdout(count: int, digits: int, fmt: str) -> str:
    """What `gen` printed when it built the whole table first: the oracle for the streamed rows."""
    return _gen_stdout([(str(p.index), to_decimal(p.a), to_decimal(p.d), str(p.sign),
                         approx.decimal_string(approx.ratio(p), digits), str(approx.correct_digits(approx.ratio(p))))
                        for p in generate(count)], fmt)


@given(st.integers(1, 80), st.integers(0, 120), st.sampled_from(["csv", "json"]),
       st.sampled_from([0, _tables._JOINED_ROW_CHARS]))  # 0: every row written piece by piece
def test_gen_streams_what_the_former_renderers_printed(count, digits, fmt, joined_row_chars):
    argv = ["gen", "--count", str(count), "--digits", str(digits), "--format", fmt]
    with mock.patch.object(_tables, "_JOINED_ROW_CHARS", joined_row_chars):
        assert invoke(argv) == (0, _former_gen_stdout(count, digits, fmt), "")


_SAFE_TEXT = st.text("0123456789abcXYZ-./", max_size=6)


def _joined(document):
    """`document` with each tuple of pieces joined into its string."""
    if type(document) is tuple:
        return "".join(document)
    if type(document) is dict:
        return {key: _joined(value) for key, value in document.items()}
    return [_joined(value) for value in document] if type(document) is list else document


@given(st.recursive(
    _SAFE_TEXT | st.lists(_SAFE_TEXT, max_size=3).map(tuple),
    lambda children: st.lists(children, min_size=1, max_size=4)
    | st.dictionaries(_SAFE_TEXT, children, min_size=1, max_size=4),
    max_leaves=20,
))
def test_json_lays_out_what_json_dumps_does(document):
    assert "".join(_out._json(document)) == json.dumps(_joined(document), indent=2)


@given(st.lists(_SAFE_TEXT.filter(bool), min_size=1, max_size=5, unique=True).flatmap(
           lambda columns: st.tuples(st.just(tuple(columns)),
                                     st.lists(st.tuples(*[_SAFE_TEXT.filter(bool)] * len(columns)), max_size=4))),
       st.sampled_from([0, _tables._JOINED_ROW_CHARS]))  # 0: every row written piece by piece
def test_table_lays_out_what_json_dumps_and_csv_do(table, joined_row_chars):
    columns, rows = table
    dicts = [dict(zip(columns, row)) for row in rows]
    lines = io.StringIO()
    csv.writer(lines, lineterminator="\n").writerows([columns, *rows])
    with mock.patch.object(_tables, "_JOINED_ROW_CHARS", joined_row_chars):
        assert "".join(_tables._table("json", columns, rows)) == json.dumps(dicts, indent=2)
        nested = _out._json({"report": {"rows": _tables._table("json", columns, rows, "\n    ")}})
        assert "".join(nested) == json.dumps({"report": {"rows": dicts}}, indent=2)
        assert "".join(_tables._table("csv", columns, rows)) + "\n" == lines.getvalue()


@pytest.mark.parametrize("digits", [0, 30, 100])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gen_prints_the_rows_of_the_public_generate_list(fmt, digits):
    """`gen` walks the pairs itself; its rows are those of `generate`'s pairs, built by public functions."""
    cap = approx.DEFAULT_DIGIT_CAP
    table = [
        (str(p.index), to_decimal(p.a), to_decimal(p.d), str(p.sign),
         approx.decimal_string(approx.ratio(p), digits), str(approx.correct_digits(approx.ratio(p), cap)))
        for p in generate(40)
    ]
    for count in range(1, 41):
        rows = table[:count]
        if fmt == "json":
            expected = json.dumps([dict(zip(_GEN_COLUMNS, row)) for row in rows], indent=2) + "\n"
        else:
            expected = "".join(line + "\n" for line in [",".join(_GEN_COLUMNS), *map(",".join, rows)])
        argv = ["gen", "--count", str(count), "--digits", str(digits), "--format", fmt]
        assert invoke(argv) == (0, expected, "")


@given(st.integers(1, 300), st.integers(0, 120), st.sampled_from(["csv", "json"]))
def test_gen_is_the_side_diameter_report_with_its_columns_permuted(count, digits, fmt):
    """Row n + 1 of `gen` is row n of the public side_diameter report from 1, with the
    denominator as a, the numerator as d, and e = -1 exactly where the side is under."""
    report = approx.run_method("side_diameter", 1, count - 1).to_json_dict(digits)
    first = ("1", "1", "1", "-1", approx.decimal_string(1, digits), "0")
    rows = [(str(int(r["step"]) + 1), r["value_den"], r["value_num"], "-1" if r["side"] == "under" else "1",
             r["decimal_value"], r["correct_digits"]) for r in report["rows"]]
    argv = ["gen", "--count", str(count), "--digits", str(digits), "--format", fmt]
    assert invoke(argv) == (0, _gen_stdout([first, *rows], fmt), "")


def test_verify_single_identity():
    code, out, err = invoke(["verify", "--identity", "euclid_II_10"])
    assert code == 0
    assert out == "euclid_II_10: OK\n"
    assert err == ""


def test_verify_all():
    code, out, _ = invoke(["verify", "--all"])
    assert code == 0
    assert out.splitlines() == [
        "euclid_II_10: OK",
        "euclid_II_9: OK",
        "elegant_core: OK",
        "encouraging: OK",
        "descent_core: OK",
    ]


def test_verify_unknown_identity_is_usage_error():
    for name in ("bogus", ""):
        code, out, err = invoke(["verify", "--identity", name])
        assert (code, out) == (2, "")
        assert err == (f"usage error: unknown identity {name!r}; choose from "
                       "descent_core, elegant_core, encouraging, euclid_II_10, euclid_II_9\n")


def test_approx_preimage_empty_notice():
    code, out, _ = invoke(["approx", "preimage", "7/5"])
    assert code == 0
    assert out == "preimages: none\n"


def test_approx_preimage_two_roots_sorted():
    code, out, _ = invoke(["approx", "preimage", "17/12"])
    assert code == 0
    assert out == "preimages: 4/3, 3/2\n"


def test_approx_step_both_methods():
    code, out, _ = invoke(["approx", "step", "3/2"])
    assert (code, out) == (0, "17/12\n")
    code, out, _ = invoke(["approx", "step", "3/2", "--method", "sd"])
    assert (code, out) == (0, "7/5\n")


def test_approx_digits():
    code, out, _ = invoke(["approx", "digits", "577/408"])
    assert (code, out) == (0, "5\n")


# Only step and preimage read --method, and only digits reads --cap.
@pytest.mark.parametrize(
    "argv,named",
    [
        (["preimage", "--method", "sd"], "babylonian"),
        (["digits", "--method", "sd"], "--method"),
        (["digits", "--method", "babylonian"], "--method"),
        (["step", "--cap", "3"], "--cap"),
        (["preimage", "--cap", "3"], "--cap"),
    ],
    ids=["preimage-method-sd", "digits-method-sd", "digits-method-babylonian", "step-cap",
         "preimage-cap"],
)
def test_approx_preimage_rejects_sd_method(argv, named):
    action, *options = argv
    code, out, err = invoke(["approx", action, "17/12", *options])
    assert (code, out) == (2, "")
    assert named in err and action in err


def test_nth_check_oracle():
    code, out, _ = invoke(["nth", "5", "--check-oracle"])
    assert code == 0
    assert out == "n=5 a=29 d=41 e=-1\noracle: match\n"


def test_nth_check_oracle_reports_a_mismatch(monkeypatch):
    for wrong in (("n=5 a=", "70", " d=", "99", " e=-1"),  # pair 6's digits under index 5 and its sign
                  ("n=5 a=", "39", " d=", "41", " e=-1"),  # one digit of a changed
                  ("n=5 a=", "29", " d=", "47", " e=-1"),  # one digit of d changed
                  ("n=5 a=", "29", " d=", "41", " e=1")):  # the right digits with the wrong sign
        monkeypatch.setattr(_out, "_nth_line", lambda n: wrong)
        code, out, err = invoke(["nth", "5", "--check-oracle"])
        assert (code, out) == (1, "".join(wrong) + "\n"), wrong
        assert "oracle mismatch" in err and "n=5" in err


def int_line(p: SideDiameterPair) -> str:
    """The `nth` line of pair p, rendered from its ints."""
    return f"n={p.index} a={to_decimal(p.a)} d={to_decimal(p.d)} e={p.sign}"


def nth_line(n: int) -> str:
    """The `nth` line of pair n from `_nth_line`, under the exact context that `run` enters for it."""
    with decimal.localcontext(_exact._EXACT):
        return "".join(_nth_line(n))


@given(st.integers(1, 5000))
def test_nth_check_oracle_matches_and_prints_the_iterative_line(n):
    p = pairs.nth_iterative(n)
    code, out, _ = invoke(["nth", str(n), "--check-oracle"])
    assert (code, out) == (0, int_line(p) + "\noracle: match\n")


# 11010-11012 straddle the 4,215-digit threshold where `to_decimal` leaves str().
@pytest.mark.parametrize("n", [1, 2, 3, 5, 11010, 11011, 11012, 100000])
def test_nth_decimal_line_matches_the_int_line(n):
    assert nth_line(n) == int_line(nth(n))


@given(st.integers(1, 30000))
def test_nth_decimal_line_matches_the_int_line_in_range(n):
    assert nth_line(n) == int_line(nth(n))


def test_nth_keeps_the_pell_check_in_decimal(monkeypatch):
    components = _exact._nth_components

    def off_by_one(n, one=1):
        a, d = components(n, one)
        return (a, d + 1) if isinstance(one, Decimal) else (a, d)

    monkeypatch.setattr(_exact, "_nth_components", off_by_one)
    code, out, err = invoke(["nth", "50"])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "50" in err
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("n", [50, 12000])
@pytest.mark.parametrize("level", ["top", "middle", "half"])
def test_nth_refuses_a_wrong_value_at_one_doubling_level(one_wrong_level, n, level):
    one_wrong_level(n, level)
    code, out, err = invoke(["nth", str(n)])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and f"index {n}" in err
    assert len(err.encode()) < 1024


def raise_if_called(*args):
    raise AssertionError("a core ran")


# 2**1100 lies past the recursion depth of `_nth_components`; 130616510 and
# 6874551 are the first indices whose output passes the digit limit.  `gen`
# and `compare` take the same limit: 16108 rows, 99999988 places for one row,
# 26 steps from 1 and 49999997 places for one step are their first refused
# sizes, and 10**6 rows, 10**9 places and 40 steps are the CI's.  Counting
# the values' growth refuses 1666666 steps, and 14 steps from a 4,594-digit start.
@pytest.mark.parametrize("argv", [
    ["nth", str(2**1100)],
    ["nth", "130616510"],
    ["trace", "--n", str(2**1100)],
    ["trace", "--n", "6874551"],
    ["trace", "--n", "6874551", "--pretty"],
    ["gen", "--count", "16108"],
    ["gen", "--count", "1000000"],
    ["gen", "--count", "1", "--digits", "99999988"],
    ["gen", "--count", "1", "--digits", "1000000000", "--format", "json"],
    ["compare", "--steps", "26"],
    ["compare", "--steps", "1", "--digits", "49999997"],
    ["compare", "--steps", "1", "--digits", "1000000000", "--format", "json"],
    ["compare", "--steps", "40"],
    ["compare", "--steps", "1666666"],
    ["compare", "--start", lambda: f"{to_decimal(big_pair().d)}/{to_decimal(big_pair().a)}", "--steps", "14"],
], ids=["nth-2**1100", "nth-first-over", "trace-2**1100", "trace-first-over", "trace-pretty-first-over",
        "gen-first-over", "gen-ci", "gen-digits-first-over", "gen-digits-ci",
        "compare-first-over", "compare-digits-first-over", "compare-digits-ci", "compare-ci",
        "compare-1666666", "compare-big-start"])
def test_index_verbs_refuse_output_over_the_limit_before_computing(argv, monkeypatch):
    argv = computed(argv)  # before the cores are replaced
    monkeypatch.setattr(_exact, "_nth_components", raise_if_called)
    monkeypatch.setattr(pairs, "_walk", raise_if_called)
    monkeypatch.setattr(_steps, "_rows", raise_if_called)
    code, out, err = invoke(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and len(err) < 200
    assert f"limit of {_out._PRINTED_DIGIT_LIMIT}" in err


def test_a_refused_estimate_over_20_digits_is_shown_in_scientific_form():
    assert invoke(["nth", str(2**1100)]) == (
        1, "", "error: nth would print about 1.03e331 digits, over the limit of 100000000\n")
    for estimate, shown in [(12345678901234567890, "12345678901234567890"), (123456789012345678901, "1.23e20")]:
        with pytest.raises(ValueError, match=f"^gen would print about {re.escape(shown)} digits, over"):
            _out._check_printed_digits("gen", estimate)


def test_root_2_squares_to_2_modulo_the_prime():
    assert _out._ROOT_2**2 % _exact._PRIME == 2


def test_one_plus_root_2_has_order_half_the_multiplicative_group():
    # (P - 1)/2 = 2**60 - 1, and an order that divides it but no (P - 1)/2/f for a prime f is (P - 1)/2.
    order, factors = (_exact._PRIME - 1) // 2, (3, 3, 5, 5, 7, 11, 13, 31, 41, 61, 151, 331, 1321)
    assert order == 2**60 - 1 == math.prod(factors)
    assert pow(1 + _out._ROOT_2, order, _exact._PRIME) == 1
    for prime in set(factors):
        assert pow(1 + _out._ROOT_2, order // prime, _exact._PRIME) != 1, prime


def test_component_digits_rate_bounds_log10_of_1_plus_root_2():
    # Pair 10,000 is (1 + sqrt(2))**10000 = d + a*sqrt(2), which is below 10**k exactly when
    # 10**k > d and 2a**2 < (10**k - d)**2.  At k = 3828, log10(1 + sqrt(2)) < 0.3828, so every
    # component of pair n has at most ceil(0.3828 * n) digits; at 3827 the bound fails.
    pair = pairs.nth_iterative(10000)

    def below(k):
        return 10**k > pair.d and 2 * pair.a**2 < (10**k - pair.d) ** 2

    assert below(3828) and not below(3827)
    assert _out._component_digits(10000) >= len(str(pair.d)) == 3828


@pytest.mark.parametrize("verb,n", [
    ("nth", 10000000),  # the ROADMAP baseline
    ("nth", 20000000),  # measured: 15.3 MB of stdout
    ("trace --n", 1000000),  # measured: 14.5 MB of stdout
    ("nth", 130616509),
    ("trace --n", 6874550),
    ("gen --count", 16107),
    ("gen --count 3000 --digits", 30000),  # the largest sizes the tests and CI run
    ("gen --count 1 --digits", 99999987),
    ("compare --steps", 21),  # measured: 3.21 MB of stdout
    # The last accepted step counts; the benchmark's compares run 13 to 15 steps from these starts.
    ("compare --steps", 25),
    ("compare --start 3/2 --steps", 24),
    ("compare --start 7/5 --steps", 23),
    ("compare --start 19/13 --steps", 23),
    ("compare --format json --steps 1 --digits", 49999996),
    ("compare --steps 0 --digits", 10**9),  # no rows, so no places
])
def test_index_budget_accepts_the_sizes_below_the_limit(verb, n, monkeypatch):
    # Cheap stand-ins for the cores and the table writer, so that only the budget decides.
    # `gen` writes pair 1 without a step, so a stand-in for `_steps._rows` alone would
    # still print its 99999987 places.
    monkeypatch.setattr(_out, "_nth_line", lambda n: "computed")
    monkeypatch.setattr(pairs, "nth", lambda n: SideDiameterPair(1, 1))
    for writer in (_out, _tables):  # consumes no piece, so no core runs
        monkeypatch.setattr(writer, "_write", lambda pieces: None)
    assert invoke([*verb.split(), str(n)])[0::2] == (0, "")


@pytest.mark.parametrize("start", ["1", "3/2", "7/5", "19/13"])
def test_compare_estimate_is_within_a_factor_of_2_of_the_printed_digits(start):
    for steps in (10, 14, 18):
        estimate = _tables._compare_digits(Fraction(start), steps, approx.DEFAULT_DECIMAL_DIGITS)
        for fmt in ("csv", "json"):
            code, out, _ = invoke(["compare", "--start", start, "--steps", str(steps), "--format", fmt])
            printed = sum(out.count(digit) for digit in "0123456789")
            assert code == 0 and printed <= estimate < 2 * printed, (steps, fmt)


def test_check_oracle_runs_past_the_former_limit_without_the_iterative_path(monkeypatch):
    # 400,001 was the first index refused while the oracle re-walked the recurrence.
    monkeypatch.setattr(pairs, "nth_iterative", raise_if_called)
    code, out, err = invoke(["nth", "400001", "--check-oracle"])
    assert (code, out) == (0, nth_line(400001) + "\noracle: match\n")
    assert out == int_line(nth(400001)) + "\noracle: match\n"
    assert "oracle_seconds=" in err


def test_closed_stdout_exits_1_without_a_traceback():
    proc = subprocess.Popen([sys.executable, "-m", "sidediameter", "gen", "--count", "3000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=FRESH_ENV)
    assert proc.stdout.readline() == b"n,a,d,e,ratio_decimal,correct_digits\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("argv,first", [
    (["gen", "--count", "3000", "--format", "json"], b"[\n"),
    (["compare", "--steps", "19", "--format", "json"], b"{\n"),
], ids=["gen-json", "compare-json"])
def test_stdout_closed_in_the_middle_of_the_output_exits_1_without_a_traceback(argv, first):
    # `gen` and `compare` write each row as it is made, so the pipe breaks inside the handler.
    proc = subprocess.Popen([sys.executable, "-m", "sidediameter", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=FRESH_ENV)
    assert proc.stdout.readline() == first
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_stdout_closed_after_the_first_pretty_trace_line_exits_1_without_a_traceback():
    # `trace --pretty` writes each line as it is made; the 827 KB after the first overflow the pipe.
    proc = subprocess.Popen([sys.executable, "-m", "sidediameter", "trace", "--n", "60000", "--pretty"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=FRESH_ENV)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first.startswith(b"derivation for pair (a=") and first.endswith(b", e=+1)\n")
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_failed_write_exits_1_with_one_error_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "sidediameter", "nth", "5"], stdout=full,
                              stderr=subprocess.PIPE, env=FRESH_ENV, timeout=60)
    lines = proc.stderr.decode().splitlines()
    assert (proc.returncode, len(lines)) == (1, 1)
    assert lines[0].startswith("error:")


@pytest.mark.parametrize("argv", [["approx", "step", "17/12", "--cap", "3"], ["trace", "1", "2", "3"]],
                         ids=["table-verb", "trace"])
def test_usage_errors_under_the_cli_module_exit_2(argv):
    # Run as `python -m sidediameter.cli`, the module is `__main__`, and the verb modules that
    # import `sidediameter.cli` must raise the `UsageError` that this copy's `run` catches.
    proc = subprocess.run([sys.executable, "-m", "sidediameter.cli", *argv], capture_output=True, text=True,
                          env=FRESH_ENV, timeout=60)
    lines = proc.stderr.splitlines()
    assert (proc.returncode, proc.stdout, len(lines)) == (2, "", 1)
    assert lines[0].startswith("usage error: ")


@pytest.mark.parametrize("argv", [["nth", "0"], ["gen", "-h"], ["nth", "5"]], ids=["usage-error", "help", "plain"])
def test_the_cli_module_runs_one_copy_of_itself(argv):
    # `_parser`, which argparse's outputs need, imports `sidediameter.cli`: it must get the copy
    # that runs as `__main__`, so `-X importtime` shows no import of `sidediameter.cli` at all.
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "sidediameter.cli", *argv], capture_output=True,
                          text=True, env=FRESH_ENV, timeout=60)
    timed = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    imported = {line.rpartition("|")[2].strip() for line in timed}
    assert "sidediameter.cli" not in imported and ("sidediameter._parser" in imported) == (argv != ["nth", "5"])
    err = "".join(f"{line}\n" for line in proc.stderr.splitlines() if not line.startswith("import time:"))
    assert (proc.returncode, proc.stdout, err) == invoke(argv)


def fresh_python(code: str, *flags: str) -> str:
    """The stdout of `code` run in a new interpreter, with `flags`, that imports this checkout's package."""
    return subprocess.run([sys.executable, *flags, "-c", code], env=FRESH_ENV, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def test_short_commands_load_neither_dataclasses_nor_the_identity_catalog():
    out = fresh_python(
        "import sys; bare = set(sys.modules); from sidediameter import cli; "
        "cli.run(['approx', 'step', '17/12']); print(*sorted(set(sys.modules) - bare)); "
        "cli.run(['verify', '--all']); cli.run(['trace', '--n', '3'])"
    )
    step, loaded, *rest = out.splitlines()
    assert step == "577/408"
    assert "sidediameter.approx" in loaded.split()
    heavy = {"dataclasses", "inspect", "ast", "dis", "sidediameter.identities", "sidediameter.polynomials"}
    assert heavy.isdisjoint(loaded.split())
    # `verify` and `trace`, run later in the same process, still print what they print alone.
    assert "\n".join(rest) + "\n" == invoke(["verify", "--all"])[1] + invoke(["trace", "--n", "3"])[1]


@pytest.mark.parametrize("argv,needs", [
    ("nth 5", ""),
    ("gen --count 3", ""),
    ("approx step 17/12", ""),
    ("approx preimage 17/12", ""),
    ("approx digits 17/12", ""),
    ("compare --steps 2", ""),
    ("trace --n 3", "identities"),
    ("trace 2 3", "identities"),
    ("verify --all", "identities polynomials"),
])
def test_each_verb_loads_only_the_modules_it_needs(argv, needs):
    # Under `-S`, which preloads nothing.  `cli._read` reads each of these plain lists from the
    # grammar table, so none loads argparse, nor the `gettext` and `locale` that argparse imports.
    out = fresh_python(
        "import io, sys; from sidediameter import cli\n"
        f"assert cli.run({argv.split()!r}, io.StringIO()) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('sidediameter.')\n"
        "              or m in ('fractions', 'argparse', 'gettext', 'locale')))",
        "-S",
    )
    # Every verb runs on `_exact`.  The table verbs run in `_tables` on the kernel `_steps`: `gen`
    # loads neither `approx` nor `fractions`, `compare` loads `fractions` for its `--start`, and
    # only the `approx` verb loads `approx`.  The proof verbs run in `_proofs`, whose `identities`
    # needs the pair records of `pairs`; only `verify` builds the symbolic catalog and so loads
    # the polynomial ring.
    verb_needs = {"nth": [], "gen": ["_tables", "_steps"], "compare": ["_tables", "_steps", "fractions"],
                  "approx": ["_tables", "_steps", "fractions", "approx"],
                  "trace": ["_proofs", "pairs"], "verify": ["_proofs", "pairs"]}[argv.split()[0]]
    needs = ["cli", "_out", "_exact", *verb_needs, *needs.split()]
    assert set(out.split()) == {m if m == "fractions" else f"sidediameter.{m}" for m in needs}


def compile_peak(module: str) -> int:
    """The peak of memory that compiling the package's `module` from source allocates."""
    source = Path(cli.__file__).with_name(module).read_text()
    tracemalloc.start()
    try:
        compile(source, module, "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_front_end_compiles_in_about_the_memory_of_the_kernel():
    # With no bytecode cache every command compiles each module it loads, and the memory is freed
    # after each one, so a command's peak follows its largest compile.  Every verb loads `cli` and
    # `_exact`; code that `cli` does not need for reading arguments lives in `_out` or a verb's module.
    assert compile_peak("cli.py") <= 1.25 * compile_peak("_exact.py")


def test_library_trace_loads_no_polynomial_ring():
    # From the modules, and through the package's names loaded on first use.
    for imports in ("from sidediameter.identities import trace_elegant; from sidediameter.pairs import nth",
                    "from sidediameter import nth, trace_elegant"):
        out = fresh_python(f"import sys; {imports}\ntrace_elegant(nth(5)); print('sidediameter.polynomials' in sys.modules)")
        assert out == "False\n", imports


def test_no_verb_loads_json():
    out = fresh_python(
        "import io, sys; from sidediameter import cli\n"
        "for argv in (['nth', '5'], ['gen', '--count', '3'], ['gen', '--count', '3', '--format', 'json'],\n"
        "             ['approx', 'step', '17/12'], ['approx', 'preimage', '17/12'], ['approx', 'digits', '17/12'],\n"
        "             ['compare', '--steps', '2'], ['trace', '--n', '3', '--pretty'], ['trace', '--n', '3']):\n"
        "    assert cli.run(argv, io.StringIO()) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'json' or m.startswith('json.')))\n"
        "cli.run(['compare', '--steps', '2', '--format', 'json'], io.StringIO()); print('json' in sys.modules)"
    )
    assert out.splitlines() == ["[]", "False"]


def test_dir_lists_every_public_name_sorted():
    names = dir(sidediameter)
    assert names == sorted(names) and set(sidediameter.__all__) <= set(names)


def test_package_names_load_on_first_use():
    out = fresh_python(
        "import sys, sidediameter\n"
        "def loaded(): print(*sorted(m for m in sys.modules if m.startswith('sidediameter.')))\n"
        "loaded()\n"
        "print(sorted(set(sidediameter.__all__) - set(dir(sidediameter))))\n"
        "from sidediameter import InvalidPairError, to_decimal; loaded()\n"
        "from sidediameter import nth; loaded()\n"
        "from sidediameter import Poly; loaded()\n"
        "names = {}; exec('from sidediameter import *', names)\n"
        "print(sorted(set(sidediameter.__all__) - set(names)), names['trace_elegant'].__module__)\n"
        "print([n for n, v in names.items() if n in sidediameter.__all__\n"
        "       and v is not getattr(sys.modules[v.__module__], n)])"
    )
    assert out.splitlines() == [
        "",  # `import sidediameter` loads no submodule
        "[]",  # `dir()` lists every public name before any is loaded
        "sidediameter._exact",  # each name loads the one module that defines it, and what that imports
        "sidediameter._exact sidediameter.pairs",
        "sidediameter._exact sidediameter.pairs sidediameter.polynomials",
        "[] sidediameter.identities",
        "[]",  # each name is its defining module's object
    ]
    # The trace API alone, in a fresh process: no `approx`, `_steps` or `polynomials`.
    out = fresh_python("import sys; from sidediameter import trace_elegant\n"
                       "print(*sorted(m for m in sys.modules if m.startswith('sidediameter.')))")
    assert out == "sidediameter._exact sidediameter.identities sidediameter.pairs\n"
    with pytest.raises(AttributeError, match="no_such_name"):
        sidediameter.no_such_name


def test_trace_json_matches_library():
    code, out, _ = invoke(["trace", "12", "17"])
    assert code == 0
    assert json.loads(out) == trace_elegant(SideDiameterPair(12, 17)).to_json_dict()


def test_trace_by_index_equals_trace_by_pair():
    _, by_index, _ = invoke(["trace", "--n", "4"])
    _, by_pair, _ = invoke(["trace", "12", "17"])
    assert by_index == by_pair


def test_trace_pretty_contains_conclusion():
    code, out, _ = invoke(["trace", "2", "3", "--pretty"])
    assert code == 0
    assert "conclusion" in out
    assert "(2*2+3)^2 = 2*(2+3)^2 - 1" in out


def test_trace_invalid_pair_is_domain_error():
    code, out, err = invoke(["trace", "3", "5"])
    assert code == 1
    assert out == ""
    assert "not a side/diameter pair" in err


def test_trace_of_a_huge_invalid_pair_keeps_stderr_short(int_str_limit):
    # The refused 23,000-digit pair is checked and shown in Decimal, never converted to int.
    int_str_limit(4300)
    p = nth(60000)
    code, out, err = invoke(["trace", to_decimal(p.a), to_decimal(p.d + 1)])
    assert code == 1
    assert out == ""
    assert "not a side/diameter pair" in err and "<Decimal of" in err
    assert len(err.encode()) < 1024
    assert sys.get_int_max_str_digits() == 4300


def test_trace_requires_pair_or_index():
    code, _, err = invoke(["trace"])
    assert code == 2
    assert "usage" in err
    code, _, _ = invoke(["trace", "12", "17", "--n", "4"])
    assert code == 2
    code, _, _ = invoke(["trace", "12"])
    assert code == 2


# What int() takes and what Decimal() also takes: whitespace int() refuses
# (U+001C-U+001F), signs, ASCII and other Unicode digits, stray underscores,
# points, exponents and the names of special values.
INTEGER_ALPHABET = " \t\n\x0b\x1c\x1f\xa0\u3000+-_.eE0123456789\u0661\u0662\U0001d7d9NaInfsx"


@given(st.one_of(st.text(alphabet=INTEGER_ALPHABET, max_size=12), st.text(max_size=12)))
def test_decimal_integer_takes_exactly_what_int_takes(text):
    try:
        expected = int(text)
    except ValueError:
        with pytest.raises(argparse.ArgumentTypeError):
            cli.decimal_integer(text)
    else:
        value = cli.decimal_integer(text)
        assert type(value) is Decimal and value == expected and value.as_tuple().exponent == 0


@pytest.mark.parametrize("text", ["_12", "12_", "1__2", "1E0", "12.", "NaN", "Inf", "sNaN", "1.0", "1e3",
                                  "0x10", "\x1c12", "12\x1f", "+-1", "", " "])
def test_decimal_integer_refuses_what_int_refuses(text):
    with pytest.raises(ValueError):
        int(text)
    with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
        cli.decimal_integer(text)


@pytest.mark.parametrize("text,value", [("12", 12), ("\u0661\u0662", 12), ("\U0001d7d9\U0001d7da", 12),
                                        ("1_2", 12), (" +007 ", 7), ("-0", 0), ("\xa012\u3000", 12)])
def test_decimal_integer_takes_what_int_takes(text, value):
    assert int(text) == cli.decimal_integer(text) == value


@pytest.mark.parametrize("argv,message", [
    (["trace", "-0", "1"], "error: side and diameter must be >= 1, got (0, 1)\n"),
    (["trace", "0", "1"], "error: side and diameter must be >= 1, got (0, 1)\n"),
    (["trace", "3", "5"], "error: (3, 5) is not a side/diameter pair: d^2 - 2a^2 = 7, expected -1 or +1\n"),
    (["trace", "-3", "5"], "error: side and diameter must be >= 1, got (-3, 5)\n"),
])
def test_trace_refuses_a_pair_with_the_pair_check_message(argv, message):
    assert invoke(argv) == (1, "", message)


@given(st.integers(1, 3000), st.booleans())
def test_decimal_trace_matches_the_library_trace(n, pretty):
    trace = trace_elegant(nth(n))
    expected = (trace.pretty() if pretty else json.dumps(trace.to_json_dict(), indent=2)) + "\n"
    option = ["--pretty"] if pretty else []
    assert invoke(["trace", "--n", str(n), *option]) == (0, expected, "")
    assert invoke(["trace", to_decimal(trace.pair.a), to_decimal(trace.pair.d), *option]) == (0, expected, "")


def test_trace_renders_every_value_through_to_decimal_in_decimal(monkeypatch):
    trace = trace_elegant(nth(2000))
    values = {trace.pair.a, trace.pair.d, *(v for s in trace.steps for v in (s.lhs_value, s.rhs_value))}
    recorded = []

    def recording(value):
        recorded.append(value)
        return to_decimal(value)

    monkeypatch.setattr(identities, "to_decimal", recording)
    for argv in (["trace", "--n", "2000"], ["trace", str(trace.pair.a), str(trace.pair.d)]):
        recorded.clear()
        assert invoke(argv)[0] == 0
        assert {type(v) for v in recorded} == {Decimal}
        assert {int(v) for v in recorded} == values
        assert len(recorded) == len(values)  # each distinct value once


@pytest.mark.parametrize("n", [50, 12000])
def test_trace_by_index_keeps_the_pell_check_in_decimal(monkeypatch, n):
    components = _exact._nth_components

    def off_by_one(n, one=1):
        a, d = components(n, one)
        return a, d + 1

    monkeypatch.setattr(_exact, "_nth_components", off_by_one)
    code, out, err = invoke(["trace", "--n", str(n)])
    assert (code, out) == (1, "")
    assert err.startswith("error: unbalanced step") and len(err.encode()) < 1024


@pytest.mark.parametrize("n", [100, 3000, 12000])
@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["json", "pretty"])
def test_trace_of_a_pair_prints_a_fixed_multiple_of_its_arguments(n, pretty, int_str_limit):
    """`trace A D` needs no output budget: its stdout grows linearly with len(A) + len(D)."""
    int_str_limit(0)
    argv = ["trace", to_decimal(nth(n).a), to_decimal(nth(n).d), *pretty]
    code, out, _ = invoke(argv)
    assert code == 0
    assert len(out.encode()) <= 24 * (len(argv[1]) + len(argv[2])) + 1024


def test_compare_csv_table():
    code, out, _ = invoke(["compare", "--start", "3/2", "--steps", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "method,step,value_num,value_den,decimal_value,correct_digits,side"
    assert lines[1] == "babylonian,1,17,12,1.416666666666666666666666666666,2,over"
    assert lines[2] == "babylonian,2,577,408,1.414215686274509803921568627450,5,over"
    assert lines[3] == "side_diameter,1,7,5,1.400000000000000000000000000000,1,under"
    assert lines[4] == "side_diameter,2,17,12,1.416666666666666666666666666666,2,over"
    assert len(lines) == 5 and out.endswith("\n")
    # An oracle that does not go through ReportRow.fields: the public steps and digit functions.
    for start in (Fraction(1), Fraction(4, 3), Fraction(19, 13)):
        for cap in (50, 200):
            for digits in (0, 30):
                argv = ["compare", "--start", str(start), "--steps", "7", "--cap", str(cap),
                        "--digits", str(digits)]
                code, out, _ = invoke(argv)
                expected = [lines[0]]
                for method, advance in (("babylonian", approx.babylonian_step),
                                        ("side_diameter", approx.sd_ratio_step)):
                    t = start
                    for i in range(1, 8):
                        t = advance(t)
                        expected.append(f"{method},{i},{t.numerator},{t.denominator},"
                                        f"{approx.decimal_string(t, digits)},{approx.correct_digits(t, cap)},"
                                        f"{approx.side_of_sqrt2(t)}")
                assert (code, out) == (0, "\n".join(expected) + "\n"), argv


def _compare_oracle(start: Fraction, steps: int, fmt: str, digits: int, cap: int) -> str:
    """`compare`'s stdout from the library's reports, without the CLI's table writer."""
    babylonian, side_diameter = approx.compare_methods(start, steps, cap)
    if fmt == "json":
        return json.dumps({
            "start": to_decimal(start),
            "steps": str(steps),
            "babylonian": babylonian.to_json_dict(digits),
            "side_diameter": side_diameter.to_json_dict(digits),
        }, indent=2) + "\n"
    lines = [",".join(("method", *_steps._REPORT_COLUMNS))]
    lines += [",".join((report.method, *row.fields(digits)))
              for report in (babylonian, side_diameter) for row in report.rows]
    return "\n".join(lines) + "\n"


@given(
    st.one_of(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(4, 3), Fraction(19, 13)]),
              st.builds(Fraction, st.integers(1, 300), st.integers(1, 300))),
    st.integers(0, 8),
    st.sampled_from(["csv", "json"]),
    st.integers(0, 40),
    st.sampled_from([1, 50, 200]),
    st.sampled_from([0, _tables._JOINED_ROW_CHARS]),  # 0: every row written piece by piece
)
def test_compare_prints_the_library_reports_byte_for_byte(start, steps, fmt, digits, cap, joined_row_chars):
    argv = ["compare", "--start", str(start), "--steps", str(steps), "--format", fmt,
            "--digits", str(digits), "--cap", str(cap)]
    with mock.patch.object(_tables, "_JOINED_ROW_CHARS", joined_row_chars):
        assert invoke(argv) == (0, _compare_oracle(start, steps, fmt, digits, cap), "")


def test_compare_json_shape():
    code, out, _ = invoke(["compare", "--start", "3/2", "--steps", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"start", "steps", "babylonian", "side_diameter"}
    assert payload["babylonian"]["rows"][0]["value_num"] == "17"
    assert payload["side_diameter"]["rows"][0]["value_num"] == "7"


def test_compare_default_start_is_one():
    code, out, _ = invoke(["compare", "--steps", "1"])
    assert code == 0
    assert out.splitlines()[1].startswith("babylonian,1,3,2,")


@pytest.mark.parametrize("argv", [
    ["gen", "--count", "40"],
    ["gen", "--count", "40", "--format", "json", "--digits", "100"],
    ["compare", "--steps", "12"],
    ["compare", "--steps", "12", "--format", "json", "--start", "7/5"],
    ["compare", "--steps", "6", "--start", "19/13"],
    ["compare", "--steps", "6", "--start", "19/13", "--format", "json"],
])
def test_gen_and_compare_print_the_integer_state_without_report_rows(argv, monkeypatch):
    """The print verbs render `_steps._rows`' integers: no `ReportRow`, no `Fraction` per row.

    Neither verb loads `approx`, so neither can build a `ReportRow`
    (`test_each_verb_loads_only_the_modules_it_needs`).  The spy counts every
    `Fraction` made: none for `gen`, and for `compare` only its `--start`, as many
    at 2 steps as at more.
    """
    short = [*argv[:2], "2", *argv[3:]]
    expected, expected_short = invoke(argv), invoke(short)
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert invoke(short) == expected_short
    counted = len(made)
    assert invoke(argv) == expected and expected[0] == 0 and expected[1]
    assert len(made) == 2 * counted
    assert counted >= 1 if argv[0] == "compare" else counted == 0


def test_check_oracle_payload_is_deterministic_and_timing_goes_to_stderr():
    code1, out1, err1 = invoke(["nth", "500", "--check-oracle"])
    code2, out2, _ = invoke(["nth", "500", "--check-oracle"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "fast_seconds=" in err1 and "oracle_seconds=" in err1
    assert "fast_seconds=" not in out1 and "oracle_seconds=" not in out1


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--count", "8", "--format", "json"],
        ["gen", "--count", "8", "--format", "csv"],
        ["compare", "--start", "3/2", "--steps", "3"],
        ["trace", "--n", "6"],
        ["verify", "--all"],
    ],
)
def test_determinism_byte_identical_stdout(argv):
    _, first, _ = invoke(argv)
    _, second, _ = invoke(argv)
    assert first == second
    assert first  # nonempty payload


# sha256 and length of the exact stdout bytes: column order, number
# rendering, JSON key order and indent, and the trailing newline.
@pytest.mark.parametrize(
    "argv,size,sha256",
    [
        (["gen", "--count", "40", "--format", "csv", "--digits", "0"], 1153,
         "a1f49b7c60905eba73cd2fc08aca859b1d880930c945936380a7e092c4ce3fd3"),
        (["gen", "--count", "40", "--format", "csv"], 2393,
         "96a1d8da8e4191e404e9bb6855bcaec3f46664afc558f2f5cdd739192a19e5a9"),
        (["gen", "--count", "40", "--format", "json", "--digits", "100"], 9359,
         "2be085b460c8691e580585314e3285619de45718a0dc0be1c5375a6cb7b0398e"),
        (["compare", "--start", "3/2", "--steps", "4"], 582,
         "edb3ecb81b7fd5f4228c6689bacedf53754a977185b75ea39e6d50c78b58ccb3"),
        (["compare", "--start", "7/5", "--steps", "5", "--format", "json", "--cap", "200"], 2425,
         "dac10189c2cfb3165ba297e0b0c5b4e279c3cd7883bc0715804161ac4129a59a"),
        (["compare", "--steps", "0"], 66,
         "fb8fd4e8fae9526b45e7faf1a8b04f2aca98dd03915fb974215cdea7e48022de"),
        (["compare", "--steps", "0", "--format", "json"], 209,
         "db15211bdb2d3d99e87da9575cd7ec68ad5df89f8ca9e60711759cf1673af342"),
        # Integers above the str() threshold: pairs, trace values and a
        # 30,000-place fractional part.
        (["nth", "200000"], 153129,
         "ed1b8a9654713e5474e4956d0023707ddd1212e1708eac6b048b9515dc2395e1"),
        (["trace", "--n", "60000"], 873488,
         "0ee32450eb0d13de4ef753d21953eede8889eeb505fa4cdb3ab9f7a59346f453"),
        (["trace", "--n", "60000", "--pretty"], 873045,
         "977272b1c1657df6aa9bba1cc8b5b470d0653b7c11495ad420342b6beb2900fa"),
        pytest.param(["trace", lambda: big_pair().a, lambda: big_pair().d], 175294,
                     "ac809af9b5e6805b3d447ee144cc8092499430d03799639fa8e82d61471ed9e7",
                     id="trace-A-D-of-nth-12000"),
        pytest.param(["trace", lambda: big_pair().a, lambda: big_pair().d, "--pretty"], 174851,
                     "43c12fe3963f7404cee3c6bb91692302bf5dba44b0a60409f58e95902e3a9e65",
                     id="trace-A-D-of-nth-12000-pretty"),
        (["gen", "--count", "3", "--digits", "30000"], 90078,
         "1f26ae5cafa0568b9d82cc404b957b80b61c2f5989fbeca6beb58412ffdc50be"),
        (["gen", "--count", "3", "--digits", "30000", "--format", "json"], 90359,
         "e846472d31d8e06f0efc3246cfe32a78909626afc8e24120c5beba6882d86bf6"),
        # An even numerator: the first averaging step must reduce 34/24 to 17/12.
        (["compare", "--start", "4/3", "--steps", "3", "--format", "json"], 1476,
         "1a594e19fe94f0d86f1e7dad4859926b7a102fde6c0ededcdee00edd58616d24"),
    ],
)
def test_golden_stdout_bytes(argv, size, sha256, int_str_limit):
    int_str_limit(0)  # to spell the integer arguments of `trace A D`
    code, out, err = invoke([str(arg) for arg in computed(argv)])
    assert (code, err) == (0, "")
    payload = out.encode()
    assert (len(payload), hashlib.sha256(payload).hexdigest()) == (size, sha256)


class _CountingSink:
    """A stdout that counts the characters written to it and keeps none of them."""

    def __init__(self):
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("argv,ratio", [
    # Holding the rows, the document or the laid-out text would take 5.30, 2.74 and 2.73
    # times the characters written; the list of pairs takes 0.55 (JSON) and 0.63 (CSV), and
    # a trace that joins its expressions 0.92 (JSON) and 1.26 (--pretty).  Written piece by
    # piece, a trace holds the digits of each distinct number once: about 0.43.  `compare`
    # read 4.14 (JSON) and 2.58 (CSV) holding both reports and the document or the lines;
    # written row by row, 2.05 and 2.06, most of it the last Babylonian step's digit count.
    (["gen", "--count", "1500", "--format", "json", "--digits", "100"], 0.1),
    (["gen", "--count", "1500", "--format", "csv", "--digits", "100"], 0.1),
    (["trace", "--n", "60000"], 0.5),
    (["trace", "--n", "60000", "--pretty"], 0.5),
    (["trace", lambda: to_decimal(nth(60000).a), lambda: to_decimal(nth(60000).d)], 0.5),
    (["compare", "--steps", "19", "--format", "json"], 2.5),
    (["compare", "--steps", "19", "--format", "csv"], 2.5),
], ids=["gen-json", "gen-csv", "trace", "trace-pretty", "trace-A-D", "compare-json", "compare-csv"])
def test_output_is_written_as_it_is_made(argv, ratio):
    argv = computed(argv)
    run(argv, _CountingSink(), io.StringIO())  # lazy imports happen outside the measurement
    sink = _CountingSink()
    tracemalloc.start()
    try:
        code = run(argv, sink, io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.chars > 800_000
    assert peak < ratio * sink.chars


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["nth", "5", "--frobnicate"],
        ["gen", "--count", "0"],
        ["gen", "--count", "x"],
        ["nth", "0"],
        ["approx", "step", "7/0"],
        ["approx", "step", "x/y"],
        ["compare", "--steps", "-1"],
        ["trace", "2", "x"],
        [],
        # Rationals are NUM/DEN or integers: no decimal point, no exponent.
        ["approx", "step", "1e3"],
        ["approx", "digits", "1.5"],
        ["approx", "step", "1E-3"],
        ["approx", "step", ".5"],
        ["compare", "--start", "3/2e1", "--steps", "1"],
    ],
)
def test_usage_errors_exit_2(argv):
    code, _, err = invoke(argv)
    assert code == 2
    assert err != ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gen", "--count", "0"], "argument --count: must be >= 1, got 0"),
        (["compare", "--steps", "-1"], "argument --steps: must be >= 0, got -1"),
        (["nth", "x"], "argument n: not an integer: 'x'"),
        (["gen", "--count", "3", "--digits", "2.5"], "argument --digits: not an integer: '2.5'"),
        (["approx", "step", "1e3"], "argument value: not a rational NUM/DEN or integer: '1e3'"),
        (["approx", "digits", "1.5"], "argument value: not a rational NUM/DEN or integer: '1.5'"),
        (["approx", "step", "1E-3"], "argument value: not a rational NUM/DEN or integer: '1E-3'"),
        (["approx", "step", ".5"], "argument value: not a rational NUM/DEN or integer: '.5'"),
        (["compare", "--start", "3/2e1", "--steps", "1"],
         "argument --start: not a rational NUM/DEN or integer: '3/2e1'"),
    ],
)
def test_integer_argument_error_texts(argv, message):
    code, _, err = invoke(argv)
    assert code == 2
    assert message in err


LONG = "9" * 99_999


@pytest.mark.parametrize("argv", [
    ["nth", "--", "-" + LONG],
    ["nth", "x" + LONG],
    ["gen", "--count", "-" + LONG],
    ["compare", "--steps", "-" + LONG],
    ["compare", "--start", "x" + LONG, "--steps", "1"],
    ["approx", "step", "1." + LONG[1:]],
    ["trace", "5", "x" + LONG],
    ["verify", "--identity", "x" + LONG],
], ids=["nth-negative", "nth-text", "gen", "compare-steps", "compare-start", "approx", "trace", "verify"])
def test_usage_errors_shorten_a_huge_argument(argv):
    assert len(max(argv, key=len)) == 100_000
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 500
    assert "(100000 characters)" in err or "<int of 332190 bits>" in err


@pytest.mark.parametrize("argv", [
    ["gen", "--count", "1", "--format", "x" * 100_000],
    ["approx", "y" * 100_000, "1"],
    ["z" * 100_000],
], ids=["gen-format", "approx-action", "verb"])
def test_argparse_choice_errors_shorten_a_huge_argument(argv):
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 1024 and "(100000 characters)" in err


@pytest.mark.parametrize("argv", [["gen", "--count", "1", "--format", "x"], ["approx", "bad", "1"], ["bogus"],
                                  ["nth", "5", "--frobnicate"], ["gen"], ["trace", "2", "x"]])
def test_short_argparse_errors_are_those_of_argparse(argv, monkeypatch):
    ours = invoke(argv)
    monkeypatch.setattr(_parser._Parser, "error", argparse.ArgumentParser.error)
    assert ours == invoke(argv) and ours[0] == 2


@pytest.mark.parametrize("text,shown", [("3/2", "3/2"), ("+3/2", "3/2"), (" 7/5", "7/5"), ("17", "17")])
def test_rational_arguments_are_num_den_or_integers(text, shown):
    code, out, _ = invoke(["compare", "--start", text, "--steps", "0", "--format", "json"])
    assert (code, json.loads(out)["start"]) == (0, shown)


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "3", "5"],
        ["trace", "0", "1"],
        ["trace", "-3", "5"],
        ["approx", "step", "0/5"],
        ["approx", "digits", "0"],
        ["approx", "step", "-3/2"],
    ],
)
def test_domain_errors_exit_1(argv):
    code, out, err = invoke(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("steps", ["2", "40"])
@pytest.mark.parametrize("start", ["-1", "0", "-3/2"])
def test_nonpositive_start_error_names_the_argument(start, steps):
    # At 40 steps the output estimate is far over the limit: the start is checked first.
    expected = (1, "", f"error: start must be positive, got {start}\n")
    assert invoke(["compare", "--start", start, "--steps", steps]) == expected


@pytest.mark.parametrize("argv", [["nth", "20000"], ["trace", "3", "5"], ["bogus"]])
def test_run_restores_the_int_str_limit(argv, int_str_limit):
    int_str_limit(5000)
    invoke(argv)
    assert sys.get_int_max_str_digits() == 5000


def test_big_rational_arguments_need_the_lifted_int_str_limit(int_str_limit):
    int_str_limit(4300)
    big = big_pair()
    t = Fraction(big.d, big.a)
    text = f"{to_decimal(big.d)}/{to_decimal(big.a)}"
    babylonian, side_diameter = approx.compare_methods(t, 1)
    expected = {
        ("approx", "step", text): to_decimal(approx.babylonian_step(t)),
        ("approx", "preimage", text):
            "preimages: " + ", ".join(map(to_decimal, sorted(approx.babylonian_preimage(t)))),
        ("compare", "--start", text, "--steps", "1", "--format", "json"): json.dumps({
            "start": to_decimal(t),
            "steps": "1",
            "babylonian": babylonian.to_json_dict(),
            "side_diameter": side_diameter.to_json_dict(),
        }, indent=2),
    }
    for argv, shown in expected.items():
        assert invoke(list(argv)) == (0, shown + "\n", ""), argv[:2]
    assert sys.get_int_max_str_digits() == 4300


README = (Path(__file__).parents[1] / "README.md").read_text()
README_CLI = README.split("## CLI", 1)[1].split("\n## ", 1)[0]


def test_readme_cli_synopsis_matches_the_parser():
    block = README_CLI.split("```text\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
                  for line in block.splitlines()}
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(documented) == sorted(verbs)
    for verb, sub in verbs.items():
        options = {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
        assert documented[verb] == options - {"--help"}, verb


def test_readme_cli_examples_print_what_they_show():
    examples = re.findall(r"^\$ sidediameter (.*)\n((?:(?!```).+\n)*)", README_CLI, re.M)
    assert len(examples) == 5
    for command, shown in examples:
        code, out, _ = invoke(command.split())
        assert (code, out) == (0, shown), command


def test_help_exits_zero():
    code, out, _ = invoke(["--help"])
    assert code == 0
    assert "verb" in out


VERBS = ("gen", "nth", "verify", "trace", "approx", "compare")


def _parser_output(argv):
    """The exit code, stdout and stderr of argparse's parser on `argv`, which must stop it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as stop:
        build_parser().parse_args(argv)
    return stop.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [["--help"], [], ["-h", "nth"], ["bogus"]], ids=["help", "empty", "h-nth", "unknown"])
def test_outputs_that_name_no_verb_first_come_from_the_full_parser(argv):
    assert invoke(argv) == _parser_output(argv)
    if argv:
        # An empty argv prints the usage line and the missing `verb`, which lists no verb.
        listed = "".join(invoke(argv)[1:])
        assert [verb for verb in VERBS if not re.search(rf"\b{verb}\b", listed)] == []


@pytest.mark.parametrize("argv", [
    ["-h"], ["gen", "-h"], ["trace", "2", "3", "--help"], ["bogus"], ["gen", "--cou", "0"], ["compare", "--st", "3"],
    ["nth", "0"], ["approx", "step", "1e3"], ["gen", "--count=x"], ["verify", "--all", "--identity", "x"], ["gen"],
    ["--", "nth", "5"], ["nth", "-h"], ["verify", "-h"], ["approx", "-h"], ["compare", "-h"],
], ids=["h", "verb-h", "verb-help-last", "unknown", "abbreviated", "ambiguous", "bad-value", "bad-rational",
        "joined", "group-twice", "missing", "dashes", "nth-h", "verify-h", "approx-h", "compare-h"])
def test_what_the_reader_declines_argparse_prints(argv):
    assert cli._read(argv) is None
    assert invoke(argv) == _parser_output(argv)


@pytest.mark.parametrize("argv,plain", [
    (["gen", "--cou", "3"], ["gen", "--count", "3"]),
    (["gen", "--count=3", "--format=json"], ["gen", "--count", "3", "--format", "json"]),
    (["trace", "--n", "3", "--pre"], ["trace", "--n", "3", "--pretty"]),
    (["trace", "--pretty", "2", "3"], ["trace", "2", "3", "--pretty"]),
    (["gen", "--count", "2", "--count", "3"], ["gen", "--count", "3"]),
    (["verify", "--all", "--all"], ["verify", "--all"]),
], ids=["abbreviated", "joined", "flag-abbreviated", "positionals-last", "repeated", "flag-repeated"])
def test_spellings_the_reader_declines_run_as_their_plain_form(argv, plain):
    assert cli._read(argv) is None and cli._read(plain) is not None
    expected = invoke(plain)
    assert invoke(argv) == expected and expected[0] == 0


HUGE = "1" + "0" * 4400  # over CPython's default int/str limit of 4,300 digits


def _texts(spec):
    """Texts for one argument of `cli._GRAMMAR`: mostly valid and small, so every command runs fast."""
    if "choices" in spec:
        return st.sampled_from([*spec["choices"], "xml"])
    kind = spec.get("type")
    if kind in (cli.positive_int, cli.nonnegative_int):
        return st.one_of(st.integers(0, 8).map(str), st.sampled_from(["+3", " 4 ", "1_0", "x", "2.5", HUGE]))
    if kind is cli.rational:
        return st.sampled_from(["1", "3/2", "7/5", "17/12", "0", "1/0", " 5/3", "2.5", "1e3", "x", "10" * 15])
    if kind is cli.decimal_integer:
        return st.sampled_from(["2", "3", "5", "7", "12", "17", "1_2", " 5", "3.0", "x", HUGE])
    return st.sampled_from(["euclid_II_10", "bogus"])  # verify's NAME


@st.composite
def plain_argvs(draw):
    """An argument list of one verb, drawn from `cli._GRAMMAR` in the plain form that `cli._read` reads."""
    verb = draw(st.sampled_from(list(cli._GRAMMAR)))
    grammar = cli._GRAMMAR[verb][2]
    argv = [verb]
    for name, spec in grammar.items():
        if name[0] != "-":
            argv += draw(st.lists(_texts(spec), min_size=2, max_size=2)) if "nargs" in spec else [draw(_texts(spec))]
    group = [name for name in grammar if "group" in grammar[name]]
    chosen = [name for name in grammar if name[0] == "-" and "group" not in grammar[name]
              and ("required" in grammar[name] or draw(st.booleans()))]
    for name in draw(st.permutations(chosen + ([draw(st.sampled_from(group))] if group else []))):
        argv += [name] if "action" in grammar[name] else [name, draw(_texts(grammar[name]))]
    return argv


@st.composite
def argvs(draw):
    """A plain argument list, or one that is mutated up to three times into a spelling `cli._read` declines."""
    argv = draw(plain_argvs())
    grammar = cli._GRAMMAR[argv[0]][2]
    for _ in range(draw(st.integers(0, 3))):
        if not argv:
            break
        at = draw(st.integers(0, len(argv) - 1))
        word = argv[at]
        change = draw(st.sampled_from(["abbreviate", "join", "repeat", "help", "value", "swap", "extra", "drop"]))
        if change == "abbreviate" and word.startswith("--") and len(word) > 3:
            argv[at] = word[:draw(st.integers(3, len(word) - 1))]
        elif change == "join" and word.startswith("--") and at + 1 < len(argv):
            argv[at:at + 2] = [f"{word}={argv[at + 1]}"]
        elif change == "repeat" and word.startswith("--"):
            spec = grammar.get(word, {})
            where = draw(st.sampled_from([at, len(argv)]))  # before the option, or last
            argv[where:where] = [word] if "action" in spec else [word, draw(_texts(spec))]
        elif change == "help":
            argv.insert(at + draw(st.integers(0, 1)), draw(st.sampled_from(["-h", "--help"])))
        elif change == "value" and at:
            argv[at] = draw(st.sampled_from(["-3", "-3/2", "-0", "", "-x", "--"]))
        elif change == "swap" and at + 1 < len(argv):
            argv[at], argv[at + 1] = argv[at + 1], argv[at]
        elif change == "extra":
            argv.insert(at + 1, draw(st.sampled_from(["5", "x", "--bogus", "--", "-", "n", HUGE])))
        elif change == "drop":
            del argv[at]
    return argv


def _unclocked(outcome):
    """`invoke`'s outcome with `nth --check-oracle`'s wall times blanked."""
    code, out, err = outcome
    return code, out, re.sub(r"_seconds=[0-9.]+", "_seconds=", err)


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_the_reader_gives_what_argparse_gives(argv):
    # Whenever `_read` takes a list, argparse takes it too, into the same namespace; and whether it
    # takes the list or declines it, `run` prints what it prints when every list goes to argparse.
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == vars(build_parser().parse_args(argv))
    with mock.patch.object(cli, "_read", lambda argv: None):
        parsed = _unclocked(invoke(argv))
    assert _unclocked(invoke(argv)) == parsed


# Every verb, its refusals (exit 1) and usage errors (exit 2), and argparse's help and messages.
ON_EVERY_INTERPRETER = [
    [], ["--help"], ["bogus"], ["--", "nth", "5"], *([verb, "-h"] for verb in VERBS),
    ["nth", "5"], ["nth", "100001"], ["nth", "5", "--check-oracle"], ["nth", "300000000"], ["nth", "0"],
    ["gen", "--count", "300", "--format", "json", "--digits", "40"], ["gen", "--count", "20"], ["gen"],
    ["gen", "--count", "1", "--digits", "200000"], ["gen", "--count", "20000"],
    ["gen", "--count", "3", "--format", "xml"],
    ["compare", "--steps", "14", "--start", "7/5"], ["compare", "--steps", "16", "--format", "json"],
    ["compare", "--start", "-3/2", "--steps", "2"], ["compare", "--st", "3"],
    ["trace", "--n", "3000", "--pretty"], ["trace", "12", "17"], ["trace", "3", "5"], ["trace"],
    ["verify", "--all"], ["verify", "--identity", "euclid_II_10"], ["verify", "--identity", "bogus"],
    ["approx", "preimage", "17/12"], ["approx", "digits", "577/408"], ["approx", "step", "7/5", "--method", "sd"],
    ["approx", "step", "0/5"], ["approx", "step", "1e3"],
]


def _other_interpreters():
    """The folder beside `sys.base_prefix` (pyenv's `versions/`), and each CPython 3.10+ in it but this one.

    pyenv's shims are not used: they fail unless `PYENV_VERSION` is set.
    """
    this = Path(sys.base_prefix).resolve()
    found = []
    for prefix in sorted(this.parent.iterdir()):
        version = re.fullmatch(r"(\d+)\.(\d+)\.\d+", prefix.name)
        python = prefix / "bin" / "python3"
        if version and (int(version[1]), int(version[2])) >= (3, 10) and prefix != this and python.exists():
            found.append(python)
    return this.parent, found


def _digest(outcome) -> str:
    """sha256 of an exit code, stdout and stderr, with `nth --check-oracle`'s wall times blanked."""
    return hashlib.sha256(repr(_unclocked(outcome)).encode()).hexdigest()


def test_every_interpreter_beside_this_one_prints_the_same_bytes(monkeypatch):
    home, pythons = _other_interpreters()
    if not pythons:
        pytest.skip(f"no other CPython 3.10+ in {home}")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal width
    env = dict(FRESH_ENV, COLUMNS="80")
    expected = [_digest(invoke(argv)) for argv in ON_EVERY_INTERPRETER]

    def differing(python):
        runs = (subprocess.run([python, "-S", "-m", "sidediameter", *argv], capture_output=True, text=True, env=env,
                               timeout=60) for argv in ON_EVERY_INTERPRETER)
        return [" ".join(argv) for argv, proc, digest in zip(ON_EVERY_INTERPRETER, runs, expected)
                if _digest((proc.returncode, proc.stdout, proc.stderr)) != digest]

    with ThreadPoolExecutor(len(pythons)) as pool:  # one command of each interpreter at a time
        assert dict(zip(map(str, pythons), pool.map(differing, pythons))) == {str(p): [] for p in pythons}
