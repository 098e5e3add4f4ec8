import decimal
import io
import math
import pickle
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidediameter import _exact, _steps, approx, cli, pairs
from sidediameter.approx import (
    ConvergenceReport,
    ReportRow,
    babylonian_preimage,
    babylonian_step,
    cf_convergent_sqrt2,
    compare_methods,
    correct_digits,
    decimal_digit_count,
    decimal_string,
    isqrt,
    ratio,
    run_method,
    sd_ratio_step,
    side_of_sqrt2,
    to_decimal,
)
from sidediameter.identities import trace_elegant
from sidediameter.pairs import SideDiameterPair, generate, nth, step

positive_fractions = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6)
)


@pytest.mark.parametrize(
    "pair,expected",
    [((5, 7), Fraction(7, 5)), ((12, 17), Fraction(17, 12)), ((1, 1), Fraction(1))],
)
def test_ratio_examples(pair, expected):
    assert ratio(SideDiameterPair(*pair)) == expected


@pytest.mark.parametrize(
    "t,expected",
    [
        (Fraction(1), Fraction(3, 2)),
        (Fraction(3, 2), Fraction(17, 12)),
        (Fraction(17, 12), Fraction(577, 408)),
    ],
)
def test_babylonian_step_examples(t, expected):
    assert babylonian_step(t) == expected


def test_babylonian_step_result_is_pell_plus_one():
    r = babylonian_step(Fraction(17, 12))
    assert r.numerator**2 - 2 * r.denominator**2 == 1


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-3, 2), 0, -7])
def test_nonpositive_inputs_rejected(bad):
    for func in (babylonian_step, sd_ratio_step, babylonian_preimage, correct_digits, side_of_sqrt2):
        with pytest.raises(ValueError):
            func(bad)


def test_babylonian_preimage_examples():
    assert babylonian_preimage(Fraction(7, 5)) == set()
    assert babylonian_preimage(Fraction(17, 12)) == {Fraction(3, 2), Fraction(4, 3)}
    assert babylonian_preimage(Fraction(3, 2)) == {Fraction(1), Fraction(2)}
    for x in babylonian_preimage(Fraction(17, 12)):
        assert babylonian_step(x) == Fraction(17, 12)


def test_babylonian_preimage_irrational_discriminant():
    # t = 2: t^2 - 2 = 2 is not the square of a rational
    assert babylonian_preimage(Fraction(2)) == set()


def test_babylonian_preimage_of_99_70():
    roots = babylonian_preimage(Fraction(99, 70))
    assert roots == {Fraction(7, 5), Fraction(10, 7)}
    for x in roots:
        assert babylonian_step(x) == Fraction(99, 70)


def test_babylonian_preimage_round_trip_200_random():
    rng = random.Random(0xBA81)
    for _ in range(200):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        t = babylonian_step(x)
        roots = babylonian_preimage(t)
        assert x in roots
        assert len(roots) == 2
        first, second = roots
        assert first * second == 2
        for root in roots:
            assert babylonian_step(root) == t


@pytest.mark.parametrize(
    "t,expected",
    [
        (Fraction(1), Fraction(3, 2)),
        (Fraction(3, 2), Fraction(7, 5)),
        (Fraction(7, 5), Fraction(17, 12)),
    ],
)
def test_sd_ratio_step_examples(t, expected):
    assert sd_ratio_step(t) == expected


@pytest.mark.parametrize(
    "n,expected",
    [(2 * 10**4, 141), (0, 0), (2 * 10**20, 14142135623)],
)
def test_isqrt_examples(n, expected):
    r = isqrt(n)
    assert r == expected
    assert r * r <= n < (r + 1) * (r + 1)


def test_isqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)


@given(st.integers(0, 10**40))
def test_isqrt_floor_property(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) * (r + 1)


def test_decimal_digit_count(int_str_limit):
    assert decimal_digit_count(0) == 1
    assert decimal_digit_count(9) == 1
    assert decimal_digit_count(10) == 2
    assert decimal_digit_count(-10) == 2
    # The bit-length estimate is corrected downward only; these are its edges, up to about 5,000 digits.
    int_str_limit(0)
    for k in (5, 20, 100, *range(1, 5001, 7)):
        assert decimal_digit_count(10**k - 1) == k
        assert decimal_digit_count(10**k) == decimal_digit_count(10**k + 1) == k + 1
    for k in range(1, 16700, 11):
        assert decimal_digit_count(2**k - 1) == len(str(2**k - 1))
        assert decimal_digit_count(2**k) == len(str(2**k))


class _CorrectionCountingInt(int):
    """An int that `abs` keeps, counting the comparisons `10**k > n` that hold, each one correction."""

    corrections = 0

    def __abs__(self):
        return self

    def __lt__(self, other):
        # `10**k > n` calls this reflected `<` first, since this type overrides it.
        held = int(self) < other
        type(self).corrections += held
        return held


def test_decimal_digit_count_corrects_its_estimate_at_most_twice():
    worst = 0
    edges = [m for k in (*range(1, 5001, 7), 30103, 100000) for m in (10**k - 1, 10**k, 10**k + 1)]
    edges += [m for k in (*range(4, 16700, 11), 332193, 1000000) for m in (2**k - 1, 2**k)]
    for m in edges:
        _CorrectionCountingInt.corrections = 0
        count = decimal_digit_count(_CorrectionCountingInt(m))
        assert 10 ** (count - 1) <= m < 10**count
        worst = max(worst, _CorrectionCountingInt.corrections)
    assert 1 <= worst <= 2


@given(st.integers(-10**30, 10**30))
def test_decimal_digit_count_matches_str(n):
    expected = len(str(abs(n))) if n else 1
    assert decimal_digit_count(n) == expected


@pytest.mark.parametrize(
    "t,expected",
    [
        (Fraction(17, 12), 2),
        (Fraction(1), 0),
        (Fraction(577, 408), 5),
        (Fraction(7, 5), 1),
        (Fraction(3, 2), 1),
        (Fraction(100), 0),
    ],
)
def test_correct_digits_examples(t, expected):
    assert correct_digits(t) == expected


def test_correct_digits_respects_cap():
    assert correct_digits(Fraction(577, 408), cap=3) == 3
    with pytest.raises(ValueError):
        correct_digits(Fraction(3, 2), cap=0)


def _correct_digits_scan(t: Fraction, cap: int) -> int:
    """Reference: test |t - sqrt(2)| < 10**-k for k = 1, 2, ... with one root per level."""
    num, den = t.numerator, t.denominator
    digits = 0
    for k in range(1, cap + 1):
        scaled_num = num * 10**k
        scaled_den = den * 10**k
        floor_sqrt2 = math.isqrt(2 * scaled_den * scaled_den)
        if scaled_num - den <= floor_sqrt2 and scaled_num + den >= floor_sqrt2 + 1:
            digits = k
        else:
            break
    return digits


def _babylonian_iterate(start: Fraction, steps: int) -> Fraction:
    for _ in range(steps):
        start = babylonian_step(start)
    return start


def _near_sqrt2(den: int, offset: int) -> Fraction:
    return Fraction(max(1, math.isqrt(2 * den * den) + offset), den)


digit_test_values = st.one_of(
    st.integers(1, 400).map(cf_convergent_sqrt2),
    st.builds(
        _babylonian_iterate,
        st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(7, 5), Fraction(19, 13)]),
        st.integers(1, 9),
    ),
    st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40)),
    st.builds(_near_sqrt2, st.integers(1, 10**60), st.integers(-3, 3)),
    # Where the bit-length start of `correct_digits` is loosest: far from
    # sqrt(2) on either side, and Pell residuals 23**(2**s) far above 1.
    st.integers(0, 400).map(lambda k: Fraction(1, 10**k)),
    st.integers(0, 400).map(lambda k: Fraction(10**k)),
    st.builds(_babylonian_iterate, st.just(Fraction(19, 13)), st.integers(0, 9)),
)


@settings(max_examples=400, deadline=None)
@given(digit_test_values, st.sampled_from([1, 2, 3, 7, 50, 200, 300, 1500]))
# Answer 1 at cap 2, where bitlen(n) + bitlen(10**cap) = bitlen(den) + bitlen(num):
# one bit above what settles a row from sizes.
@example(Fraction(47, 33), 2)
def test_correct_digits_matches_linear_scan(t, cap):
    assert correct_digits(t, cap) == _correct_digits_scan(t, cap)


@settings(max_examples=400, deadline=None)
@given(digit_test_values, st.sampled_from([1, 2, 3, 7, 50, 200, 300, 1500]), st.booleans())
def test_correct_digits_walks_at_most_two_levels_below_its_start(t, cap, as_decimals):
    """The walk tests its start level and at most two below it, in both number types; a row
    settled from sizes tests none."""
    num, den = t.numerator, t.denominator
    state = (num, den, abs(num * num - 2 * den * den))
    with decimal.localcontext(_exact._EXACT), mock.patch.object(_steps, "_shifted", wraps=_steps._shifted) as shifted:
        answer = _steps._correct_digits(*map(decimal.Decimal, state) if as_decimals else state, cap)
    assert shifted.call_count <= (3 if answer else 2)


@pytest.mark.parametrize("n", [1000, 2000])
def test_correct_digits_matches_linear_scan_on_far_convergents(n):
    t = cf_convergent_sqrt2(n)
    assert correct_digits(t, 1500) == _correct_digits_scan(t, 1500)


def test_correct_digits_takes_no_isqrt(monkeypatch):
    calls = []
    real_isqrt = math.isqrt

    def counting_isqrt(n):
        calls.append(n)
        return real_isqrt(n)

    monkeypatch.setattr(approx, "isqrt", counting_isqrt)
    monkeypatch.setattr(math, "isqrt", counting_isqrt)
    for t, cap in [(Fraction(577, 408), 50), (Fraction(100), 7), (ratio(nth(300)), 300)]:
        correct_digits(t, cap)
    assert calls == []


def _square_counting(base):
    """A subclass of `base`, int or Decimal, whose values count their products with values of
    the class, themselves included, and their powers."""

    class SquareCounting(base):
        def __new__(cls, value):
            self = super().__new__(cls, value)
            self.squarings = 0
            return self

        def __mul__(self, other):
            self.squarings += isinstance(other, SquareCounting)
            return base(self) * other

        __rmul__ = __mul__

        def __pow__(self, exponent, modulo=None):
            self.squarings += 1
            return pow(base(self), exponent, modulo)

    return SquareCounting


_SquareCountingInt = _square_counting(int)
_SquareCountingDecimal = _square_counting(decimal.Decimal)


@pytest.mark.parametrize("index,cap", [(3000, 50), (3000, 1), (400, 50), (1000, 200)])
def test_correct_digits_squares_no_den_at_a_cap_below_the_answer(index, cap):
    """A cap-bound row is settled from sizes, of ints or of Decimals: no den * num, no den**4."""
    p = nth(index)
    for counting, one in [(_SquareCountingInt, 1), (_SquareCountingDecimal, decimal.Decimal(1))]:
        num, den = counting(p.d), counting(p.a)
        with decimal.localcontext(_exact._EXACT):
            assert approx._correct_digits(num, den, one, cap) == cap
        assert den.squarings == num.squarings == 0


def test_correct_digits_squares_den_only_for_the_exact_test():
    # The search starts at level 6 for 577/408, which only A**2 < 2*den**4 can refuse.
    den = _SquareCountingInt(408)
    assert approx._correct_digits(577, den, 1, 50) == 5
    assert den.squarings == 1


def _integral_decimal(x) -> bool:
    return type(x) is decimal.Decimal and x.as_tuple().exponent == 0


# General p/q mostly have |N| > 1; 47/33 at cap 2 and 13/10 at cap 1 answer one level below
# the cap, where the size tests of ints and of Decimals have no slack.
kernel_values = st.one_of(
    st.integers(1, 400).map(cf_convergent_sqrt2),
    st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40)),
    st.builds(_near_sqrt2, st.integers(1, 10**60), st.integers(-3, 3)),
    st.builds(_babylonian_iterate, st.sampled_from([Fraction(19, 13), Fraction(4, 3)]), st.integers(0, 8)),
    st.builds(Fraction, st.integers(1, 10**6), st.sampled_from([8, 100, 625, 1024])),
)


@settings(max_examples=400, deadline=None)
@given(kernel_values, st.integers(1, 400), st.integers(0, 120), st.booleans())
@example(Fraction(47, 33), 2, 0, False)
@example(Fraction(13, 10), 1, 0, False)
def test_digit_kernel_agrees_on_ints_and_integral_decimals(t, cap, places, below_cap):
    """`_correct_digits` and `_decimal_string` give the same count and string on both number types,
    also on rows whose answer is one level below the cap."""
    num, den = t.numerator, t.denominator
    n = abs(num * num - 2 * den * den)
    if below_cap:
        cap = correct_digits(t, 10**4) + 1
    with decimal.localcontext(_exact._EXACT):
        d_num, d_den, d_n = map(decimal.Decimal, (num, den, n))
        count, text = approx._correct_digits(d_num, d_den, d_n, cap), approx._decimal_string(d_num, d_den, places)
        whole, rem = divmod(d_num, d_den)
        assert all(map(_integral_decimal, (whole, rem, _steps._shifted(rem, places) // d_den)))
    assert (count, text) == (approx._correct_digits(num, den, n, cap), approx._decimal_string(num, den, places))


@given(positive_fractions)
def test_side_of_sqrt2_is_the_side_of_t_squared(t):
    assert side_of_sqrt2(t) == ("under" if t * t < 2 else "over")


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, Fraction(1)),
        (2, Fraction(3, 2)),
        (3, Fraction(7, 5)),
        (4, Fraction(17, 12)),
        (5, Fraction(41, 29)),
    ],
)
def test_cf_convergent_examples(n, expected):
    assert cf_convergent_sqrt2(n) == expected


def test_cf_convergent_rejects_nonpositive():
    with pytest.raises(ValueError):
        cf_convergent_sqrt2(0)


def test_cf_convergents_equal_pair_ratios_up_to_50():
    for n in range(1, 51):
        assert cf_convergent_sqrt2(n) == ratio(nth(n))


def test_compare_methods_from_3_2():
    babylonian, side_diameter = compare_methods(Fraction(3, 2), 2)
    assert [(r.value, r.correct_digits) for r in babylonian.rows] == [
        (Fraction(17, 12), 2),
        (Fraction(577, 408), 5),
    ]
    assert [r.value for r in side_diameter.rows] == [Fraction(7, 5), Fraction(17, 12)]
    assert [r.step for r in babylonian.rows] == [1, 2]
    assert babylonian.method == "babylonian"
    assert side_diameter.method == "side_diameter"


def test_compare_methods_zero_steps():
    babylonian, side_diameter = compare_methods(Fraction(3, 2), 0)
    assert babylonian.rows == ()
    assert side_diameter.rows == ()


# Even numerators make the first averaging step reducible (4/3 -> 34/24 =
# 17/12); 19/13 has Pell residual 23, so |N| > 1 on every iterate.
run_method_starts = st.one_of(
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(7, 5), Fraction(5),
                     Fraction(4, 3), Fraction(2), Fraction(2, 5), Fraction(19, 13)]),
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000), max_denominator=1000),
)
run_method_lengths = st.one_of(
    st.tuples(st.just("babylonian"), st.integers(0, 8)),
    st.tuples(st.just("side_diameter"), st.integers(0, 30)),
)


@settings(max_examples=150, deadline=None)
@given(run_method_starts, run_method_lengths, st.sampled_from([1, 50, 200]))
@example(Fraction(4, 3), ("babylonian", 3), 50)
@example(Fraction(2), ("babylonian", 4), 200)
@example(Fraction(2, 5), ("babylonian", 8), 1)
@example(Fraction(19, 13), ("babylonian", 8), 200)
@example(Fraction(19, 13), ("side_diameter", 30), 50)
def test_run_method_rows_equal_the_public_fraction_steps(start, method_steps, cap):
    method, steps = method_steps
    advance = babylonian_step if method == "babylonian" else sd_ratio_step
    expected = []
    value = start
    for i in range(1, steps + 1):
        value = advance(value)
        expected.append(ReportRow(i, value, correct_digits(value, cap), side_of_sqrt2(value)))
    rows = run_method(method, start, steps, cap).rows
    assert rows == tuple(expected)
    for row in rows:
        assert type(row.value) is Fraction
        assert math.gcd(row.value.numerator, row.value.denominator) == 1


class _CountingInt(int):
    """An int that counts its products with another counting int; factors like 2 go uncounted."""

    products = 0

    def __mul__(self, other):
        if isinstance(other, _CountingInt):
            _CountingInt.products += 1
        return _CountingInt(int(self) * int(other))

    def __rmul__(self, other):
        return _CountingInt(int(other) * int(self))

    def __sub__(self, other):
        return _CountingInt(int(self) - int(other))

    def __mod__(self, other):
        return _CountingInt(int(self) % other)

    def __floordiv__(self, other):
        return _CountingInt(int(self) // other)


BABYLONIAN_STARTS = [Fraction(1), Fraction(3, 2), Fraction(19, 13), Fraction(4, 3)]


# 4/3 has an even numerator, so its first step is halved.
@pytest.mark.parametrize("start", BABYLONIAN_STARTS)
def test_babylonian_state_takes_three_products_per_step(start):
    """Two squares, p*p and N*N, and one product p*q: p**2 + 2q**2 is formed as 2p**2 - N."""
    steps = 9
    _CountingInt.products = 0
    p, q = _CountingInt(start.numerator), _CountingInt(start.denominator)
    n = _CountingInt(start.numerator**2 - 2 * start.denominator**2)
    value = start
    for _ in range(steps):
        p, q, n = _exact._pell_doubling(p, q, n)
        value = babylonian_step(value)
        assert type(p) is type(q) is type(n) is _CountingInt
        assert (p, q, n) == (value.numerator, value.denominator, int(p) ** 2 - 2 * int(q) ** 2)
    assert _CountingInt.products == 3 * steps


@pytest.mark.parametrize("start", BABYLONIAN_STARTS)
def test_babylonian_state_steps_integral_decimals_to_the_same_states(start):
    p, q = start.numerator, start.denominator
    n = p * p - 2 * q * q
    state = tuple(map(decimal.Decimal, (p, q, n)))
    for _ in range(9):
        p, q, n = _exact._pell_doubling(p, q, n)
        with decimal.localcontext(_exact._EXACT):
            state = _exact._pell_doubling(*state)
        assert all(map(_integral_decimal, state)) and state == (p, q, n)


def test_compare_takes_no_gcd(monkeypatch):
    calls = []
    real_gcd = math.gcd

    def counting_gcd(*args):
        calls.append(args)
        return real_gcd(*args)

    start = Fraction(3, 2)
    monkeypatch.setattr(math, "gcd", counting_gcd)
    for report in compare_methods(start, 12):
        [row.fields(30) for row in report.rows]  # what `compare`'s CSV writes
        report.to_json_dict()
    assert calls == []


def test_compare_rows_call_no_checked_public_function(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a checked public function was called")

    for name in ("decimal_string", "correct_digits", "side_of_sqrt2", "babylonian_step", "sd_ratio_step"):
        monkeypatch.setattr(approx, name, refuse)
    for report in compare_methods(Fraction(19, 13), 6):
        assert len(report.rows) == 6
        report.to_json_dict()
    for fmt in ("csv", "json"):
        out, err = io.StringIO(), io.StringIO()
        assert cli.run(["compare", "--start", "19/13", "--steps", "6", "--format", fmt], out, err) == 0
        assert out.getvalue() and err.getvalue() == ""


def test_coprime_fraction_is_a_plain_fraction():
    rng = random.Random(2)
    for _ in range(300):
        num = rng.choice([-1, 1]) * rng.randrange(0, 10 ** rng.randrange(1, 60))
        den = rng.randrange(1, 10 ** rng.randrange(1, 60))
        g = math.gcd(num, den)
        num, den = num // g, den // g
        made, expected = approx._coprime_fraction(num, den), Fraction(num, den)
        assert type(made) is Fraction
        assert (made.numerator, made.denominator) == (expected.numerator, expected.denominator)
        assert made == expected and hash(made) == hash(expected)
        assert (repr(made), str(made)) == (repr(expected), str(expected))
        other = Fraction(rng.randrange(-99, 100), rng.randrange(1, 100))
        assert made + other == expected + other and made * other == expected * other
        assert made - other == expected - other and made ** 2 == expected ** 2
        assert (made < other) == (expected < other)
        if num:
            assert other / made == other / expected
        restored = pickle.loads(pickle.dumps(made))
        assert type(restored) is Fraction and restored == expected


def test_run_method_rejects_unknown():
    with pytest.raises(ValueError):
        run_method("bogus", Fraction(1), 3)


def test_report_csv_schema():
    # A report's rows as `compare` writes them to CSV, after its method column.
    report, _ = compare_methods(Fraction(3, 2), 2)
    lines = [",".join(row.fields(approx.DEFAULT_DECIMAL_DIGITS)) for row in report.rows]
    assert ",".join(approx._REPORT_COLUMNS) == "step,value_num,value_den,decimal_value,correct_digits,side"
    assert lines[0] == "1,17,12,1.416666666666666666666666666666,2,over"
    assert lines[1].startswith("2,577,408,1.414215686274509803921568627450,5,over")
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["compare", "--start", "3/2", "--steps", "2"], out, err) == 0
    assert out.getvalue().splitlines()[:3] == [
        "method,step,value_num,value_den,decimal_value,correct_digits,side",
        *(f"babylonian,{line}" for line in lines),
    ]
    assert out.getvalue().endswith("\n")


def test_report_json_mirror():
    report, _ = compare_methods(Fraction(3, 2), 4)
    payload = report.to_json_dict()
    assert payload["method"] == "babylonian"
    assert payload["start"] == "3/2"
    assert payload["rows"][0] == {
        "step": "1",
        "value_num": "17",
        "value_den": "12",
        "decimal_value": "1.416666666666666666666666666666",
        "correct_digits": "2",
        "side": "over",
    }
    # Each JSON row mirrors the row of `compare`'s CSV, after its method column.
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["compare", "--start", "3/2", "--steps", "4"], out, err) == 0
    header, *lines = out.getvalue().splitlines()
    lines = [line for line in lines if line.startswith("babylonian,")]
    assert len(lines) == len(payload["rows"]) == 4
    for line, row in zip(lines, payload["rows"]):
        assert ["method", *row] == header.split(",")
        assert ["babylonian", *row.values()] == line.split(",")


def test_decimal_string_rendering():
    assert decimal_string(Fraction(17, 12), 10) == "1.4166666666"
    assert decimal_string(Fraction(1, 3), 5) == "0.33333"
    assert decimal_string(Fraction(-17, 12), 4) == "-1.4166"
    assert decimal_string(Fraction(7), 0) == "7"
    assert decimal_string(Fraction(1, 2), 1) == "0.5"
    assert decimal_string(Fraction(201, 100), 4) == "2.0100"
    assert decimal_string(Fraction(0), 0) == "0"
    assert decimal_string(Fraction(0), 3) == "0.000"
    # A fractional part above the str() threshold, with 4,499 leading zeros.
    assert decimal_string(Fraction(10**4500 + 1, 10**9000), 9000) == (
        "0." + "0" * 4499 + "1" + "0" * 4499 + "1"
    )
    with pytest.raises(ValueError):
        decimal_string(Fraction(1), -1)


def reference_str(n: int) -> str:
    """str(n) with the interpreter's int-to-str digit limit lifted."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(before)


def _widths_near(*cuts):
    return st.sampled_from(cuts).flatmap(lambda cut: st.integers(cut - 3, cut + 3))


# Bit widths and decimal lengths on both sides of the str() threshold and
# of the leaf size, where the split first recurses.
_BIT_CUTS = (_exact._STR_MAX_BITS, 2 * _exact._STR_MAX_BITS, 8 * _exact._LEAF_BITS)
_DIGIT_CUTS = tuple(cut * 30103 // 100000 for cut in _BIT_CUTS)

threshold_ints = st.one_of(
    st.integers(-(2**80), 2**80),
    _widths_near(*_BIT_CUTS).flatmap(lambda w: st.integers(2 ** (w - 1), 2**w - 1)),
    _widths_near(*_BIT_CUTS).map(lambda w: 2**w),
    _widths_near(*_BIT_CUTS).map(lambda w: 2**w - 1),
    _widths_near(*_DIGIT_CUTS).map(lambda k: 10**k),
    _widths_near(*_DIGIT_CUTS).map(lambda k: 10**k - 1),
)


@settings(max_examples=200, deadline=None)
@given(threshold_ints, st.booleans())
def test_to_decimal_matches_str(n, negate):
    n = -n if negate else n
    assert to_decimal(n) == reference_str(n)


@pytest.mark.parametrize(
    "n",
    [0, -1, 10**20000, 10**20000 - 1, -(10**20000), 2**70000, 10**9000 + 1, nth(130000).d],
    ids=["0", "-1", "10^20000", "10^20000-1", "-10^20000", "2^70000", "10^9000+1", "nth(130000).d"],
)
def test_to_decimal_examples(n):
    assert to_decimal(n) == reference_str(n)


@pytest.mark.parametrize("bits", [14_001, 16_384, 16_385, 65_537, 332_193, 1_000_003])
def test_to_decimal_splits_at_most_log2_of_bits_over_the_leaf_plus_one_levels_deep(bits):
    """The split halves each part, so the leaves of `_LEAF_BITS` bits lie ceil(log2(bits / _LEAF_BITS)) + 1 levels deep."""
    convert = next(c for c in to_decimal.__code__.co_consts if getattr(c, "co_name", None) == "convert")
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if frame.f_code is convert and event in ("call", "return"):
            depth += 1 if event == "call" else -1
            deepest = max(deepest, depth)

    n = random.Random(bits).getrandbits(bits) | 1 << (bits - 1)
    sys.setprofile(profile)
    try:
        to_decimal(n)
    finally:
        sys.setprofile(None)
    leaves = -(-bits // _exact._LEAF_BITS)  # ceil(bits / _LEAF_BITS), so the bound is bitlen(leaves - 1) + 1
    assert 2 <= deepest <= (leaves - 1).bit_length() + 1


with decimal.localcontext(_exact._EXACT):
    EXACT_PAIR_60000 = _exact._nth_components(60000, decimal.Decimal(1))


# 4,215 and 4,216 digits straddle the width where `to_decimal` leaves str() for ints.
@pytest.mark.parametrize(
    "n",
    [decimal.Decimal(0), decimal.Decimal(-987654321), decimal.Decimal("9" * 4215),
     decimal.Decimal("1" + "0" * 4215), *EXACT_PAIR_60000],
    ids=["0", "negative", "4215-digits", "4216-digits", "nth(60000).a", "nth(60000).d"],
)
def test_to_decimal_of_an_integral_decimal_is_its_str(n):
    """The same bytes as str() of the Decimal and as `to_decimal` of the int."""
    assert to_decimal(n) == str(n) == to_decimal(int(n))


def test_to_decimal_raises_rather_than_rounds(monkeypatch):
    narrow = _exact._EXACT.copy()
    narrow.prec = 100
    monkeypatch.setattr(_exact, "_EXACT", narrow)
    with pytest.raises(decimal.Inexact):
        to_decimal(3**20000)


def test_renderers_work_under_the_default_int_str_limit(int_str_limit):
    int_str_limit(4300)
    p = nth(12000)  # 4,594 digits
    trace = trace_elegant(p)
    report = run_method("babylonian", 1, 14)  # 6,000-digit denominators
    from_ratio = run_method("babylonian", Fraction(p.d, p.a), 0)
    rendered = (trace.pretty(), trace.to_json_dict(), [row.fields(30) for row in report.rows],
                report.to_json_dict(), from_ratio.to_json_dict())
    int_str_limit(0)
    assert rendered[4] == {"method": "babylonian", "start": f"{p.d}/{p.a}", "rows": []}
    assert rendered[1]["pair"] == {"a": str(p.a), "d": str(p.d), "e": "1"}
    last = report.rows[-1]
    assert rendered[2][-1][:3] == ("14", str(last.value.numerator), str(last.value.denominator))
    assert rendered[2][-1][3].startswith("1.414")
    assert rendered[3]["rows"][-1]["value_den"] == str(last.value.denominator)
    assert f"(a={p.a}, d={p.d}, e=+1)" in rendered[0]


@given(positive_fractions)
def test_babylonian_always_overshoots(t):
    result = babylonian_step(t)
    assert result * result > 2


@given(positive_fractions)
def test_sd_ratio_step_alternates_sides(t):
    result = sd_ratio_step(t)
    if t * t < 2:
        assert result * result > 2
    else:
        assert result * result < 2


def test_pair_ratio_sides_follow_sign():
    for p in generate(60):
        assert side_of_sqrt2(ratio(p)) == ("under" if p.sign == -1 else "over")


def test_sd_ratio_step_agrees_with_pair_step():
    for p in generate(100):
        assert sd_ratio_step(ratio(p)) == ratio(step(p))


def test_babylonian_step_doubles_pair_index():
    for n in range(1, 33):
        assert babylonian_step(ratio(nth(n))) == ratio(nth(2 * n))


def test_babylonian_digits_non_decreasing():
    report = run_method("babylonian", Fraction(1), 8, cap=200)
    digits = [r.correct_digits for r in report.rows]
    assert all(later >= earlier for earlier, later in zip(digits, digits[1:]))


def test_sd_sides_alternate_from_pair_ratio():
    report = run_method("side_diameter", ratio(nth(2)), 12)
    sides = [r.side_of_sqrt2 for r in report.rows]
    assert sides[0] == "under"  # 3/2 is over, the next iterate flips
    for earlier, later in zip(sides, sides[1:]):
        assert earlier != later
