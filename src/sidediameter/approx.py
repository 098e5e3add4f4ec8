"""Exact-rational algorithms approximating the square root of 2.

Two historical iterations are implemented over `fractions.Fraction`:

* the fast averaging step t -> (t + 2/t) / 2, which converges quadratically
  from above (Heron's 17/12 arises this way from 3/2; a value has either no
  preimage under it or exactly two), and
* the slow ratio step t -> (2 + t) / (1 + t) induced by the side/diameter
  recurrence, which converges linearly and alternates sides (Aristarchus'
  7/5 lies on this path but is unreachable by the averaging step).

Digit accuracy is measured exactly and by multiplication alone: with the
nonzero Pell residual n = |num**2 - 2*den**2|, the error is
|t - sqrt(2)| = n / (den * (num + den*sqrt(2))), so each level is one
integer comparison.  Bit lengths start the search, with no product, and
den**4 is formed only for the exact test.  No square root is taken.  No
float enters: a number is accepted only as an int or Fraction, by type.

`run_method` checks its start once and then steps the reduced integer
state (p, q, N) with N = p**2 - 2*q**2 by `_steps._rows`, the stepper, digit
kernel and row serializer that the CLI's `gen` and `compare` run on without
this module; only `run_method` wraps p/q in a Fraction.  This module
re-exports `_exact.to_decimal`, which prints every number.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from sidediameter._exact import (DEFAULT_DECIMAL_DIGITS, DEFAULT_DIGIT_CAP, _positive_fraction, _require_int,
                                  _require_rational, _shown, to_decimal)
# The two maps keep their names here: the traced benchmark rebinds `_METHOD_STEPS` by name.
from sidediameter._steps import (_METHOD_STEPS, _REPORT_COLUMNS, _cells, _correct_digits,  # noqa: F401
                                 _decimal_string, _pell_doubling, _pell_step, _rows)


def ratio(p: "SideDiameterPair") -> Fraction:
    """The diameter-to-side ratio d/a, already in lowest terms."""
    return Fraction(p.d, p.a)


def babylonian_step(t) -> Fraction:
    """One averaging step (t + 2/t) / 2; the result always overshoots sqrt(2).

    For rational t the output r satisfies r**2 > 2 strictly, which is why
    values below sqrt(2), such as 7/5, have no rational preimage.
    """
    t = _positive_fraction(t, "t")
    return (t + 2 / t) / 2


def babylonian_preimage(t) -> set[Fraction]:
    """All positive rationals x with (x + 2/x) / 2 = t: none, or exactly two.

    For t = p/q in lowest terms, t**2 - 2 = n / q**2 with the Pell residual
    n = p**2 - 2*q**2 coprime to q, so the roots t -+ sqrt(t**2 - 2) are
    rational exactly when n is a perfect square s**2.  They are then
    (p - s)/q and (p + s)/q: positive, since their product is 2.
    """
    t = _positive_fraction(t, "t")
    p, q = t.numerator, t.denominator
    n = p * p - 2 * q * q
    if n < 0:
        return set()
    s = math.isqrt(n)
    if s * s != n:
        return set()
    return {Fraction(p - s, q), Fraction(p + s, q)}


def sd_ratio_step(t) -> Fraction:
    """One ratio step (2 + t) / (1 + t); alternates sides of sqrt(2).

    Chains with the pair recurrence: feeding d/a yields exactly the next
    pair's ratio (2a + d) / (a + d).
    """
    t = _positive_fraction(t, "t")
    return (2 + t) / (1 + t)


def isqrt(n: int) -> int:
    """Floor of the square root of a nonnegative integer, exact."""
    _require_int(n, "n", 0)
    return math.isqrt(n)


def decimal_digit_count(n: int) -> int:
    """Number of decimal digits of |n|, without building a decimal string.

    Works above the interpreter's int-to-str conversion limit.  The estimate
    k = bitlen(n) * 30103 // 100000 is never below floor(log10(n)), since
    30103/100000 > log10(2), so it is only ever corrected downward, by at
    most a couple of power-of-ten comparisons.  Anything but an int, a bool too, raises ValueError.
    """
    if not isinstance(n, int) or type(n) is bool:
        raise ValueError(f"n must be an integer, got {_shown(n)}")
    n = abs(n)
    if n < 10:
        return 1
    k = n.bit_length() * 30103 // 100000
    while 10**k > n:
        k -= 1
    return k + 1


def correct_digits(t, cap: int = DEFAULT_DIGIT_CAP) -> int:
    """The largest k <= cap with |t - sqrt(2)| < 10**-k, decided exactly.

    For t = num/den, the Pell residual n = |num**2 - 2*den**2| is at least 1
    because sqrt(2) is irrational, and |t - sqrt(2)| = n / (den * (num +
    den*sqrt(2))).  Level j therefore holds exactly when
    A = n * 10**j - den * num satisfies A <= 0 or A**2 < 2 * den**4.
    The error lies between n / (den * (num + 2*den)) and sqrt(2) times
    that, so no level above (bitlen(den) + bitlen(num + 2*den) - bitlen(n)
    + 1) * 30103 / 100000 can hold.  That is at most one level above the
    bound from bitlen(den * (num + 2*den)), so at most two above the answer
    under 5 * 10**7 bits; measured, one on 623 of 21,500 ratios, never two.
    A ratio whose answer is at least cap is settled from sizes, with no
    product.  Otherwise the search walks down from that bound (or from cap),
    forming den**4 only when A > 0, and returns 0 when not even
    |t - sqrt(2)| < 1 holds.
    """
    t = _positive_fraction(t, "t")
    _require_int(cap, "cap", 1)
    num, den = t.numerator, t.denominator
    return _correct_digits(num, den, abs(num * num - 2 * den * den), cap)


def side_of_sqrt2(t) -> str:
    """'under' or 'over', by the exact sign of num**2 - 2*den**2."""
    t = _positive_fraction(t, "t")
    return "under" if t.numerator**2 < 2 * t.denominator**2 else "over"


def cf_convergent_sqrt2(n: int) -> Fraction:
    """The n-th convergent of the continued fraction [1; 2, 2, 2, ...].

    These are exactly the diameter-to-side ratios of the pair sequence,
    which makes the convergent recurrence an independent oracle for it.
    """
    _require_int(n, "n", 1)
    num, num_prev = 1, 1
    den, den_prev = 1, 0
    for _ in range(n - 1):
        num, num_prev = 2 * num + num_prev, num
        den, den_prev = 2 * den + den_prev, den
    return Fraction(num, den)


class ReportRow(NamedTuple):
    step: int
    value: Fraction
    correct_digits: int
    side_of_sqrt2: str

    def fields(self, digits: int) -> tuple[str, ...]:
        """The row as strings, one per column of `_REPORT_COLUMNS`; trusts its values and digits."""
        return _cells(self.step, self.value.numerator, self.value.denominator, self.correct_digits, self.side_of_sqrt2, digits)


class ConvergenceReport(NamedTuple):
    """Per-step record of one approximation run: value, digits, side."""

    method: str
    start: Fraction
    rows: tuple[ReportRow, ...]

    def to_json_dict(self, digits: int = DEFAULT_DECIMAL_DIGITS) -> dict:
        _require_int(digits, "digits", 0)
        return {
            "method": self.method,
            "start": to_decimal(self.start),
            "rows": [dict(zip(_REPORT_COLUMNS, row.fields(digits))) for row in self.rows],
        }


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime ints with den >= 1, built without a gcd.

    The trusted construction of CPython 3.12's Fraction._from_coprime_ints.
    """
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def run_method(method: str, start, steps: int, cap: int = DEFAULT_DIGIT_CAP) -> ConvergenceReport:
    """Iterate one method `steps` times from `start`, recording each iterate."""
    if method not in _METHOD_STEPS:
        raise ValueError(f"unknown method {method!r}")
    start = _positive_fraction(start, "start")
    _require_int(steps, "steps", 0)
    _require_int(cap, "cap", 1)
    return ConvergenceReport(method, start, tuple(
        ReportRow(step, _coprime_fraction(p, q), digits, side)
        for step, p, q, digits, side in _rows(method, start.numerator, start.denominator, steps, cap)))


def compare_methods(start, steps: int, cap: int = DEFAULT_DIGIT_CAP) -> tuple[ConvergenceReport, ConvergenceReport]:
    """Run both iterations from the same start; (babylonian, side_diameter)."""
    return (
        run_method("babylonian", start, steps, cap),
        run_method("side_diameter", start, steps, cap),
    )


def decimal_string(t, digits: int = DEFAULT_DECIMAL_DIGITS) -> str:
    """Decimal rendering with `digits` places, exact, truncated toward zero."""
    t = _require_rational(t, "t")
    _require_int(digits, "digits", 0)
    return _decimal_string(t.numerator, t.denominator, digits)
