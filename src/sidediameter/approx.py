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
state (p, q, N) with N = p**2 - 2*q**2, the residual of a side/diameter
pair.  The ratio step is the pair step: (p + 2q, p + q, -N), coprime
because gcd(p + 2q, p + q) = gcd(p, q).  The averaging step is the pair
doubling a -> 2ad, d -> 2d**2 - e of `pairs._nth_components`, with the
carried N for e: (2p**2 - N, 2pq, N**2), whose only common factor is 2,
present exactly when p is even; halving then leaves p odd, so that happens
on the first step at most.  Each row reads its side from the sign of N and
its digit count from |N|, and wraps the coprime p/q in a Fraction without a gcd.

Every exact number the package prints is rendered by `to_decimal`,
byte-identical to str(): a Decimal by its linear str(), and an int above
about 4,200 digits by divide and conquer through the standard library's
`decimal` module, in subquadratic time and without the interpreter's
int-to-str digit limit.
"""

import decimal
import math
from fractions import Fraction
from typing import NamedTuple

from sidediameter.pairs import _STR_MAX_BITS, SideDiameterPair, _require_int, _require_rational, _shown

DEFAULT_DIGIT_CAP = 50
DEFAULT_DECIMAL_DIGITS = 30


def ratio(p: SideDiameterPair) -> Fraction:
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
    most a couple of power-of-ten comparisons.
    """
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
    The search walks down from there (or from cap), forming den**4 only when
    A > 0, and returns 0 when not even |t - sqrt(2)| < 1 holds.
    """
    t = _positive_fraction(t, "t")
    _require_int(cap, "cap", 1)
    num, den = t.numerator, t.denominator
    return _correct_digits(num, den, abs(num * num - 2 * den * den), cap)


def _correct_digits(num: int, den: int, n: int, cap: int) -> int:
    """`correct_digits(num/den, cap)` for trusted ints with the Pell residual
    n = |num**2 - 2*den**2| already known."""
    # An upper bound: bitlen(x*y) <= bitlen(x) + bitlen(y), 30103/100000 >= log10(2).
    j = min(cap, (den.bit_length() + (num + 2 * den).bit_length() - n.bit_length() + 1) * 30103 // 100000)
    den_num = den * num
    while j > 0:
        excess = n * 10**j - den_num
        if excess <= 0 or excess * excess < 2 * den**4:
            return j
        j -= 1
    return 0


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


_REPORT_COLUMNS = ("step", "value_num", "value_den", "decimal_value", "correct_digits", "side")


class ReportRow(NamedTuple):
    step: int
    value: Fraction
    correct_digits: int
    side_of_sqrt2: str

    def fields(self, digits: int) -> tuple[str, ...]:
        """The row as strings, one per column of `_REPORT_COLUMNS`; trusts its values and digits."""
        return (
            str(self.step),
            to_decimal(self.value.numerator),
            to_decimal(self.value.denominator),
            _decimal_string(self.value.numerator, self.value.denominator, digits),
            str(self.correct_digits),
            self.side_of_sqrt2,
        )


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


def _babylonian_state(p: int, q: int, n: int) -> tuple[int, int, int]:
    """`babylonian_step` on the reduced state (p, q, p**2 - 2*q**2)."""
    p, q, n = 2 * (p * p) - n, 2 * (p * q), n * n
    # The two share only a 2, and only when the old p was even.
    if p & 1:
        return p, q, n
    return p >> 1, q >> 1, n >> 2


def _ratio_state(p: int, q: int, n: int) -> tuple[int, int, int]:
    """`sd_ratio_step` on the reduced state (p, q, p**2 - 2*q**2)."""
    return p + 2 * q, p + q, -n


_METHOD_STEPS = {
    "babylonian": _babylonian_state,
    "side_diameter": _ratio_state,
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
    advance = _METHOD_STEPS[method]
    rows = []
    p, q = start.numerator, start.denominator
    n = p * p - 2 * q * q
    for i in range(1, steps + 1):
        p, q, n = advance(p, q, n)
        digits = _correct_digits(p, q, abs(n), cap)
        rows.append(ReportRow(i, _coprime_fraction(p, q), digits, "under" if n < 0 else "over"))
    return ConvergenceReport(method, start, tuple(rows))


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


def _decimal_string(num: int, den: int, digits: int) -> str:
    """`decimal_string(Fraction(num, den), digits)` for trusted ints, den > 0."""
    sign = "-" if num < 0 else ""
    whole, rem = divmod(abs(num), den)
    if digits == 0:
        return sign + to_decimal(whole)
    frac = rem * 10**digits // den
    return f"{sign}{to_decimal(whole)}.{to_decimal(frac).zfill(digits)}"


# Split parts this small become Decimal(int) directly; measured fastest
# among 1,024-4,096 bits on 10**4- to 2*10**5-digit integers.
_LEAF_BITS = 2_048
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_EXACT.traps[decimal.Inexact] = True


def to_decimal(n: int | Fraction | decimal.Decimal) -> str:
    """Exactly str(n), in subquadratic time and for ints of any size.

    A Fraction renders as num/den, or num when den is 1, as str() does.
    A Decimal and a small int go to str(), which is linear on a Decimal.
    Larger ints are split recursively at powers of two, m = hi * 2**w + lo,
    and rebuilt as a `decimal.Decimal`, whose big products run in libmpdec's
    number-theoretic transform (Brent and Zimmermann, Modern Computer
    Arithmetic, section 1.7; CPython 3.12's _pylong).  The context keeps
    every digit and traps Inexact, so a rounding would raise instead of
    printing a wrong digit.  Unlike str(), this never depends on
    sys.set_int_max_str_digits.
    """
    if isinstance(n, Fraction):
        num = to_decimal(n.numerator)
        return num if n.denominator == 1 else f"{num}/{to_decimal(n.denominator)}"
    if isinstance(n, decimal.Decimal) or n.bit_length() <= _STR_MAX_BITS:
        return str(n)
    powers = {}

    def power(w: int) -> decimal.Decimal:
        # 2**w, each w computed once.
        if w not in powers:
            if w <= _LEAF_BITS:
                powers[w] = decimal.Decimal(1 << w)
            else:
                half = w >> 1
                powers[w] = _EXACT.multiply(power(half), power(w - half))
        return powers[w]

    def convert(m: int, width: int) -> decimal.Decimal:
        if width <= _LEAF_BITS:
            return decimal.Decimal(m)
        half = width >> 1
        hi = m >> half
        lo = m - (hi << half)
        return _EXACT.add(convert(lo, half), _EXACT.multiply(convert(hi, width - half), power(half)))

    text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _positive_fraction(t, name: str) -> Fraction:
    t = _require_rational(t, name)
    if t <= 0:
        raise ValueError(f"{name} must be positive, got {_shown(t, str)}")
    return t
