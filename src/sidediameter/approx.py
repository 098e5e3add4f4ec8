"""Exact-rational algorithms approximating the square root of 2.

Two historical iterations are implemented over `fractions.Fraction`:

* the fast averaging step t -> (t + 2/t) / 2, which converges quadratically
  from above (Heron's 17/12 arises this way from 3/2), and
* the slow ratio step t -> (2 + t) / (1 + t) induced by the side/diameter
  recurrence, which converges linearly and alternates sides (Aristarchus'
  7/5 lies on this path but is unreachable by the averaging step).

Digit accuracy is measured exactly: one integer square root,
floor(sqrt(2) * 10**k * den) at the highest level k that can hold, brackets
the scaled error tightly enough to decide every level at or below k.  No
float enters: a number is accepted only as an int or Fraction, by type.

Big integers are rendered by `to_decimal`, exactly and byte-identical to
str(): above about 4,200 digits it converts by divide and conquer through
the standard library's `decimal` module, in subquadratic time and without
the interpreter's int-to-str digit limit.
"""

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

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
    """All positive rationals x with (x + 2/x) / 2 = t (zero, one, or two).

    Solving x**2 - 2*t*x + 2 = 0 exactly: rational roots exist iff
    t**2 - 2 is the square of a rational, decided by perfect-square tests
    on the numerator and denominator of the discriminant.
    """
    t = _positive_fraction(t, "t")
    disc = t * t - 2
    if disc < 0:
        return set()
    root = _rational_sqrt(disc)
    if root is None:
        return set()
    return {x for x in (t - root, t + root) if x > 0}


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

    Works above the interpreter's int-to-str conversion limit: a bit-length
    estimate is corrected by at most a couple of power-of-ten comparisons.
    """
    n = abs(n)
    if n < 10:
        return 1
    k = n.bit_length() * 30103 // 100000
    while 10**k > n:
        k -= 1
    while 10 ** (k + 1) <= n:
        k += 1
    return k + 1


def correct_digits(t, cap: int = DEFAULT_DIGIT_CAP) -> int:
    """The largest k <= cap with |t - sqrt(2)| < 10**-k, decided exactly.

    Since num**2 - 2*den**2 is a nonzero integer, |t - sqrt(2)| exceeds
    1 / (den * (num + 2*den)), so no level above that bound's digit count k
    can hold.  One root at k, x = num * 10**k - isqrt(2 * (den * 10**k)**2),
    puts the scaled error num * 10**k - den * 10**k * sqrt(2) strictly
    inside (x - 1, x), because sqrt(2) is irrational.  With m = x for x >= 1
    and m = 1 - x otherwise, level j <= k holds exactly when
    m <= den * 10**(k - j).  Returns 0 when not even |t - sqrt(2)| < 1 holds.
    """
    t = _positive_fraction(t, "t")
    _require_int(cap, "cap", 1)
    num, den = t.numerator, t.denominator
    k = min(cap, decimal_digit_count(den * (num + 2 * den)))
    x = num * 10**k - isqrt(2 * (den * 10**k) ** 2)
    m = x if x >= 1 else 1 - x
    # Level j holds exactly when ceil(m / den) <= 10**(k - j).
    m_over_den = -(-m // den)
    if m_over_den == 1:
        return k
    return max(0, k - decimal_digit_count(m_over_den - 1))


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


@dataclass(frozen=True)
class ReportRow:
    step: int
    value: Fraction
    correct_digits: int
    side_of_sqrt2: str

    def fields(self, digits: int) -> tuple[str, ...]:
        """The row as strings, one per column of `_REPORT_COLUMNS`."""
        return (
            str(self.step),
            to_decimal(self.value.numerator),
            to_decimal(self.value.denominator),
            decimal_string(self.value, digits),
            str(self.correct_digits),
            self.side_of_sqrt2,
        )


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-step record of one approximation run: value, digits, side."""

    method: str
    start: Fraction
    rows: tuple[ReportRow, ...]

    def to_csv(self, digits: int = DEFAULT_DECIMAL_DIGITS) -> str:
        lines = [_REPORT_COLUMNS] + [row.fields(digits) for row in self.rows]
        return "\n".join(",".join(line) for line in lines) + "\n"

    def to_json_dict(self, digits: int = DEFAULT_DECIMAL_DIGITS) -> dict:
        return {
            "method": self.method,
            "start": str(self.start),
            "rows": [dict(zip(_REPORT_COLUMNS, row.fields(digits))) for row in self.rows],
        }


_METHOD_STEPS = {
    "babylonian": babylonian_step,
    "side_diameter": sd_ratio_step,
}


def run_method(method: str, start, steps: int, cap: int = DEFAULT_DIGIT_CAP) -> ConvergenceReport:
    """Iterate one method `steps` times from `start`, recording each iterate."""
    if method not in _METHOD_STEPS:
        raise ValueError(f"unknown method {method!r}")
    start = _positive_fraction(start, "start")
    _require_int(steps, "steps", 0)
    advance = _METHOD_STEPS[method]
    rows = []
    value = start
    for i in range(1, steps + 1):
        value = advance(value)
        rows.append(ReportRow(i, value, correct_digits(value, cap), side_of_sqrt2(value)))
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
    sign = "-" if t < 0 else ""
    whole, rem = divmod(abs(t.numerator), t.denominator)
    if digits == 0:
        return sign + to_decimal(whole)
    frac = rem * 10**digits // t.denominator
    return f"{sign}{to_decimal(whole)}.{to_decimal(frac).zfill(digits)}"


# Split parts this small become Decimal(int) directly; measured fastest
# among 1,024-4,096 bits on 10**4- to 2*10**5-digit integers.
_LEAF_BITS = 2_048
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_EXACT.traps[decimal.Inexact] = True


def to_decimal(n: int) -> str:
    """Exactly str(n), in subquadratic time and for ints of any size.

    Small ints go to str().  Larger ones are split recursively at powers of
    two, m = hi * 2**w + lo, and rebuilt as a `decimal.Decimal`, whose big
    products run in libmpdec's number-theoretic transform (Brent and
    Zimmermann, Modern Computer Arithmetic, section 1.7; CPython 3.12's
    _pylong).  The context keeps every digit and traps Inexact, so a
    rounding would raise instead of printing a wrong digit.  Unlike str(),
    this never depends on sys.set_int_max_str_digits.
    """
    if n.bit_length() <= _STR_MAX_BITS:
        return str(n)
    powers = {}

    def power(w: int) -> decimal.Decimal:
        # 2**w, each w computed once; an odd w reuses w - 1 by doubling.
        if w not in powers:
            if w <= _LEAF_BITS:
                powers[w] = decimal.Decimal(1 << w)
            elif w - 1 in powers:
                powers[w] = _EXACT.add(powers[w - 1], powers[w - 1])
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
        raise ValueError(f"value must be positive, got {_shown(t, str)}")
    return t


def _rational_sqrt(q: Fraction) -> Fraction | None:
    root_num = isqrt(q.numerator)
    root_den = isqrt(q.denominator)
    if root_num * root_num == q.numerator and root_den * root_den == q.denominator:
        return Fraction(root_num, root_den)
    return None
