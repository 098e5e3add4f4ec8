"""The number-generic stepper, digit kernel and row serializer behind `approx`, `gen` and `compare`.

`approx` builds its `Fraction` API on this module.  `_tables`
imports this module, not `approx`, so `gen` loads neither `approx` nor
`fractions`: with no bytecode cache, every command compiles the modules it
loads.  It imports `_exact` alone, and is not part of it, because `nth` and
`trace` load `_exact` and step nothing.

The rows step the reduced integer state (p, q, N) with N = p**2 - 2*q**2,
the residual of a side/diameter pair, by `_exact`'s two Pell-state maps:
the ratio step is the pair step `_pell_step`, so from 1, step n is pair
n + 1 as d/a with sign N, and the CLI's `gen` prints these rows; the
averaging step is the pair doubling `_pell_doubling`, and `_rows` alone
reduces a state to lowest terms.  Each row reads its side from the sign of N
and its digit count from |N|, and `_cells` prints it from p and q.
Everything here takes ints, as `approx.run_method` does, or integral
Decimals under `_EXACT`, as the CLI's `gen` and `compare` do, and every value
it makes stays integral.  The int branches serve the library and the tests'
oracle alone.
"""

from sidediameter._exact import _pell_doubling, _pell_step, to_decimal

_REPORT_COLUMNS = ("step", "value_num", "value_den", "decimal_value", "correct_digits", "side")
_METHOD_STEPS = {"babylonian": _pell_doubling, "side_diameter": _pell_step}


def _rows(method: str, p, q, steps: int, cap: int):
    """`run_method`'s rows from the checked start p/q, of ints or of integral Decimals under `_EXACT`,
    as (step, p, q, correct digits, side), p/q coprime, one at a time."""
    advance = _METHOD_STEPS[method]
    n = p * p - 2 * q * q
    for i in range(1, steps + 1):
        p, q, n = advance(p, q, n)
        if i == 1 and p % 2 == q % 2 == 0:  # only Heron's step from an even p leaves a shared 2; p stays odd
            p, q, n = p // 2, q // 2, n // 4
        yield i, p, q, _correct_digits(p, q, abs(n), cap), "under" if n < 0 else "over"


def _correct_digits(num, den, n, cap: int) -> int:
    """`correct_digits(num/den, cap)` for trusted ints, or integral Decimals under `_EXACT`,
    with the Pell residual n = |num**2 - 2*den**2| already known.

    A row whose answer is at least cap is settled from sizes alone, with no
    den * num and no den**4.  On ints, level cap holds when bitlen(n) +
    bitlen(10**cap) < bitlen(den) + bitlen(num): then n * 10**cap <
    2**(bitlen(den) + bitlen(num) - 1) <= 2 * den * num, and a failing level
    would need num/den within 2 * 10**-cap above sqrt(2) with den and num
    both within 7% above a power of two, whose ratio is near a power of two.
    On Decimals, it holds when adj(n) + cap < adj(den) + adj(num), which
    gives n * 10**cap < den * num.  Otherwise the walk starts at the bound
    of the same kind: bit lengths as in `correct_digits`, at most two levels
    above the answer, or adj(den) + adj(num + 2*den) + 1 - adj(n).  That one
    rounds three sizes to powers of ten, so it is at most three above the
    answer; measured on 778,401 ratios (every num < 1200 over den < 400, and
    large ones near and far from sqrt(2)), it is never more than two above.
    """
    if isinstance(n, int):
        j = (den.bit_length() + (num + 2 * den).bit_length() - n.bit_length() + 1) * 30103 // 100000
        # `cap <= j` first, so that a huge cap builds no 10**cap; the size test implies it.
        if cap <= j and n.bit_length() + (10**cap).bit_length() < den.bit_length() + num.bit_length():
            return cap
    else:
        j = den.adjusted() + (num + 2 * den).adjusted() + 1 - n.adjusted()
        if n.adjusted() + cap < den.adjusted() + num.adjusted():
            return cap
    j = min(cap, j)
    den_num = den * num
    while j > 0:
        excess = _shifted(n, j) - den_num
        if excess <= 0 or excess * excess < 2 * den**4:
            return j
        j -= 1
    return 0


def _shifted(x, places: int):
    """x * 10**places, exactly: an int product, or an integral Decimal's exponent raised under `_EXACT`."""
    return x * 10**places if isinstance(x, int) else x.scaleb(places)


def _cells(step: int, num, den, correct: int, side: str, places: int) -> tuple[str, ...]:
    """The strings of the row of value num/den, one per column of `_REPORT_COLUMNS`; trusts its arguments."""
    return (str(step), to_decimal(num), to_decimal(den), _decimal_string(num, den, places), str(correct), side)


def _decimal_string(num, den, digits: int) -> str:
    """`decimal_string(Fraction(num, den), digits)` for trusted ints, or integral Decimals under `_EXACT`, den > 0.

    On Decimals the remainder is shifted by its exponent, and the integer
    division gives a quotient of exponent 0, which linear str() prints.
    """
    sign = "-" if num < 0 else ""
    whole, rem = divmod(abs(num), den)
    if digits == 0:
        return sign + to_decimal(whole)
    frac = _shifted(rem, digits) // den
    return f"{sign}{to_decimal(whole)}.{to_decimal(frac).zfill(digits)}"
