"""The exact-number kernel: the pair check, the Pell-state maps, the doubling core, the argument checks and the renderer.

`pairs` builds its public pair API on this module.  The CLI,
`approx` and `_steps` import this module, not `pairs`, so `nth`, `gen`,
`compare` and `approx` never compile the pair records or the oracles: with
no bytecode cache, every command compiles the modules it loads.

Every exact number the package prints is rendered by `to_decimal`,
byte-identical to str(): a Decimal by its linear str(), and an int above
about 4,200 digits by divide and conquer through the standard library's
`decimal` module, in subquadratic time and without the interpreter's
int-to-str digit limit.  This module loads no `fractions`, so the verbs that
print only pairs never load it.
"""

import decimal
import sys

# `approx`'s default digit cap and decimal places, stated here so that the CLI's parser needs no `approx`.
DEFAULT_DIGIT_CAP = 50
DEFAULT_DECIMAL_DIGITS = 30
_STR_MAX_BITS = 14_000  # at most 4,215 digits: str() below CPython's default 4,300-digit limit
_PRIME = 2**61 - 1  # a Mersenne prime: a residue modulo it checks a huge value in one linear pass


class InvalidPairError(ValueError):
    """Raised when integers (a, d) do not form a valid side/diameter pair."""


def _pell_sign(a, d, index=None, squares=None) -> int:
    """d**2 - 2*a**2 of the side/diameter pair (a, d), -1 or +1; else InvalidPairError.

    Takes ints, or integral Decimals under `_EXACT`.  Sides must be >= 1,
    and a given index must be >= 1 with sign (-1)**index.  `squares`, when
    given, is (a*a, d*d), already formed by the caller.
    """
    if a < 1 or d < 1:
        raise InvalidPairError(f"side and diameter must be >= 1, got ({_shown(a, str)}, {_shown(d, str)})")
    aa, dd = squares or (a * a, d * d)
    e = dd - 2 * aa
    if e not in (-1, 1):
        at = "" if index is None else f" at index {_shown(index, str)}"
        raise InvalidPairError(
            f"({_shown(a, str)}, {_shown(d, str)}) is not a side/diameter pair{at}: "
            f"d^2 - 2a^2 = {_shown(e, str)}, expected -1 or +1"
        )
    if index is not None:
        if index < 1:
            raise InvalidPairError(f"index must be >= 1, got {_shown(index, str)}")
        if e != (-1 if index % 2 else 1):
            raise InvalidPairError(f"index {_shown(index, str)} inconsistent with sign {int(e):+d}")
    return int(e)


def _nth_checked(n: int, one=1):
    """`_nth_components(n, one)`, checked with no square of full size; else InvalidPairError.

    The last doubling reuses d*d of level m = n >> 1, so one more square a*a
    checks d**2 - 2*a**2 = (-1)**m there exactly; (d**2 + 2a**2)**2 - 2*(2ad)**2
    = (d**2 - 2a**2)**2 makes level 2m a pair, and the odd step keeps it one.
    A residue modulo `_PRIME` guards the code of the last doubling.  On a
    mismatch, `_pell_sign` checks level n in full and names index n.
    """
    a, d = _nth_components(n >> 1, one)
    dd = d * d
    exact = dd - 2 * (a * a) == (-1 if n >> 1 & 1 else 1)
    a, d = _doubled(a, d, dd, n)
    r, s = int(a % _PRIME), int(d % _PRIME)
    if not (exact and min(a, d) >= 1 and (s * s - 2 * r * r - (-1 if n & 1 else 1)) % _PRIME == 0):
        _pell_sign(a, d, n)
    return a, d


def _nth_components(n: int, one=1):
    """(a, d) of the n-th pair, built from level 0, (0, one).

    `one` fixes the number type: 1 gives ints, decimal.Decimal(1) gives
    Decimals, which are exact only under a context that traps Inexact
    (`_EXACT`).  Each level n doubles m = n >> 1 with one product and
    one square (`_doubled`).  Nothing is checked here: `_nth_checked` checks
    the level below the last.
    """
    if n < 2:
        return n * one, one
    a, d = _nth_components(n >> 1, one)
    return _doubled(a, d, d * d, n)


def _doubled(a, d, dd, n: int):
    """Level n from (a, d) at m = n >> 1 and dd = d*d: the doubling of pair m's state, then a step if n is odd."""
    d, a, e = _pell_doubling(d, a, -1 if n & 2 else 1, dd)
    if n & 1:
        d, a, e = _pell_step(d, a, e)
    return a, d


def _pell_step(p, q, n):
    """Proclus' step on the Pell state (p, q, N) = (d, a, d**2 - 2*a**2), of ints or integral Decimals under `_EXACT`.

    (p + 2q, p + q, -N) is p + q*sqrt(2) times 1 + sqrt(2): pair m goes to
    pair m + 1, and p/q to (2 + p/q) / (1 + p/q) in lowest terms, since
    gcd(p + 2q, p + q) = gcd(p, q).
    """
    return p + 2 * q, p + q, -n


def _pell_doubling(p, q, n, pp=None):
    """Heron's averaging on the Pell state: (2p**2 - N, 2pq, N**2), halved when p is even; pp is p*p if known.

    It squares p + q*sqrt(2), as 2p**2 - N = p**2 + 2q**2: pair m goes to
    pair 2m, and p/q to (p/q + 2q/p) / 2.  The two share only a 2, and only
    when the old p was even; halving leaves p odd, so that happens on the
    first step at most.  `% 2` reads a 10**6-digit Decimal in 0.3 ms.
    """
    p, q, n = 2 * (p * p if pp is None else pp) - n, 2 * (p * q), n * n
    if p % 2:
        return p, q, n
    return p // 2, q // 2, n // 4


def _require_int(n, name: str, minimum: int) -> None:
    """Refuse anything but a plain int >= minimum (bools and int subclasses too)."""
    if type(n) is not int:
        raise ValueError(f"{name} must be an integer, got {_shown(n)}")
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {_shown(n)}")


def _require_rational(t, name: str) -> "Fraction":
    """t as a Fraction; only a plain int or Fraction is accepted, never a float."""
    from fractions import Fraction

    if type(t) is not Fraction and type(t) is not int:
        raise ValueError(f"{name} must be an int or Fraction, got {_shown(t)}")
    return t if type(t) is Fraction else Fraction(t)


def _positive_fraction(t, name: str) -> "Fraction":
    t = _require_rational(t, name)
    if t <= 0:
        raise ValueError(f"{name} must be positive, got {_shown(t, str)}")
    return t


def _shown(v, form=repr) -> str:
    """form(v) for a message; an int or Decimal of at least 2**_STR_MAX_BITS in size, or such ints in a Fraction, show their size.

    One rule for both types, so an int and the equal Decimal are shown alike.
    """
    # A Fraction exists only once `fractions` is loaded, so its type is looked up, not imported.
    fraction = getattr(sys.modules.get("fractions"), "Fraction", None)
    if type(v) is fraction and max(v.numerator.bit_length(), v.denominator.bit_length()) > _STR_MAX_BITS:
        return f"{_shown(v.numerator)}/{_shown(v.denominator)}"
    if isinstance(v, int) and v.bit_length() > _STR_MAX_BITS:
        return f"{'-' if v < 0 else ''}<int of {v.bit_length()} bits>"
    if isinstance(v, decimal.Decimal) and v.is_finite() and v.copy_abs() >= 2**_STR_MAX_BITS:
        return f"{'-' if v < 0 else ''}<Decimal of {v.adjusted() + 1} digits>"
    return form(v)


# Split parts this small become Decimal(int) directly; measured fastest
# among 1,024-4,096 bits on 10**4- to 2*10**5-digit integers.
_LEAF_BITS = 2_048
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_EXACT.traps[decimal.Inexact] = True


def to_decimal(n: "int | Fraction | decimal.Decimal") -> str:
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
    if isinstance(n, int):
        if n.bit_length() <= _STR_MAX_BITS:
            return str(n)
    elif isinstance(n, decimal.Decimal):
        return str(n)
    else:
        num = to_decimal(n.numerator)
        return num if n.denominator == 1 else f"{num}/{to_decimal(n.denominator)}"
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
