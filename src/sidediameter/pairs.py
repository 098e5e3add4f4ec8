"""Side-and-diameter pairs: exact integer pairs (a, d) with d**2 - 2*a**2 = ±1.

The side number a and diameter number d of such a pair are the integer
stand-ins for the side and diagonal of a square, since no integer pair
satisfies d**2 = 2*a**2 exactly.  Starting from the seed (1, 1), the step

    (a, d)  ->  (a + d, 2*a + d)

produces the whole sequence (1, 1), (2, 3), (5, 7), (12, 17), (29, 41), ...
with the sign of d**2 - 2*a**2 alternating between -1 and +1.  Every
operation in this module is pure and exact; there is no floating point.

The degenerate pair (0, 1) also satisfies 1 = 2*0**2 + 1 but is excluded
here: sides are at least 1, which keeps the inverse (descent) step
well-founded and matches the classical presentation that starts at (1, 1).

Every exact number the package prints is rendered by `to_decimal`,
byte-identical to str(): a Decimal by its linear str(), and an int above
about 4,200 digits by divide and conquer through the standard library's
`decimal` module, in subquadratic time and without the interpreter's
int-to-str digit limit.  This module loads no `fractions`, so the verbs that
print only pairs never load it.
"""

import decimal
import sys
from itertools import islice
from typing import Iterator, NamedTuple

# `approx`'s default digit cap and decimal places, stated here so that the CLI's parser needs no `approx`.
DEFAULT_DIGIT_CAP = 50
DEFAULT_DECIMAL_DIGITS = 30
_STR_MAX_BITS = 14_000  # at most 4,215 digits: str() below CPython's default 4,300-digit limit
_PRIME = 2**61 - 1  # a Mersenne prime: a residue modulo it checks a huge value in one linear pass


class InvalidPairError(ValueError):
    """Raised when integers (a, d) do not form a valid side/diameter pair."""


class DescentBelowSeedError(ValueError):
    """Raised when the descent step is applied to the seed pair (1, 1)."""


class _Record:
    """Base of the immutable values that check themselves on construction.

    A subclass names its fields in `_fields`, keeps them in `__slots__` and
    sets each once with object.__setattr__.  Equality, hash, repr, copy and
    pickle follow from the fields alone, as for a frozen dataclass; a copy
    or an unpickled value goes through the constructor, so it is checked
    again.
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class SideDiameterPair(_Record):
    """A side number, a diameter number, and optionally their 1-based index.

    Invariants, checked on construction: a, d and the index are plain ints
    (not bool, float or Fraction), a >= 1, d >= 1, d**2 - 2*a**2 is -1 or
    +1, and when the index n is known the sign equals (-1)**n.
    Coprimality of a and d follows from the sign condition, since any
    common divisor would divide d**2 - 2*a**2 = ±1.
    """

    __slots__ = ("a", "d", "index", "_sign")
    _fields = ("a", "d", "index")
    a: int
    d: int
    index: int | None

    def __init__(self, a: int, d: int, index: int | None = None):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "index", index)
        self.__post_init__()

    def __post_init__(self):
        if not (type(self.a) is int and type(self.d) is int
                and (self.index is None or type(self.index) is int)):
            raise InvalidPairError(
                f"side, diameter and index must be plain ints, got ({_shown(self.a)}, "
                f"{_shown(self.d)}, index={_shown(self.index)})"
            )
        # Not a field, so ==, hash and repr are unchanged.
        object.__setattr__(self, "_sign", _pell_sign(self.a, self.d, self.index))

    @property
    def sign(self) -> int:
        """The value d**2 - 2*a**2, always -1 or +1, kept from construction."""
        return self._sign


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


def _stepped(a: int, d: int, index: int | None, sign: int) -> SideDiameterPair:
    """A pair made by the recurrence, built without the squaring check.

    Only for (a, d) reached by `step` or `descend` from a checked pair, with
    that pair's sign negated, or by `_walk` from the seed, with sign
    (-1)**index: the `elegant_core` and `descent_core` identities, which
    `verify --all` proves, give d**2 - 2*a**2 = sign exactly.  Or for the
    result of `_nth_checked(index)`, with sign (-1)**index.
    """
    p = object.__new__(SideDiameterPair)
    object.__setattr__(p, "a", a)
    object.__setattr__(p, "d", d)
    object.__setattr__(p, "index", index)
    object.__setattr__(p, "_sign", sign)
    return p


class PlatoReport(NamedTuple):
    """Gaps between N = d**2 - 1 and the two squares sitting just above it."""

    number: int
    below_rational_square: int
    below_irrational_square: int
    sign: int


class IdentityCheck(NamedTuple):
    lhs: int
    rhs: int
    holds: bool


def seed() -> SideDiameterPair:
    """The first pair (1, 1), with index 1 and sign -1."""
    return SideDiameterPair(1, 1, index=1)


def step(p: SideDiameterPair) -> SideDiameterPair:
    """Advance one pair to the next: (a, d) -> (a + d, 2*a + d).

    The diameter added to the side becomes the next side; the side taken
    twice plus the diameter becomes the next diameter.  The sign of
    d**2 - 2*a**2 is negated, and the index (when known) increments.
    """
    return _stepped(p.a + p.d, 2 * p.a + p.d, None if p.index is None else p.index + 1, -p._sign)


def descend(p: SideDiameterPair) -> SideDiameterPair:
    """Invert `step`: (a, d) -> (d - a, 2*a - d).

    Repeated descent from any pair reaches the seed; descending the seed
    itself would produce a zero side and raises DescentBelowSeedError.
    The same map sends a hypothetical solution of d**2 = 2*a**2 to a
    strictly smaller one, which is the classical descent argument for the
    irrationality of the square root of 2.
    """
    if p.d <= p.a:
        raise DescentBelowSeedError("cannot descend below the seed pair (1, 1)")
    index = None if p.index is None else p.index - 1
    if index == 0:
        # Only a pair indexed 1 by hand, such as (5, 7, index=1), gets here.
        raise InvalidPairError("index must be >= 1, got 0")
    return _stepped(p.d - p.a, 2 * p.a - p.d, index, -p._sign)


def nth_iterative(n: int) -> SideDiameterPair:
    """The n-th pair by applying `step` n - 1 times to the seed.

    Linear in n; serves as the independent oracle for the fast `nth`.
    """
    _require_int(n, "n", 1)
    a, d = next(islice(_walk(), n - 1, None))
    return SideDiameterPair(a, d, index=n)


def nth(n: int) -> SideDiameterPair:
    """The n-th pair in O(log n) big-integer operations.

    Uses the doubling identities

        a(2m) = 2 * a(m) * d(m)        d(2m) = d(m)**2 + 2 * a(m)**2 = 2 * d(m)**2 - (-1)**m

    which are the n = m case of the addition law a(m+n) = a(m)d(n) + d(m)a(n),
    d(m+n) = d(m)d(n) + 2 a(m)a(n); the last form uses d(m)**2 - 2*a(m)**2 =
    (-1)**m.  `_nth_checked` checks the pair at half size.  Agrees with
    `nth_iterative` everywhere.
    """
    _require_int(n, "n", 1)
    a, d = _nth_checked(n)
    return _stepped(a, d, n, -1 if n % 2 else 1)


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
    """Level n from (a, d) at m = n >> 1 and dd = d*d: a(2m) = 2*a*d, d(2m) = 2*dd - (-1)**m, then a step if n is odd."""
    a, d = 2 * (a * d), 2 * dd - (-1 if n & 2 else 1)
    if n & 1:
        a, d = a + d, 2 * a + d
    return a, d


def generate(count: int) -> list[SideDiameterPair]:
    """The first `count` pairs, each carrying its index."""
    _require_int(count, "count", 1)
    return [_stepped(a, d, i, -1 if i % 2 else 1)
            for i, (a, d) in enumerate(islice(_walk(), count), 1)]


def _walk() -> Iterator[tuple[int, int]]:
    """The components (a, d) of every pair in order, from the seed on."""
    a, d = 1, 1
    while True:
        yield a, d
        a, d = a + d, 2 * a + d


def adjacent_rational_diameter(a: int) -> int | None:
    """The integer d with |d**2 - 2*a**2| = 1, or None if a is not a side number.

    Such a d is the rational diameter adjacent to the irrational diameter
    a*sqrt(2); it exists exactly when a appears as a side in the sequence,
    and is then unique.  Implemented by walking the sequence until the side
    reaches a, so no second numeric code path is involved.
    """
    _require_int(a, "a", 1)
    for side, diam in _walk():
        if side >= a:
            return diam if side == a else None


def plato_check(a: int, d: int) -> PlatoReport:
    """Gaps from N = d**2 - 1 up to the rational and irrational diameter squares.

    For a valid pair, N falls short of d**2 by exactly one and of 2*a**2 by
    two when the sign is -1 (the classical a = 5, d = 7, N = 48 case) but by
    zero when the sign is +1, so the sign is reported alongside the gaps.
    """
    sign = SideDiameterPair(a, d).sign
    n = d * d - 1
    return PlatoReport(n, d * d - n, 2 * a * a - n, sign)


def encouraging_identity_check(p: SideDiameterPair) -> IdentityCheck:
    """Evaluate d**2 + d'**2 against 2*(a**2 + a'**2) for p and its successor.

    The two sides agree for every pair (the sum of two consecutive diameter
    squares is double the sum of the side squares); both values are returned
    for display along with the comparison.
    """
    nxt = step(p)
    lhs = p.d * p.d + nxt.d * nxt.d
    rhs = 2 * (p.a * p.a + nxt.a * nxt.a)
    return IdentityCheck(lhs, rhs, lhs == rhs)


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
