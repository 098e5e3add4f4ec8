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

The exact-number kernel, with `to_decimal`, the pair check and the doubling
core, lives in `_exact`; this module re-exports its names.
"""

from itertools import islice
from typing import Iterator, NamedTuple

from sidediameter._exact import (_EXACT, _LEAF_BITS, _PRIME, _STR_MAX_BITS, DEFAULT_DECIMAL_DIGITS,  # noqa: F401
                                 DEFAULT_DIGIT_CAP, InvalidPairError, _doubled, _nth_checked, _nth_components,
                                 _pell_sign, _positive_fraction, _require_int, _require_rational, _shown,
                                 to_decimal)


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
