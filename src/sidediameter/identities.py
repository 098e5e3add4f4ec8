"""Symbolic identity catalog, the proportion subtraction lemma, and traces.

The catalog holds the handful of quadratic identities that make the
side/diameter step work, each stored as a pair of canonical polynomials so
that checking an identity is an exact symbolic proof, not a sample check.
`trace_elegant` replays, for one concrete pair, the classical derivation of
the next pair's defining equation from the arithmetic form of Euclid II.10
via the subtraction lemma Euclid V.19.  The trace implements the arithmetic
reading of that derivation; no claim about the original author's intent is
encoded.  `_STEPS` states its four steps once, each a justification and two
sides as printed.  One private core checks the steps' values for any exact
number type and renders each distinct value once; `trace_elegant` hands its
steps and text to the `DerivationTrace` it returns, and the CLI's `trace` runs
it on Decimals under an exact context.  One private document and one private
layout give `to_json_dict()` and the CLI's JSON, and `pretty()` and
`--pretty`, from the text that a `DerivationTrace` holds from construction.
"""

import re
from collections.abc import Iterator
from typing import NamedTuple

from sidediameter._exact import _pell_sign, _pell_step, _require_int, _require_rational, _shown, to_decimal
from sidediameter.pairs import SideDiameterPair, _Record

# The derivation, one row per step: its justification and its two sides as printed.  A and D
# stand for the pair's a and d, +e for its sign e added and -e for e taken away.
_STEPS = (
    ("II.10", "(2*A+D)^2 + D^2", "2*(A^2 + (A+D)^2)"),
    ("hypothesis-substitution", "((2*A+D)^2 +e) + 2*A^2", "2*(A^2 + (A+D)^2)"),
    ("V.19-subtraction", "(2*A+D)^2 +e", "2*(A+D)^2"),
    ("conclusion", "(2*A+D)^2", "2*(A+D)^2 -e"),
)
JUSTIFICATIONS = tuple(step[0] for step in _STEPS)


class NamedIdentity(NamedTuple):
    """A named polynomial identity with a short note on where it comes from."""

    name: str
    lhs: "Poly"
    rhs: "Poly"
    source: str

    def holds(self) -> bool:
        return verify_identity(self.lhs, self.rhs)


class TraceStep(NamedTuple):
    justification: str
    lhs_expr: str
    rhs_expr: str
    lhs_value: int
    rhs_value: int


class DerivationTrace(_Record):
    """An ordered list of justified equalities for one concrete pair.

    Construction checks the tags' order, each step's balance on positive plain
    ints and the pair's type, then renders each distinct value once.
    """

    __slots__ = ("pair", "steps", "_text")
    _fields = ("pair", "steps")
    pair: SideDiameterPair
    steps: tuple[TraceStep, ...]

    def __init__(self, pair: SideDiameterPair, steps: tuple[TraceStep, ...]):
        _check_steps(steps)
        if not isinstance(pair, SideDiameterPair):
            raise ValueError(f"pair must be a SideDiameterPair, got {_shown(pair)}")
        for s in steps:
            _require_int(s.lhs_value, f"lhs_value of step {s.justification}", 1)
            _require_int(s.rhs_value, f"rhs_value of step {s.justification}", 1)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "steps", steps)
        values = {pair.a, pair.d, *(s.lhs_value for s in steps)}
        object.__setattr__(self, "_text", {v: to_decimal(v) for v in values})

    def conclusion(self) -> TraceStep:
        return self.steps[-1]

    def to_json_dict(self) -> dict:
        """JSON-ready form; integer values as decimal strings (any size)."""
        return _trace_document(self._text, self.pair.a, self.pair.d, self.pair.sign, self.steps)

    def pretty(self) -> str:
        """The strings of `to_json_dict`, laid out one step per line."""
        p = self.pair
        steps = [s._replace(lhs_expr=(s.lhs_expr,), rhs_expr=(s.rhs_expr,)) for s in self.steps]
        return "".join(_pretty_laid_out(self._text, p.a, p.d, p.sign, steps))


def _check_steps(steps: tuple[TraceStep, ...]) -> None:
    """Refuse steps out of the canonical order or with two unequal sides."""
    tags = tuple(s.justification for s in steps)
    if tags != JUSTIFICATIONS:
        raise ValueError(f"unexpected justification sequence {tags!r}")
    for s in steps:
        if s.lhs_value != s.rhs_value:
            raise ValueError(
                f"unbalanced step {s.justification}: {_shown(s.lhs_value)} != {_shown(s.rhs_value)}"
            )


def _trace_document(text: dict, a, d, e: int, steps) -> dict:
    """The trace as a JSON document, from the text of `_derivation` and its pair (a, d, e):
    `to_json_dict()`, and with expressions that are tuples of pieces, the `trace` verb's."""
    return {
        "pair": {"a": text[a], "d": text[d], "e": str(e)},
        "steps": [{**s._asdict(), "lhs_value": text[s.lhs_value], "rhs_value": text[s.lhs_value]} for s in steps],
    }


def _pretty_laid_out(text: dict, a, d, e: int, steps) -> Iterator[str]:
    """`DerivationTrace.pretty()` in pieces, without its final line end: the pair's line, then one line per step."""
    yield from ("derivation for pair (a=", text[a], ", d=", text[d], f", e={e:+d})")
    width = max(len(j) for j in JUSTIFICATIONS) + 2
    for s in steps:
        value = text[s.lhs_value]
        yield f"\n  {f'[{s.justification}]':<{width}}  "
        yield from s.lhs_expr
        yield " = "
        yield from s.rhs_expr
        yield from ("    (", value, " = ", value, ")")


def verify_identity(lhs: "Poly", rhs: "Poly") -> bool:
    """True iff lhs - rhs cancels to the zero polynomial.

    Because both sides are canonical, a True result proves the identity for
    every integer substitution.  Raises VariableMismatchError when the two
    polynomials live over different variable lists.
    """
    return (lhs - rhs).is_zero()


def identity_catalog() -> list[NamedIdentity]:
    """The built-in identities, every one of which passes `verify_identity`; built on each call."""
    from sidediameter.polynomials import symbols  # loaded only when a catalog is built

    a, d = symbols("a", "d")
    c, t = symbols("c", "t")
    # `elegant_core` is the step that the package computes, run on the symbolic Pell state.
    p, q, n = _pell_step(d, a, d**2 - 2 * a**2)
    return [
        NamedIdentity(
            "euclid_II_10",
            (2 * a + d) ** 2 + d**2,
            2 * (a**2 + (a + d) ** 2),
            "Euclid, Elements II.10, read arithmetically over Z[a, d]",
        ),
        NamedIdentity(
            "euclid_II_9",
            (c + t) ** 2 + (c - t) ** 2,
            2 * (c**2 + t**2),
            "Euclid, Elements II.9, read arithmetically (half c, offset t)",
        ),
        NamedIdentity(
            "elegant_core",
            p**2 - 2 * q**2,
            n,
            "how d^2 - 2a^2 propagates (negated) under the step (a,d) -> (a+d, 2a+d)",
        ),
        NamedIdentity(
            "encouraging",
            d**2 + (2 * a + d) ** 2,
            2 * (a**2 + (a + d) ** 2),
            "consecutive diameter squares are double the side squares "
            "(Theon of Smyrna, Iamblichus)",
        ),
        NamedIdentity(
            "descent_core",
            (2 * a - d) ** 2 - 2 * (d - a) ** 2,
            2 * a**2 - d**2,
            "how d^2 - 2a^2 propagates under the inverse step (a,d) -> (d-a, 2a-d); "
            "drives the descent proof that sqrt(2) is irrational",
        ),
    ]


def catalog_by_name() -> dict[str, NamedIdentity]:
    """`identity_catalog()` keyed by name, in catalog order."""
    return {ident.name: ident for ident in identity_catalog()}


def proportion_subtract(u: int, v: int, x: int, y: int, r) -> bool:
    """The subtraction lemma on exact ratios (Euclid V.19).

    If the wholes satisfy (u + v) : (x + y) = r and the parts satisfy
    v : y = r, then the remainders satisfy u : x = r.  Returns the truth of
    that implication, computed in exact rational arithmetic: True when the
    premises force the conclusion, and vacuously True when the premises do
    not both hold.  The integer-ratio variant (Euclid VII.11) is the same
    computation restricted to integer inputs, so it shares this code path.
    """
    for name, value in zip("uvxy", (u, v, x, y)):
        _require_rational(value, name)
    if x == 0 or y == 0 or x + y == 0:
        raise ZeroDivisionError(
            f"proportion with zero denominator: x={_shown(x, str)}, y={_shown(y, str)}, "
            f"x+y={_shown(x + y, str)}"
        )
    r = _require_rational(r, "r")
    premises = (u + v == r * (x + y)) and (v == r * y)
    return not premises or u == r * x


def trace_elegant(p: SideDiameterPair) -> DerivationTrace:
    """Replay the derivation of the next pair's equation for a concrete pair.

    With e = d**2 - 2*a**2, the four steps instantiate the arithmetic
    Euclid II.10, substitute the pair's own equation d**2 = 2*a**2 + e with
    the e carried on the other square, cancel the doubled part via the
    Euclid V.19 subtraction lemma, and conclude
    (2a+d)**2 = 2*(a+d)**2 - e, i.e. the next pair's equation with the
    opposite sign.
    """
    text, steps, _ = _derivation(p.a, p.d, p.sign)
    trace = object.__new__(DerivationTrace)  # as `pairs._stepped`: `_derivation` checked and rendered the steps
    object.__setattr__(trace, "pair", p)
    object.__setattr__(trace, "steps", tuple(
        s._replace(lhs_expr="".join(s.lhs_expr), rhs_expr="".join(s.rhs_expr)) for s in steps))
    object.__setattr__(trace, "_text", text)
    return trace


def _derivation(a, d, e: int | None) -> tuple[dict, tuple[TraceStep, ...], int]:
    """The text, the four checked steps and the sign e of `trace_elegant` for a pair of any exact number type.

    A Decimal pair needs an exact context (`_exact._EXACT`).  With e None, the
    pair comes from outside and `_exact._pell_sign` checks it and reads e.  Each expression
    is a tuple of pieces that refer to one string for a and one for d.  The
    dict maps a, d and each step value to its decimal text: each distinct
    value is rendered once by `to_decimal`, the step values after the
    check, when only the three distinct ones are still held.
    """
    text = {v: to_decimal(v) for v in {a, d}}
    steps, e = _checked_steps(a, d, e, text[a], text[d])
    text.update({v: to_decimal(v) for v in {s.lhs_value for s in steps} if v not in text})
    return text, steps, e


def _checked_steps(a, d, e: int | None, text_a: str, text_d: str) -> tuple[tuple[TraceStep, ...], int]:
    """The steps of `_derivation`, checked by `_check_steps`, with one value object per step, and e.

    The hypothesis-substitution step balances only when the pair's equation
    d**2 = 2*a**2 + e holds, and the V.19-subtraction step only when the
    remainder u equals 2*(a+d)**2.  Each side of `_STEPS` becomes a tuple of
    pieces in which A and D are the strings text_a and text_d.  With e None,
    `_pell_sign` reads e from the squares that the steps use.
    """
    a2, d2 = a * a, d * d
    if e is None:
        e = _pell_sign(a, d, squares=(a2, d2))
    side, diam = a + d, 2 * a + d
    next_a2, next_d2 = side * side, diam * diam
    double = 2 * (a2 + next_a2)

    # V.19 with ratio 2: from the whole u + v take the part v = 2*a^2; the remainder is u.
    u, v = next_d2 + e, 2 * a2
    values = ((next_d2 + d2, double), (u + v, double), (u, 2 * next_a2), (next_d2, 2 * next_a2 - e))

    words = {"A": text_a, "D": text_d,
             "+e": f"+ {e}" if e > 0 else f"- {-e}", "-e": f"- {e}" if e > 0 else f"+ {-e}"}

    def pieces(printed: str) -> tuple[str, ...]:
        return tuple(words.get(w, w) for w in re.split(r"(A|D|[+-]e)", printed))

    steps = tuple(TraceStep(tag, pieces(lhs), pieces(rhs), *pair)
                  for (tag, lhs, rhs), pair in zip(_STEPS, values))
    _check_steps(steps)
    # The two sides are equal: keep the right-hand one, which the first two steps share.
    return tuple(s._replace(lhs_value=s.rhs_value) for s in steps), e
