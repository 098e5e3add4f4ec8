"""Symbolic identity catalog, the proportion subtraction lemma, and traces.

The catalog holds the handful of quadratic identities that make the
side/diameter step work, each stored as a pair of canonical polynomials so
that checking an identity is an exact symbolic proof, not a sample check.
`trace_elegant` replays, for one concrete pair, the classical derivation of
the next pair's defining equation from the arithmetic form of Euclid II.10
via the subtraction lemma Euclid V.19.  The trace implements the arithmetic
reading of that derivation; no claim about the original author's intent is
encoded.  Its steps are computed, checked and serialized by private
functions that take any exact number type and render through
`approx.to_decimal`: `trace_elegant` runs them on ints, and the CLI's
`trace` on Decimals under an exact context.
"""

from typing import NamedTuple

from sidediameter import approx
from sidediameter.pairs import SideDiameterPair, _Record, _require_rational, _shown
from sidediameter.polynomials import Poly, symbols

JUSTIFICATIONS = ("II.10", "hypothesis-substitution", "V.19-subtraction", "conclusion")


class NamedIdentity(NamedTuple):
    """A named polynomial identity with a short note on where it comes from."""

    name: str
    lhs: Poly
    rhs: Poly
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

    Construction checks that both sides of every step evaluate to the same
    integer and that the justification tags appear in the canonical order.
    """

    __slots__ = _fields = ("pair", "steps")
    pair: SideDiameterPair
    steps: tuple[TraceStep, ...]

    def __init__(self, pair: SideDiameterPair, steps: tuple[TraceStep, ...]):
        _check_steps(steps)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "steps", steps)

    def conclusion(self) -> TraceStep:
        return self.steps[-1]

    def to_json_dict(self) -> dict:
        """JSON-ready form; integer values as decimal strings (any size)."""
        return _json_dict(self.pair.a, self.pair.d, self.pair.sign, self.steps)

    def pretty(self) -> str:
        """The strings of `to_json_dict`, laid out one step per line."""
        return _laid_out(self.to_json_dict())


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


def _json_dict(a, d, e: int, steps: tuple[TraceStep, ...]) -> dict:
    """The JSON form of a trace of (a, d), each distinct value written once by `to_decimal`.

    Both sides of a checked step are equal, so one string serves both.
    """
    text = {v: approx.to_decimal(v) for v in {a, d, *(s.lhs_value for s in steps)}}
    return {
        "pair": {"a": text[a], "d": text[d], "e": str(e)},
        "steps": [
            {
                "justification": s.justification,
                "lhs_expr": s.lhs_expr,
                "rhs_expr": s.rhs_expr,
                "lhs_value": text[s.lhs_value],
                "rhs_value": text[s.lhs_value],
            }
            for s in steps
        ],
    }


def _laid_out(data: dict) -> str:
    """A trace's JSON form laid out one step per line."""
    pair = data["pair"]
    lines = [f"derivation for pair (a={pair['a']}, d={pair['d']}, e={int(pair['e']):+d})"]
    width = max(len(j) for j in JUSTIFICATIONS) + 2
    for s in data["steps"]:
        tag = f"[{s['justification']}]"
        lines.append(
            f"  {tag:<{width}}  {s['lhs_expr']} = {s['rhs_expr']}"
            f"    ({s['lhs_value']} = {s['rhs_value']})"
        )
    return "\n".join(lines)


def verify_identity(lhs: Poly, rhs: Poly) -> bool:
    """True iff lhs - rhs cancels to the zero polynomial.

    Because both sides are canonical, a True result proves the identity for
    every integer substitution.  Raises VariableMismatchError when the two
    polynomials live over different variable lists.
    """
    return (lhs - rhs).is_zero()


def _build_catalog() -> tuple[NamedIdentity, ...]:
    a, d = symbols("a", "d")
    c, t = symbols("c", "t")
    return (
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
            (2 * a + d) ** 2 - 2 * (a + d) ** 2,
            2 * a**2 - d**2,
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
    )


_CATALOG = _build_catalog()


def identity_catalog() -> list[NamedIdentity]:
    """The built-in identities, every one of which passes `verify_identity`."""
    return list(_CATALOG)


def catalog_by_name() -> dict[str, NamedIdentity]:
    return {ident.name: ident for ident in _CATALOG}


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
    return _subtracts(u, v, x, y, _require_rational(r, "r"))


def _subtracts(u, v, x, y, r) -> bool:
    """`proportion_subtract` on trusted exact numbers of any one type, r included."""
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
    return DerivationTrace(p, _derivation(p.a, p.d, p.sign))


def _derivation(a, d, e: int) -> tuple[TraceStep, ...]:
    """The four checked steps of `trace_elegant` for a pair of any exact number type.

    A Decimal pair needs an exact context (approx._EXACT).  The pair's
    equation d**2 = 2*a**2 + e is checked by `_check_steps`: the
    hypothesis-substitution step balances only when it holds.
    """
    a2, d2 = a * a, d * d
    side, diam = a + d, 2 * a + d
    next_a2, next_d2 = side * side, diam * diam
    double = 2 * (a2 + next_a2)
    plus_e = f"+ {e}" if e > 0 else f"- {-e}"
    minus_e = f"- {e}" if e > 0 else f"+ {-e}"

    # V.19 data: wholes (u + v) and (x + y), parts v and y, remainders u and x.
    u = next_d2 + e
    v = 2 * a2
    x = next_a2
    y = a2
    if not _subtracts(u, v, x, y, 2):
        raise ArithmeticError(f"subtraction lemma failed for the pair ({_shown(a)}, {_shown(d)})")

    text_a, text_d = approx.to_decimal(a), approx.to_decimal(d)
    sq_next_d = f"(2*{text_a}+{text_d})^2"
    sq_d = f"{text_d}^2"
    rhs_sum = f"2*({text_a}^2 + ({text_a}+{text_d})^2)"
    twice_sq_next_a = f"2*({text_a}+{text_d})^2"
    steps = (
        TraceStep(
            "II.10",
            f"{sq_next_d} + {sq_d}",
            rhs_sum,
            next_d2 + d2,
            double,
        ),
        TraceStep(
            "hypothesis-substitution",
            f"({sq_next_d} {plus_e}) + 2*{text_a}^2",
            rhs_sum,
            u + v,
            double,
        ),
        TraceStep(
            "V.19-subtraction",
            f"{sq_next_d} {plus_e}",
            twice_sq_next_a,
            u,
            2 * x,
        ),
        TraceStep(
            "conclusion",
            sq_next_d,
            f"{twice_sq_next_a} {minus_e}",
            next_d2,
            2 * x - e,
        ),
    )
    _check_steps(steps)
    return steps
