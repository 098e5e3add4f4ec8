"""Symbolic identity catalog, the proportion subtraction lemma, and traces.

The catalog holds the handful of quadratic identities that make the
side/diameter step work, each stored as a pair of canonical polynomials so
that checking an identity is an exact symbolic proof, not a sample check.
`trace_elegant` replays, for one concrete pair, the classical derivation of
the next pair's defining equation from the arithmetic form of Euclid II.10
via the subtraction lemma Euclid V.19.  The trace implements the arithmetic
reading of that derivation; no claim about the original author's intent is
encoded.
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
        tags = tuple(s.justification for s in steps)
        if tags != JUSTIFICATIONS:
            raise ValueError(f"unexpected justification sequence {tags!r}")
        for s in steps:
            if s.lhs_value != s.rhs_value:
                raise ValueError(
                    f"unbalanced step {s.justification}: {_shown(s.lhs_value)} != {_shown(s.rhs_value)}"
                )
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "steps", steps)

    def conclusion(self) -> TraceStep:
        return self.steps[-1]

    def to_json_dict(self) -> dict:
        """JSON-ready form; integer values as decimal strings (any size).

        Each distinct integer, a, d and the step values alike, is rendered
        once: both sides of a step are equal (checked on construction), so
        one string serves both.
        """
        p = self.pair
        text = {v: approx.to_decimal(v) for v in {p.a, p.d, *(s.lhs_value for s in self.steps)}}
        return {
            "pair": {"a": text[p.a], "d": text[p.d], "e": str(p.sign)},
            "steps": [
                {
                    "justification": s.justification,
                    "lhs_expr": s.lhs_expr,
                    "rhs_expr": s.rhs_expr,
                    "lhs_value": text[s.lhs_value],
                    "rhs_value": text[s.lhs_value],
                }
                for s in self.steps
            ],
        }

    def pretty(self) -> str:
        """The strings of `to_json_dict`, laid out one step per line."""
        data = self.to_json_dict()
        pair = data["pair"]
        lines = [f"derivation for pair (a={pair['a']}, d={pair['d']}, e={self.pair.sign:+d})"]
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
    ratio = _require_rational(r, "r")
    premises = (u + v == ratio * (x + y)) and (v == ratio * y)
    if not premises:
        return True
    return u == ratio * x


def trace_elegant(p: SideDiameterPair) -> DerivationTrace:
    """Replay the derivation of the next pair's equation for a concrete pair.

    With e = d**2 - 2*a**2, the four steps instantiate the arithmetic
    Euclid II.10, substitute the pair's own equation d**2 = 2*a**2 + e with
    the e carried on the other square, cancel the doubled part via the
    Euclid V.19 subtraction lemma, and conclude
    (2a+d)**2 = 2*(a+d)**2 - e, i.e. the next pair's equation with the
    opposite sign.
    """
    a, d, e = p.a, p.d, p.sign
    a2, d2, next_a2, next_d2 = a * a, d * d, (a + d) ** 2, (2 * a + d) ** 2
    double = 2 * (a2 + next_a2)
    plus_e = f"+ {e}" if e > 0 else f"- {-e}"
    minus_e = f"- {e}" if e > 0 else f"+ {-e}"

    # V.19 data: wholes (u + v) and (x + y), parts v and y, remainders u and x.
    u = next_d2 + e
    v = 2 * a2
    x = next_a2
    y = a2
    if not proportion_subtract(u, v, x, y, 2):
        raise ArithmeticError(f"subtraction lemma failed for the pair ({_shown(p.a)}, {_shown(p.d)})")

    # Each integer is rendered once; the expressions reuse its string.
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
    return DerivationTrace(p, steps)
