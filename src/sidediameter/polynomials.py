"""Multivariate polynomials with integer coefficients in canonical form.

A Poly lives in a ring fixed by an ordered tuple of variable names.  Terms
are stored as a map from exponent vectors to nonzero coefficients, every
exponent and coefficient a plain int (anything else is refused by type), so
two polynomials are mathematically equal exactly when they compare equal.
That makes an equality check a proof over all integer substitutions, which
is what the identity catalog relies on.  Only ring operations are provided: add,
subtract, multiply, negate, integer scaling, small powers, and exact
evaluation.
"""

from typing import Iterable, Mapping

from sidediameter._exact import _require_rational, _shown

Monomial = tuple[int, ...]


class VariableMismatchError(ValueError):
    """Raised when combining polynomials over different variable lists."""


class MissingVariableError(ValueError):
    """Raised when an evaluation assignment does not cover every variable."""


class Poly:
    """An immutable multivariate polynomial over a fixed variable tuple."""

    __slots__ = ("_variables", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Monomial, int] | None = None):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs!r}")
        canonical: dict[Monomial, int] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != len(vs) or any(type(e) is not int or e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono!r} for variables {vs!r}")
            if type(coeff) is not int:
                raise ValueError(f"coefficient of {mono!r} must be an integer, got {_shown(coeff)}")
            if coeff:
                canonical[mono] = canonical.get(mono, 0) + coeff
                if not canonical[mono]:
                    del canonical[mono]
        object.__setattr__(self, "_variables", vs)
        object.__setattr__(self, "_terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Poly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Iterable[str], value: int) -> "Poly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "Poly":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError(f"{name!r} not among variables {vs!r}")
        mono = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {mono: 1})

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in graded lexicographic order, highest first (deterministic)."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def evaluate(self, assignment: Mapping[str, "int | Fraction"]) -> "int | Fraction":
        """Exact value under a variable -> int or Fraction assignment.

        Every ring variable must be assigned; unrelated keys are ignored.
        Any other value, a float, a bool or an int subclass too, raises ValueError.
        Evaluation is a ring homomorphism, which the tests verify.
        """
        missing = [v for v in self._variables if v not in assignment]
        if missing:
            raise MissingVariableError(f"assignment missing variables {missing!r}")
        values = [assignment[v] for v in self._variables]
        for name, value in zip(self._variables, values):
            _require_rational(value, f"value of {name}")
        total = 0
        for mono, coeff in self._terms.items():
            term = coeff
            for value, exp in zip(values, mono):
                if exp:
                    term *= value**exp
            total += term
        return total

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other._variables != self._variables:
                raise VariableMismatchError(
                    f"cannot combine polynomials over {self._variables!r} "
                    f"and {other._variables!r}"
                )
            return other
        if type(other) is int:
            return Poly.constant(self._variables, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            terms[mono] = terms.get(mono, 0) + coeff
        return Poly(self._variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self._variables, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly(self._variables, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if type(exponent) is not int or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = Poly.constant(self._variables, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._variables == other._variables and self._terms == other._terms

    def __hash__(self):
        return hash((self._variables, frozenset(self._terms.items())))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self._variables, mono)
                if e
            ]
            magnitude = abs(coeff)
            if factors:
                body = "*".join(factors)
                text = body if magnitude == 1 else f"{magnitude}*{body}"
            else:
                text = str(magnitude)
            if not parts:
                parts.append(text if coeff > 0 else f"-{text}")
            else:
                parts.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({', '.join(self._variables)}: {self})"


def symbols(*names: str) -> tuple[Poly, ...]:
    """Generator polynomials for a ring with the given variable names.

    Example: ``a, d = symbols("a", "d")`` yields the two coordinate
    polynomials of the ring Z[a, d].
    """
    return tuple(Poly.variable(names, n) for n in names)
