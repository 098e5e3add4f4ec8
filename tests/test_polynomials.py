import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidediameter.identities import verify_identity
from sidediameter.polynomials import (
    MissingVariableError,
    Poly,
    VariableMismatchError,
    symbols,
)

A, D = symbols("a", "d")


def test_binomial_square():
    expanded = (A + D) ** 2
    assert expanded == Poly(("a", "d"), {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_self_subtraction_cancels():
    p = 3 * A**2 - D + 7
    assert (p - p).is_zero()
    assert p - p == Poly.zero(("a", "d"))


def test_difference_of_squares():
    assert (A + D) * (A - D) == A**2 - D**2


def test_integer_coercion_and_scaling():
    assert 2 * (A + 1) == 2 * A + 2
    assert (A + 1) * 2 == 2 * A + 2
    assert 1 - A == -(A - 1)
    assert -(2 * A) == -2 * A


def test_zero_coefficients_are_dropped():
    p = A**2 - A**2 + D
    assert p == D
    assert p.terms == {(0, 1): 1}


def test_construction_refuses_duplicate_names_and_bad_exponent_vectors():
    with pytest.raises(ValueError, match="^duplicate variable names"):
        Poly(("a", "a"))
    for mono in [(1,), (1, 2, 0), (1, -1), (1, 0.5)]:
        with pytest.raises(ValueError, match="^bad exponent vector"):
            Poly(("a", "d"), {mono: 1})


def test_exponent_vectors_equal_as_tuples_are_one_term():
    # A key is read as a tuple, so (1, 0) and range(1, -1, -1) name the same monomial.
    assert Poly(("a", "d"), {(1, 0): 2, range(1, -1, -1): -2}).is_zero()
    assert Poly(("a", "d"), {(1, 0): 2, range(1, -1, -1): 1}) == 3 * A


def test_poly_is_immutable():
    for name in ("_terms", "_variables", "extra"):
        with pytest.raises(AttributeError, match="^Poly is immutable$"):
            setattr(A, name, None)
    assert A == Poly(("a", "d"), {(1, 0): 1})


@pytest.mark.parametrize("other", [1.5, True, Fraction(1, 2), "1"], ids=["float", "bool", "fraction", "str"])
@pytest.mark.parametrize("combine", [
    lambda p, x: p + x, lambda p, x: x + p, lambda p, x: p - x,
    lambda p, x: x - p, lambda p, x: p * x, lambda p, x: x * p,
], ids=["add", "radd", "sub", "rsub", "mul", "rmul"])
def test_ring_operations_refuse_a_non_integer(combine, other):
    with pytest.raises(TypeError):
        combine(A + D, other)


class _MyInt(int):
    pass


def test_a_float_coefficient_cannot_prove_a_false_identity():
    # 1e16 + 1 rounds to 1e16, so a float coefficient would make P + a "equal" P.
    a = symbols("a")[0]
    with pytest.raises(ValueError, match=r"^coefficient of \(1,\) must be an integer, got 1e\+16$"):
        verify_identity(Poly(("a",), {(1,): 1e16}) + a, Poly(("a",), {(1,): 1e16}))


@pytest.mark.parametrize(
    "coeff", [1e16, 0.0, True, False, _MyInt(2), Fraction(2), Decimal(2), "2", None],
    ids=["float", "zero-float", "true", "false", "int-subclass", "fraction", "decimal", "str", "none"],
)
def test_coefficients_must_be_plain_ints(coeff):
    message = f"^coefficient of \\(1, 0\\) must be an integer, got {re.escape(repr(coeff))}$"
    with pytest.raises(ValueError, match=message):
        Poly(("a", "d"), {(1, 0): coeff})
    with pytest.raises(ValueError, match="^coefficient of "):
        Poly.constant(("a", "d"), coeff)


@pytest.mark.parametrize("exponent", [True, False, _MyInt(1), 1.0, Fraction(1), Decimal(1), "x", None],
                         ids=["true", "false", "int-subclass", "float", "fraction", "decimal", "str", "none"])
def test_exponents_must_be_plain_ints(exponent):
    # A bool or an int subclass compares with 0 like an int, and a str or None cannot: each is
    # refused by its type, with the same ValueError, before any comparison.
    with pytest.raises(ValueError, match=r"^bad exponent vector \("):
        Poly(("a",), {(exponent,): 1})
    with pytest.raises(ValueError, match=f"^exponent must be a nonnegative integer, got {re.escape(repr(exponent))}$"):
        A**exponent
    assert Poly(("a",), {(1,): 1}) ** 2 == Poly(("a",), {(2,): 1})


@pytest.mark.parametrize("value", [0.1, 1.0, True, _MyInt(2), Decimal("0.1"), "1"],
                         ids=["float", "integral-float", "bool", "int-subclass", "decimal", "str"])
def test_evaluation_takes_only_ints_and_fractions(value):
    message = f"^value of a must be an int or Fraction, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        (A + D).evaluate({"a": value, "d": 1})
    assert (A * D).evaluate({"a": Fraction(1, 3), "d": 6}) == 2 and (A + D).evaluate({"a": 1, "d": 2}) == 3


def test_a_poly_equals_no_number():
    assert (Poly.constant(("a", "d"), 1) == 1) is False
    assert Poly.constant(("a", "d"), 1) != 1.0


def test_repr_names_the_ring_and_the_terms():
    assert repr(2 * A - D) == "Poly(a, d: 2*a - d)"
    assert repr(Poly.zero(("x",))) == "Poly(x: 0)"


def test_pow():
    assert (A + D) ** 0 == Poly.constant(("a", "d"), 1)
    assert A**3 == A * A * A
    with pytest.raises(ValueError):
        (A + D) ** -1


def test_eval_examples():
    lhs = (2 * A + D) ** 2 + D**2
    assert lhs.evaluate({"a": 2, "d": 3}) == 49 + 9 == 58
    assert Poly.zero(("a", "d")).evaluate({"a": 5, "d": -8}) == 0
    rhs = 2 * (A**2 + (A + D) ** 2)
    assert rhs.evaluate({"a": 5, "d": 7}) == 2 * (25 + 144) == 338


def test_eval_requires_all_variables():
    with pytest.raises(MissingVariableError):
        (A + D).evaluate({"a": 1})


def test_eval_ignores_unrelated_names():
    assert (A + D).evaluate({"a": 1, "d": 2, "zzz": 9}) == 3


def test_variable_mismatch_errors():
    (c, t) = symbols("c", "t")
    with pytest.raises(VariableMismatchError):
        A + c
    with pytest.raises(VariableMismatchError):
        A * t
    with pytest.raises(VariableMismatchError):
        A - c


def test_unknown_variable_name_rejected():
    with pytest.raises(ValueError):
        Poly.variable(("a", "d"), "x")


def test_equality_and_hash_follow_canonical_form():
    p = (A + D) ** 2
    q = A**2 + 2 * A * D + D**2
    assert p == q
    assert hash(p) == hash(q)
    assert p != q + 1


def test_str_is_deterministic_graded_lex():
    p = D**2 - 2 * A**2 + A * D - 1
    assert str(p) == "-2*a^2 + a*d + d^2 - 1"
    assert str(Poly.zero(("a", "d"))) == "0"
    assert str(Poly.constant(("a", "d"), -3)) == "-3"


# random polynomials over three variables, small exponents and coefficients
_monomials = st.tuples(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)
)
_polys = st.dictionaries(_monomials, st.integers(-50, 50), max_size=6).map(
    lambda terms: Poly(("x", "y", "z"), terms)
)
_assignments = st.fixed_dictionaries(
    {"x": st.integers(-1000, 1000), "y": st.integers(-1000, 1000), "z": st.integers(-1000, 1000)}
)


@given(_polys, _polys, _assignments)
def test_evaluation_is_a_ring_homomorphism(p, q, assignment):
    assert (p + q).evaluate(assignment) == p.evaluate(assignment) + q.evaluate(assignment)
    assert (p * q).evaluate(assignment) == p.evaluate(assignment) * q.evaluate(assignment)
    assert (-p).evaluate(assignment) == -p.evaluate(assignment)


@given(_polys, _polys)
def test_ring_laws(p, q):
    assert p + q == q + p
    assert p * q == q * p
    assert p - q == -(q - p)
    assert (p - q) + q == p
