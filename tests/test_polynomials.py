from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
