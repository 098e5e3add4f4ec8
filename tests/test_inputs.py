"""Every public numeric entry accepts only exact numbers, checked by type."""

from decimal import Decimal
from fractions import Fraction

import pytest

from sidediameter import (
    InvalidPairError,
    SideDiameterPair,
    adjacent_rational_diameter,
    babylonian_preimage,
    babylonian_step,
    cf_convergent_sqrt2,
    compare_methods,
    correct_digits,
    decimal_digit_count,
    decimal_string,
    generate,
    isqrt,
    nth,
    nth_iterative,
    proportion_subtract,
    run_method,
    sd_ratio_step,
    side_of_sqrt2,
    to_decimal,
)

THREE_HALVES = Fraction(3, 2)

# (entry, argument name, call with that argument set to the value)
RATIONAL_ARGUMENTS = [
    ("babylonian_step", "t", babylonian_step),
    ("babylonian_preimage", "t", babylonian_preimage),
    ("sd_ratio_step", "t", sd_ratio_step),
    ("side_of_sqrt2", "t", side_of_sqrt2),
    ("correct_digits", "t", lambda v: correct_digits(v, 5)),
    ("decimal_string", "t", lambda v: decimal_string(v, 5)),
    ("run_method", "start", lambda v: run_method("babylonian", v, 2)),
    ("compare_methods", "start", lambda v: compare_methods(v, 2)),
    ("proportion_subtract", "r", lambda v: proportion_subtract(50, 8, 25, 4, v)),
    ("proportion_subtract", "u", lambda v: proportion_subtract(v, 8, 25, 4, 2)),
    ("proportion_subtract", "v", lambda v: proportion_subtract(50, v, 25, 4, 2)),
    ("proportion_subtract", "x", lambda v: proportion_subtract(50, 8, v, 4, 2)),
    ("proportion_subtract", "y", lambda v: proportion_subtract(50, 8, 25, v, 2)),
]
INTEGER_ARGUMENTS = [
    ("nth", "n", nth),
    ("nth_iterative", "n", nth_iterative),
    ("generate", "count", generate),
    ("adjacent_rational_diameter", "a", adjacent_rational_diameter),
    ("cf_convergent_sqrt2", "n", cf_convergent_sqrt2),
    ("isqrt", "n", isqrt),
    ("correct_digits", "cap", lambda v: correct_digits(THREE_HALVES, v)),
    ("decimal_string", "digits", lambda v: decimal_string(THREE_HALVES, v)),
    ("run_method", "steps", lambda v: run_method("babylonian", THREE_HALVES, v)),
    ("compare_methods", "steps", lambda v: compare_methods(THREE_HALVES, v)),
    ("run_method", "cap", lambda v: run_method("babylonian", THREE_HALVES, 0, v)),
    ("to_json_dict", "digits", lambda v: run_method("babylonian", THREE_HALVES, 1).to_json_dict(v)),
]
INEXACT = [1.5, Decimal("1.5"), "3/2", True]
# Entries among RATIONAL_ARGUMENTS that also require a positive value.
POSITIVE_ARGUMENTS = [row for row in RATIONAL_ARGUMENTS if row[0] not in ("decimal_string", "proportion_subtract")]


class MyInt(int):
    def __repr__(self):
        return f"MyInt({int(self)})"


@pytest.mark.parametrize(
    "call,name,value",
    [pytest.param(call, name, value, id=f"{entry}-{name}-{value!r}")
     for table, values in ((RATIONAL_ARGUMENTS, INEXACT),
                           (INTEGER_ARGUMENTS, INEXACT + [2.0, MyInt(2)]))
     for entry, name, call in table
     for value in values],
)
def test_non_exact_numbers_are_refused_by_type(call, name, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value).startswith(f"{name} must be ")


# The renderers take what they can render: `to_decimal` an int, Fraction or Decimal, and
# `decimal_digit_count` an int (its own estimate test counts through an int subclass).
@pytest.mark.parametrize(
    "call,value,expected",
    [(to_decimal, True, "an int, Fraction or Decimal"), (to_decimal, 1.5, "an int, Fraction or Decimal"),
     (to_decimal, "12", "an int, Fraction or Decimal"), (to_decimal, MyInt(2), "an int, Fraction or Decimal"),
     (decimal_digit_count, 1e300, "an integer"), (decimal_digit_count, "12", "an integer"),
     (decimal_digit_count, True, "an integer"), (decimal_digit_count, Decimal(12), "an integer")],
    ids=["to_decimal-bool", "to_decimal-float", "to_decimal-str", "to_decimal-int-subclass",
         "decimal_digit_count-float", "decimal_digit_count-str", "decimal_digit_count-bool",
         "decimal_digit_count-Decimal"],
)
def test_renderers_refuse_what_they_cannot_render(call, value, expected):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"n must be {expected}, got {value!r}"


@pytest.mark.parametrize(
    "call,name,value",
    [pytest.param(call, name, value, id=f"{entry}-{name}-{value}")
     for entry, name, call in POSITIVE_ARGUMENTS
     for value in (0, -1, Fraction(-3, 2))],
)
def test_nonpositive_values_are_refused_by_name(call, name, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be positive, got {value}"


@pytest.mark.parametrize(
    "error,call",
    [
        (InvalidPairError, lambda: SideDiameterPair(10**5000, 1)),
        (InvalidPairError, lambda: SideDiameterPair(1.0, 10**5000)),
        (InvalidPairError, lambda: SideDiameterPair(1, 1, index=-(10**5000))),
        (ValueError, lambda: isqrt(-(10**5000))),
        (ValueError, lambda: nth(-(10**5000))),
        (ValueError, lambda: babylonian_step(Fraction(-(10**5000), 3))),
        (ZeroDivisionError, lambda: proportion_subtract(1, 2, 10**5000, -10**5000, 2)),
    ],
    ids=["pair", "float-side", "index", "isqrt", "nth", "fraction", "proportion"],
)
def test_errors_on_huge_integers_show_their_size(error, call, int_str_limit):
    int_str_limit(4300)
    with pytest.raises(error) as info:
        call()
    assert "bits>" in str(info.value)
    assert len(str(info.value)) < 200
