import copy
import decimal
import math
import pickle
import random
import re
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidediameter import _exact, approx, pairs
from sidediameter.pairs import (
    DescentBelowSeedError,
    InvalidPairError,
    SideDiameterPair,
    adjacent_rational_diameter,
    descend,
    encouraging_identity_check,
    generate,
    nth,
    nth_iterative,
    plato_check,
    seed,
    step,
)

# Frozen from the iterative oracle (63 steps from the seed).
PAIR_64 = (1111984844349868137938112, 1572584048032918633353217)


def test_seed():
    p = seed()
    assert (p.a, p.d, p.index) == (1, 1, 1)
    assert p.a == p.d
    assert p.sign == 1 - 2 == -1


@pytest.mark.parametrize(
    "before,after",
    [((1, 1), (2, 3)), ((2, 3), (5, 7)), ((5, 7), (12, 17)), ((12, 17), (29, 41))],
)
def test_step_examples(before, after):
    p = step(SideDiameterPair(*before))
    assert (p.a, p.d) == after


def test_step_negates_sign_and_increments_index():
    p = seed()
    for expected_index in range(2, 12):
        previous = p.sign
        p = step(p)
        assert p.index == expected_index
        assert p.sign == -previous


@pytest.mark.parametrize("start,expected", [((5, 7), (2, 3)), ((12, 17), (5, 7))])
def test_descend_examples(start, expected):
    p = descend(SideDiameterPair(*start))
    assert (p.a, p.d) == expected


def test_descend_below_seed_errors():
    with pytest.raises(DescentBelowSeedError):
        descend(seed())
    with pytest.raises(DescentBelowSeedError):
        descend(SideDiameterPair(1, 1))


def test_descend_refuses_to_index_below_one():
    # The index is checked by parity only, so a pair further up can carry index 1.
    with pytest.raises(InvalidPairError, match="index must be >= 1, got 0"):
        descend(SideDiameterPair(5, 7, index=1))


def test_descend_negates_sign_and_decrements_index():
    p = nth(9)
    q = descend(p)
    assert q.index == 8
    assert q.sign == -p.sign


@pytest.mark.parametrize("n,expected", [(1, (1, 1)), (2, (2, 3)), (3, (5, 7)), (4, (12, 17)), (5, (29, 41))])
def test_nth_examples(n, expected):
    p = nth(n)
    assert (p.a, p.d) == expected
    assert p.index == n


def test_nth_64_matches_frozen_oracle_value():
    p = nth(64)
    assert (p.a, p.d) == PAIR_64
    # re-derive on the spot: 63 raw applications of the recurrence
    a, d = 1, 1
    for _ in range(63):
        a, d = a + d, 2 * a + d
    assert (p.a, p.d) == (a, d)


@pytest.mark.parametrize("n", [0, -1, -17])
def test_nth_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        nth(n)
    with pytest.raises(ValueError):
        nth_iterative(n)


@pytest.mark.parametrize("n,expected", [(4, (12, 17)), (1, (1, 1)), (6, (70, 99))])
def test_nth_iterative_examples(n, expected):
    p = nth_iterative(n)
    assert (p.a, p.d) == expected


def test_nth_iterative_6_satisfies_plus_one_equation():
    p = nth_iterative(6)
    assert p.d**2 - 2 * p.a**2 == 9801 - 9800 == 1


def test_oracle_equivalence_up_to_256():
    a, d = 1, 1
    for n in range(1, 257):
        assert nth(n) == SideDiameterPair(a, d, index=n)
        a, d = a + d, 2 * a + d


def _counting(base):
    """A subclass of `base` whose values stay in it and count their products with one another."""
    class Counting(base):
        products = 0

        def __mul__(self, other):
            if isinstance(other, Counting):
                Counting.products += 1
            return Counting(base.__mul__(self, other))

        def __rmul__(self, other):
            return Counting(base.__rmul__(self, other))

        def __add__(self, other):
            return Counting(base.__add__(self, other))

        __radd__ = __add__

        def __sub__(self, other):
            return Counting(base.__sub__(self, other))

    return Counting


@pytest.mark.parametrize("base", [int, decimal.Decimal])
@pytest.mark.parametrize("n", [2, 3, 7, 64, 1000, 20001])
def test_nth_doubling_takes_two_products_per_level(base, n):
    """One product a*d and one square d*d per halving of n; the other factors are 2 and signs.

    The checked builder adds one square a*a of half size, and no square of full size.
    """
    Counting = _counting(base)
    with decimal.localcontext(_exact._EXACT):
        a, d = _exact._nth_components(n, Counting(1))
        assert type(a) is type(d) is Counting
        assert Counting.products == 2 * (n.bit_length() - 1)
        Counting.products = 0
        assert pairs._nth_checked(n, Counting(1)) == (a, d)
    assert Counting.products == 2 * (n.bit_length() - 1) + 1
    assert (a, d) == (nth(n).a, nth(n).d)


@pytest.mark.parametrize("n", [50, 12000])
@pytest.mark.parametrize("level", ["top", "middle", "half"])
def test_library_nth_refuses_a_wrong_value_at_one_doubling_level(one_wrong_level, n, level):
    """The library's runtime guard: the half-size check refuses a fault at any one level."""
    one_wrong_level(n, level)
    with pytest.raises(InvalidPairError, match=f"at index {n}:"):
        nth(n)


def test_library_nth_refuses_a_side_negated_below_the_last_doubling(monkeypatch):
    """(-a, d) at level n >> 1 keeps d**2 - 2*a**2 there and every residue at n; only the side bound sees it."""
    components = _exact._nth_components

    def negated(m, one=1):
        a, d = components(m, one)
        return (-a if m == 25 else a), d

    monkeypatch.setattr(_exact, "_nth_components", negated)
    with pytest.raises(InvalidPairError, match="side and diameter must be >= 1"):
        nth(50)


def test_nth_components_equal_the_iterative_oracle_in_both_number_types():
    walk = pairs._walk()
    sampled = set(random.Random(0).sample(range(601, 20001), 25)) | {2**k for k in range(10, 15)} | {20000}
    with decimal.localcontext(_exact._EXACT):
        for n in range(1, 601):
            expected = next(walk)
            assert _exact._nth_components(n) == expected, n
            assert _exact._nth_components(n, decimal.Decimal(1)) == expected, n
        for n in sorted(sampled):
            expected = nth_iterative(n)
            assert _exact._nth_components(n) == (expected.a, expected.d), n
            assert _exact._nth_components(n, decimal.Decimal(1)) == (expected.a, expected.d), n


def _times(x, y):
    """(a + b*sqrt(2)) * (c + d*sqrt(2)) as the pair of its rational and sqrt(2) parts."""
    (a, b), (c, d) = x, y
    return a * c + 2 * b * d, a * d + b * c


def _pell_maps(p, q, n, one):
    """Both Pell-state maps of (p, q, n) in the type of `one`, and the doubling again with p*p given, as ints."""
    with decimal.localcontext(_exact._EXACT):
        p, q, n = p * one, q * one, n * one
        images = _exact._pell_step(p, q, n), _exact._pell_doubling(p, q, n), _exact._pell_doubling(p, q, n, p * p)
    for image in images:
        assert all(type(v) is type(one) and v == int(v) for v in image)
    return [tuple(map(int, image)) for image in images]


@given(st.integers(1, 10**60), st.integers(1, 10**60), st.sampled_from([1, decimal.Decimal(1)]))
def test_pell_maps_keep_the_residual_and_multiply_by_1_plus_root_2_or_square(p, q, one):
    """The step multiplies p + q*sqrt(2) by 1 + sqrt(2); the doubling squares it, less a 2 that both parts share."""
    stepped, doubled, doubled_from_square = _pell_maps(p, q, p * p - 2 * q * q, one)
    for new_p, new_q, new_n in (stepped, doubled):
        assert new_n == new_p * new_p - 2 * new_q * new_q
    assert stepped[:2] == _times((p, q), (1, 1))
    square = _times((p, q), (p, q))
    shared = math.gcd(square[0], 2)
    assert doubled[:2] == (square[0] // shared, square[1] // shared) and doubled_from_square == doubled


@given(st.integers(1, 300), st.sampled_from([1, decimal.Decimal(1)]))
def test_pell_maps_take_pair_m_to_pairs_m_plus_1_and_2m(m, one):
    """Pair m's state (d, a, (-1)**m) goes to pair m + 1's under the step and to pair 2m's under the doubling."""
    states = [(d, a, -1 if k % 2 else 1) for k, (a, d) in enumerate(islice(pairs._walk(), 2 * m), 1)]
    stepped, doubled, _ = _pell_maps(*states[m - 1], one)
    assert stepped == states[m] and doubled == states[2 * m - 1]


def test_generate_first_four():
    table = generate(4)
    assert [(p.a, p.d, p.sign) for p in table] == [
        (1, 1, -1),
        (2, 3, 1),
        (5, 7, -1),
        (12, 17, 1),
    ]
    assert [p.index for p in table] == [1, 2, 3, 4]


def test_generate_single_and_fifth():
    assert generate(1) == [seed()]
    last = generate(5)[-1]
    assert (last.a, last.d, last.sign) == (29, 41, -1)


def test_generate_rejects_nonpositive():
    with pytest.raises(ValueError):
        generate(0)


def test_generate_agrees_with_nth():
    table = generate(40)
    for i, p in enumerate(table, start=1):
        assert p == nth(i)


@pytest.mark.parametrize("a,expected", [(5, 7), (2, 3), (4, None), (1, 1), (169, 239)])
def test_adjacent_rational_diameter_examples(a, expected):
    assert adjacent_rational_diameter(a) == expected


def test_adjacent_rational_diameter_brute_force_oracle():
    # brute force: the unique d <= 2a with |d^2 - 2a^2| = 1, if any
    for a in range(1, 500):
        wanted = None
        for d in range(1, 2 * a + 1):
            if abs(d * d - 2 * a * a) == 1:
                wanted = d
                break
        assert adjacent_rational_diameter(a) == wanted


def test_plato_check_examples():
    assert plato_check(5, 7) == (48, 1, 2, -1)
    assert plato_check(1, 1) == (0, 1, 2, -1)
    report = plato_check(12, 17)
    assert report == (288, 1, 0, 1)
    assert report.sign == 1  # the +1 case flips the irrational-square gap to 0


def test_plato_check_rejects_invalid_pair():
    for a, d in [(3, 5), (0, 1), (5.0, 7.0), (Fraction(5), Fraction(7))]:
        with pytest.raises(InvalidPairError):
            plato_check(a, d)


@pytest.mark.parametrize(
    "pair,value",
    [((1, 1), 10), ((2, 3), 58), ((5, 7), 338)],
)
def test_encouraging_identity_examples(pair, value):
    check = encouraging_identity_check(SideDiameterPair(*pair))
    assert check.holds
    assert check.lhs == check.rhs == value


def test_encouraging_identity_holds_up_to_200():
    for p in generate(200):
        assert encouraging_identity_check(p).holds


def test_pair_accepts_valid_constructions():
    SideDiameterPair(2, 3)
    SideDiameterPair(2, 3, index=2)
    SideDiameterPair(5, 7, index=3)


@pytest.mark.parametrize(
    "a,d,index",
    [
        (3, 5, None),   # 25 - 18 = 7
        (0, 1, None),   # degenerate pair is excluded: sides are >= 1
        (-2, 3, None),
        (1, 1, 2),      # sign -1 but even index claims +1
        (2, 3, 1),
        (2, 3, 0),
        # plain ints only: no floats, Fractions or bools
        (1.0, 1.0, None),
        (Fraction(2), 3.0, None),
        (True, True, None),
        (2, 3, 2.0),
        (1, 1, True),
        (12, 17, Fraction(4)),
    ],
)
def test_pair_rejects_invalid_constructions(a, d, index):
    with pytest.raises(InvalidPairError):
        SideDiameterPair(a, d, index)


def test_a_refused_indexed_pair_names_its_index():
    message = "(3, 5) is not a side/diameter pair at index 2: d^2 - 2a^2 = 7, expected -1 or +1"
    with pytest.raises(InvalidPairError, match=f"^{re.escape(message)}$"):
        SideDiameterPair(3, 5, index=2)


# Valid pairs either side of the 2**14000 size display of `_shown`, and refused ones: small,
# of 4,215 digits and 14,001 bits (11011), and of 4,594 digits; each with no index, its own,
# the wrong parity and 0.
def _check_cases():
    cases = []
    for n in (1, 2, 5, 11010, 11011, 11012, 12000):
        p = nth(n)
        variants = [("pair", p.a, p.d)]
        if n in (5, 11011, 12000):
            variants += [("d+1", p.a, p.d + 1), ("d-1", p.a, p.d - 1), ("a=0", 0, p.d),
                         ("-a", -p.a, p.d), ("-d", p.a, -p.d)]
        for label, a, d in variants:
            for index in (None, n, n + 1, 0):
                cases.append(pytest.param(a, d, index, id=f"{n}-{label}-index={index}"))
    return cases


def _sign_or_message(check, a, d, index):
    """check's sign, or its InvalidPairError message with each shown size as <size>."""
    try:
        return check(a, d, index)
    except InvalidPairError as exc:
        return re.sub(r"<(int of \d+ bits|Decimal of \d+ digits)>", "<size>", str(exc))


@pytest.mark.parametrize("number", [int, decimal.Decimal, Fraction])
def test_shown_gives_the_size_from_2_to_the_14000_on(number):
    # Both 2**14000 - 1 and 2**14000 have 4,215 digits; only the second is shown by its size.
    below, at = number(2**14000 - 1), number(2**14000)
    for form in (repr, str):
        assert pairs._shown(below, form) == form(below)
    size = {int: "<int of 14001 bits>", decimal.Decimal: "<Decimal of 4215 digits>",
            Fraction: "<int of 14001 bits>/1"}[number]
    assert pairs._shown(at) == pairs._shown(at, str) == size
    assert pairs._shown(number(-(2**14000))) == "-" + size
    if number is Fraction:
        assert pairs._shown(1 / at) == "1/<int of 14001 bits>"


@pytest.mark.parametrize("a,d,index", _check_cases())
def test_int_and_decimal_pair_checks_agree(a, d, index):
    as_decimal = decimal.Decimal(approx.to_decimal(a)), decimal.Decimal(approx.to_decimal(d))
    with decimal.localcontext(_exact._EXACT):
        in_decimal = _sign_or_message(pairs._pell_sign, *as_decimal, index)
    assert in_decimal == _sign_or_message(lambda *args: SideDiameterPair(*args).sign, a, d, index)


def test_alternation_of_sign():
    for p in generate(200):
        assert p.sign == (-1) ** p.index


@given(st.integers(1, 600))
def test_sign_is_the_squares_difference_for_every_constructor(n):
    p = nth(n)
    unindexed = SideDiameterPair(p.a, p.d)
    pairs = [p, generate(n)[-1], step(p), unindexed, step(unindexed)]
    if n > 1:
        pairs += [descend(p), descend(unindexed)]
    for q in pairs:
        assert q.sign == q.d**2 - 2 * q.a**2


@pytest.mark.parametrize("p", [nth(6), nth(7), SideDiameterPair(12, 17)], ids=repr)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_sign_equality_and_hash(p, clone):
    q = clone(p)
    assert q.sign == p.sign
    assert q == p and hash(q) == hash(p) and repr(q) == repr(p)


def test_pair_repr_and_equality_are_by_fields():
    assert repr(nth(5)) == "SideDiameterPair(a=29, d=41, index=5)"
    assert repr(SideDiameterPair(12, 17)) == "SideDiameterPair(a=12, d=17, index=None)"
    assert SideDiameterPair(12, 17) != (12, 17, None)
    assert nth(5) != SideDiameterPair(29, 41)


def test_inverse_laws():
    for k in range(1, 80):
        p = nth(k)
        assert descend(step(p)) == p
        if k > 1:
            assert step(descend(p)) == p


def test_coprimality():
    for p in generate(200):
        assert math.gcd(p.a, p.d) == 1


def test_strict_monotonicity():
    table = generate(120)
    for prev, cur in zip(table, table[1:]):
        assert cur.a > prev.a
        assert cur.d > prev.d


def test_addition_law_against_iterative_oracle():
    rng = random.Random(0x51DE)
    components = {}
    a, d = 1, 1
    for n in range(1, 129):
        components[n] = (a, d)
        a, d = a + d, 2 * a + d
    for _ in range(40):
        m = rng.randint(1, 64)
        n = rng.randint(1, 64)
        am, dm = components[m]
        an, dn = components[n]
        assert components[m + n] == (am * dn + dm * an, dm * dn + 2 * am * an)


def test_descent_terminates_at_seed_in_index_minus_one_steps():
    for k in range(1, 65):
        p = nth(k)
        steps = 0
        while p != seed():
            p = descend(p)
            steps += 1
        assert steps == k - 1


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_sign_flip_under_descent_for_all_integers(a, d):
    assert (2 * a - d) ** 2 - 2 * (d - a) ** 2 == -(d * d - 2 * a * a)
