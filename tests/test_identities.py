import copy
import decimal
import io
import itertools
import json
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidediameter import _exact, cli, identities
from sidediameter.approx import run_method, to_decimal
from sidediameter.cli import run
from sidediameter.identities import (
    JUSTIFICATIONS,
    DerivationTrace,
    NamedIdentity,
    TraceStep,
    catalog_by_name,
    identity_catalog,
    proportion_subtract,
    trace_elegant,
    verify_identity,
)
from sidediameter.pairs import SideDiameterPair, generate, nth
from sidediameter.polynomials import Poly, symbols

CATALOG_NAMES = ["euclid_II_10", "euclid_II_9", "elegant_core", "encouraging", "descent_core"]


def test_catalog_contents_and_symbolic_pass():
    catalog = identity_catalog()
    assert [ident.name for ident in catalog] == CATALOG_NAMES
    for ident in catalog:
        assert ident.holds(), ident.name
        assert verify_identity(ident.lhs, ident.rhs)


def test_each_catalog_call_builds_a_new_list():
    first = identity_catalog()
    first.clear()
    assert [ident.name for ident in identity_catalog()] == CATALOG_NAMES


def test_catalog_by_name_keeps_the_catalog_order():
    # The order `verify --all` prints.
    assert list(catalog_by_name()) == [ident.name for ident in identity_catalog()]


def test_euclid_II_10_and_encouraging_share_both_sides():
    by_name = catalog_by_name()
    assert by_name["euclid_II_10"].rhs == by_name["encouraging"].rhs
    assert by_name["euclid_II_10"].lhs == by_name["encouraging"].lhs


def test_elegant_core_at_2_3():
    ident = catalog_by_name()["elegant_core"]
    at = {"a": 2, "d": 3}
    assert ident.lhs.evaluate(at) == 49 - 50 == -1
    assert ident.rhs.evaluate(at) == 8 - 9 == -1


def test_verify_identity_examples():
    a, d = symbols("a", "d")
    assert verify_identity((2 * a + d) ** 2 + d**2, 2 * (a**2 + (a + d) ** 2))
    assert not verify_identity((2 * a + d) ** 2 + d**2, 2 * (a**2 + (a + d) ** 2) + 1)
    assert verify_identity((2 * a + d) ** 2 - 2 * (a + d) ** 2, -(d**2 - 2 * a**2))


def _single_coefficient_mutations(p: Poly):
    for mono, coeff in p.terms.items():
        for delta in (1, -1):
            terms = p.terms
            terms[mono] = coeff + delta
            yield Poly(p.variables, terms)


def test_every_single_coefficient_mutation_fails():
    for ident in identity_catalog():
        for mutated in _single_coefficient_mutations(ident.lhs):
            assert not verify_identity(mutated, ident.rhs), ident.name
        for mutated in _single_coefficient_mutations(ident.rhs):
            assert not verify_identity(ident.lhs, mutated), ident.name
        assert not verify_identity(ident.lhs, ident.rhs + 1), ident.name


def test_symbolic_pass_implies_equal_evaluations():
    rng = random.Random(0xE0C1)
    for ident in identity_catalog():
        names = ident.lhs.variables
        for _ in range(100):
            assignment = {v: rng.randint(-1000, 1000) for v in names}
            assert ident.lhs.evaluate(assignment) == ident.rhs.evaluate(assignment)


def test_proportion_subtract_classical_assignment():
    # a = 2, d = 3: wholes 50 + 8 = 2 * (25 + 4), parts 8 = 2 * 4, so 50 = 2 * 25
    assert proportion_subtract(50, 8, 25, 4, 2)


def test_proportion_subtract_identity_ratio():
    assert proportion_subtract(5, 5, 5, 5, 1)


def test_proportion_subtract_vacuous_when_premises_fail():
    assert proportion_subtract(49, 9, 29, 4, 2)


def test_proportion_subtract_zero_denominators():
    with pytest.raises(ZeroDivisionError):
        proportion_subtract(1, 2, 0, 3, 2)
    with pytest.raises(ZeroDivisionError):
        proportion_subtract(1, 2, 3, 0, 2)
    with pytest.raises(ZeroDivisionError):
        proportion_subtract(1, 2, 3, -3, 2)


def test_proportion_subtract_exhaustive_small_quadruples():
    # premises with r = 2 force u = 2x and v = 2y; sweep every such quadruple
    for x in range(-50, 51):
        for y in range(-50, 51):
            if x == 0 or y == 0 or x + y == 0:
                continue
            assert proportion_subtract(2 * x, 2 * y, x, y, 2)


@given(
    st.integers(-10**12, 10**12).filter(lambda x: x != 0),
    st.integers(-10**12, 10**12).filter(lambda y: y != 0),
    st.fractions(min_value=-100, max_value=100),
)
def test_proportion_subtract_random_large_values(x, y, r):
    if x + y == 0 or r == 0:
        return
    u = r * x
    v = r * y
    if u.denominator == 1 and v.denominator == 1:
        assert proportion_subtract(int(u), int(v), x, y, r)


def test_proportion_subtract_on_pairs_with_minus_sign():
    # 100 pairs with d^2 = 2a^2 - 1 (odd index): u = (2a+d)^2 - 1, v = 2a^2
    for k in range(100):
        p = nth(2 * k + 1)
        a, d = p.a, p.d
        assert p.sign == -1
        u = (2 * a + d) ** 2 - 1
        v = 2 * a * a
        x = (a + d) ** 2
        y = a * a
        assert u + v == 2 * (x + y) and v == 2 * y  # premises really hold
        assert proportion_subtract(u, v, x, y, 2)


@pytest.mark.parametrize(
    "pair,conclusion_values",
    [
        ((2, 3), (49, 2 * 25 - 1)),
        ((1, 1), (9, 2 * 4 + 1)),
        ((12, 17), (1681, 1682 - 1)),
    ],
)
def test_trace_elegant_conclusions(pair, conclusion_values):
    trace = trace_elegant(SideDiameterPair(*pair))
    final = trace.conclusion()
    assert (final.lhs_value, final.rhs_value) == conclusion_values


def test_trace_steps_are_balanced_and_ordered():
    for n in range(1, 51):
        trace = trace_elegant(nth(n))
        assert tuple(s.justification for s in trace.steps) == JUSTIFICATIONS
        for s in trace.steps:
            assert s.lhs_value == s.rhs_value


def _side_value(expr: str) -> int:
    """The integer that a printed side of a step stands for: digits, + - * ^ ( ) and spaces only."""
    assert re.fullmatch(r"[0-9+\-*^() ]+", expr), expr
    return eval(expr.replace("^", "**"), {"__builtins__": {}})


def _assert_sides_say_their_values(steps):
    """Each step (lhs_expr, rhs_expr, lhs_value, rhs_value) prints two sides worth its values."""
    for lhs_expr, rhs_expr, lhs_value, rhs_value in steps:
        assert _side_value(lhs_expr) == int(lhs_value) == int(rhs_value) == _side_value(rhs_expr)


RING = ("a", "d", "e")


def _side_poly(side: str, e: Poly) -> Poly:
    """A printed side of `identities._STEPS` as a polynomial over (a, d, e), read with no eval.

    The tokens are integers, A and D (the pair's a and d), e (the `e` of `+e` and `-e`), the
    operators + - * ^ and parentheses; e is read as the given polynomial.  Recursive descent:
    a sum of products of powers, each power an atom with an integer exponent.
    """
    tokens = re.findall(r"\d+|[ADe]|[-+*^()]", side)
    assert "".join(tokens) == side.replace(" ", ""), side
    a, d = symbols(*RING)[:2]
    names = {"A": a, "D": d, "e": e}
    position = 0

    def peek():
        return tokens[position] if position < len(tokens) else None

    def take(expected=None) -> str:
        nonlocal position
        token = peek()
        assert token is not None and expected in (None, token), (side, position)
        position += 1
        return token

    def atom() -> Poly:
        token = take()
        if token == "(":
            value = total()
            take(")")
            return value
        assert token in names or token.isdigit(), (side, token)
        return names[token] if token in names else Poly.constant(RING, int(token))

    def power() -> Poly:
        base = atom()
        if peek() != "^":
            return base
        take()
        return base ** int(take())

    def product() -> Poly:
        value = power()
        while peek() == "*":
            take()
            value = value * power()
        return value

    def total() -> Poly:
        value = product()
        while peek() in ("+", "-"):
            value = value + product() if take() == "+" else value - product()
        return value

    parsed = total()
    assert position == len(tokens), side
    return parsed


def test_printed_derivation_is_proved_over_a_d_e():
    # Step 1 (Euclid II.10) holds as it is printed; steps 2-4 hold once the pair's equation
    # e = d^2 - 2a^2 is substituted, and not without it: the hypothesis is used, and only there.
    a, d, e = symbols(*RING)
    hypothesis = d * d - 2 * a * a
    proved = [[(_side_poly(lhs, e_as) - _side_poly(rhs, e_as)).is_zero() for e_as in (e, hypothesis)]
              for _, lhs, rhs in identities._STEPS]
    assert proved == [[True, True], [False, True], [False, True], [False, True]]


def test_checked_step_values_are_the_printed_sides_evaluated():
    e = symbols(*RING)[2]
    sides = [(_side_poly(lhs, e), _side_poly(rhs, e)) for _, lhs, rhs in identities._STEPS]
    for n in [*range(1, 51), 26126]:  # pair 26126: a of 10,000 digits, d of 10,001
        p = nth(n)
        at = {"a": p.a, "d": p.d, "e": p.sign}
        steps, _ = identities._checked_steps(p.a, p.d, p.sign, to_decimal(p.a), to_decimal(p.d))
        assert ([(s.lhs_value, s.rhs_value) for s in steps]
                == [(lhs.evaluate(at), rhs.evaluate(at)) for lhs, rhs in sides]), n


def test_library_trace_sides_evaluate_to_their_values():
    for n in range(1, 301):
        _assert_sides_say_their_values(s[1:] for s in trace_elegant(nth(n)).steps)


def _printed_steps(out: str, pretty: bool):
    """(lhs_expr, rhs_expr, lhs_value, rhs_value) of each step that `trace` printed."""
    if not pretty:
        return [(s["lhs_expr"], s["rhs_expr"], s["lhs_value"], s["rhs_value"]) for s in json.loads(out)["steps"]]
    steps = []
    for line in out.splitlines()[1:]:
        sides, values = line.split("] ", 1)[1].strip().rsplit("    (", 1)
        steps.append((*sides.split(" = "), *values.rstrip(")").split(" = ")))
    return steps


@given(st.integers(1, 3000))
def test_cli_trace_sides_evaluate_to_their_values(k):
    p = nth(k)
    for argv, pretty in itertools.product((["trace", "--n", str(k)], ["trace", str(p.a), str(p.d)]), (False, True)):
        out = io.StringIO()
        assert run(argv + ["--pretty"] * pretty, out, io.StringIO()) == 0
        steps = _printed_steps(out.getvalue(), pretty)
        assert [len(s) for s in steps] == [4] * len(JUSTIFICATIONS)
        _assert_sides_say_their_values(steps)


def test_trace_conclusion_matches_elegant_core():
    ident = catalog_by_name()["elegant_core"]
    for n in range(1, 40):
        p = nth(n)
        trace = trace_elegant(p)
        final = trace.conclusion()
        at = {"a": p.a, "d": p.d}
        # (2a+d)^2 - 2(a+d)^2 = -e
        assert ident.lhs.evaluate(at) == -p.sign
        assert final.lhs_value - 2 * (p.a + p.d) ** 2 == -p.sign


def test_trace_json_schema():
    trace = trace_elegant(SideDiameterPair(5, 7))
    payload = json.loads(json.dumps(trace.to_json_dict()))
    assert set(payload) == {"pair", "steps"}
    assert payload["pair"] == {"a": "5", "d": "7", "e": "-1"}
    assert len(payload["steps"]) == 4
    for rendered in payload["steps"]:
        assert set(rendered) == {
            "justification", "lhs_expr", "rhs_expr", "lhs_value", "rhs_value",
        }
        assert isinstance(rendered["lhs_value"], str)
        assert int(rendered["lhs_value"]) == int(rendered["rhs_value"])


def _two_renderer_json_dict(trace):
    """Oracle: `to_json_dict` as it was when it rendered the pair apart from the steps."""
    text = {v: to_decimal(v) for v in {s.lhs_value for s in trace.steps}}
    return {
        "pair": {
            "a": to_decimal(trace.pair.a),
            "d": to_decimal(trace.pair.d),
            "e": str(trace.pair.sign),
        },
        "steps": [
            {
                "justification": s.justification,
                "lhs_expr": s.lhs_expr,
                "rhs_expr": s.rhs_expr,
                "lhs_value": text[s.lhs_value],
                "rhs_value": text[s.lhs_value],
            }
            for s in trace.steps
        ],
    }


def _two_renderer_pretty(trace):
    """Oracle: `pretty` as it was when it rendered the pair and walked the steps itself."""
    p = trace.pair
    text = {v: to_decimal(v) for v in {s.lhs_value for s in trace.steps}}
    lines = [f"derivation for pair (a={to_decimal(p.a)}, d={to_decimal(p.d)}, e={p.sign:+d})"]
    width = max(len(j) for j in JUSTIFICATIONS) + 2
    for s in trace.steps:
        tag = f"[{s.justification}]"
        value = text[s.lhs_value]
        lines.append(f"  {tag:<{width}}  {s.lhs_expr} = {s.rhs_expr}    ({value} = {value})")
    return "\n".join(lines)


# Both signs, generated pairs, caller-built pairs (whose a and d may be equal), and
# nth(11010..11012), which straddle the 4,215-digit threshold where `to_decimal` leaves str().
# Deferred: the pairs are computed at the first draw, not at collection.
TRACED_PAIRS = st.deferred(lambda: st.one_of(
    st.integers(1, 3000).map(nth),
    st.sampled_from(generate(60)),
    st.sampled_from([SideDiameterPair(12, 17), SideDiameterPair(1, 1),
                     *(nth(n) for n in (11010, 11011, 11012))]),
))


@given(TRACED_PAIRS)
def test_trace_renders_equal_the_two_renderer_oracles(pair):
    trace = trace_elegant(pair)
    assert (json.dumps(trace.to_json_dict(), indent=2)
            == json.dumps(_two_renderer_json_dict(trace), indent=2))
    assert trace.pretty() == _two_renderer_pretty(trace)


def _recorded_to_decimal(monkeypatch) -> list:
    """The list to which every later `to_decimal` call of `identities` appends its argument."""
    rendered = []

    def recording(value):
        rendered.append(value)
        return to_decimal(value)

    monkeypatch.setattr(identities, "to_decimal", recording)
    return rendered


@pytest.fixture
def pair(request):
    """The pair that the case's callable makes, when the test runs rather than at collection."""
    return request.param()


# a, d and the three distinct step values; (1, 1) has a == d.
RENDER_CASES = pytest.mark.parametrize("pair,calls", [(lambda: nth(2000), 5), (lambda: SideDiameterPair(1, 1), 4)],
                                       ids=["nth-2000", "1-1"], indirect=["pair"])


@RENDER_CASES
def test_each_render_converts_every_distinct_integer_once(monkeypatch, pair, calls):
    # The constructor converts each distinct value once, so the renders convert nothing.
    steps = trace_elegant(pair).steps
    rendered = _recorded_to_decimal(monkeypatch)
    trace = DerivationTrace(pair, steps)
    assert len(rendered) == len(set(rendered)) == calls
    for render in (trace.to_json_dict, trace.pretty):
        rendered.clear()
        render()
        assert rendered == []


@RENDER_CASES
def test_trace_elegant_and_its_renders_convert_each_distinct_integer_once(monkeypatch, pair, calls):
    rendered = _recorded_to_decimal(monkeypatch)
    trace = trace_elegant(pair)
    trace.to_json_dict()
    trace.pretty()
    assert len(rendered) == len(set(rendered)) == calls


@RENDER_CASES
@pytest.mark.parametrize("number", [int, decimal.Decimal])
def test_the_trace_core_and_layouts_convert_each_distinct_value_once(monkeypatch, pair, calls, number):
    rendered = _recorded_to_decimal(monkeypatch)
    with decimal.localcontext(_exact._EXACT):
        a, d = number(pair.a), number(pair.d)
        text, steps, _ = identities._derivation(a, d, pair.sign)
    "".join(cli._json(identities._trace_document(text, a, d, pair.sign, steps)))
    "".join(identities._pretty_laid_out(text, a, d, pair.sign, steps))
    assert {type(v) for v in rendered} == {number}
    assert len(rendered) == len(set(rendered)) == calls


@pytest.mark.parametrize("number", [int, decimal.Decimal])
def test_trace_refuses_a_subtraction_step_off_by_one(number):
    # The V.19 subtraction is checked once, by its step's balance u = 2*(a+d)^2.
    p = nth(50)
    with decimal.localcontext(_exact._EXACT):
        steps = list(identities._derivation(number(p.a), number(p.d), p.sign)[1])
        steps[2] = steps[2]._replace(lhs_value=steps[2].lhs_value + 1)
        with pytest.raises(ValueError, match="^unbalanced step V.19-subtraction"):
            DerivationTrace(p, tuple(steps))


def test_trace_elegant_checks_its_steps_once(monkeypatch):
    calls = []

    def counted(steps):
        calls.append(steps)
        return check(steps)

    check = identities._check_steps
    monkeypatch.setattr(identities, "_check_steps", counted)
    trace_elegant(nth(50))
    assert len(calls) == 1


def test_trace_refuses_a_pair_that_is_not_a_side_diameter_pair():
    steps = trace_elegant(nth(50)).steps
    for pair in (None, (nth(50).a, nth(50).d)):
        with pytest.raises(ValueError, match="^pair must be a SideDiameterPair, got "):
            DerivationTrace(pair, steps)


# Each pair of equal values balances the II.10 step of (5, 7), 338 = 338, so only the type check refuses it.
@pytest.mark.parametrize("lhs,rhs,field", [
    (None, None, "lhs_value"), (338.0, 338.0, "lhs_value"), (True, True, "lhs_value"),
    (decimal.Decimal(338), decimal.Decimal(338), "lhs_value"),
    (338, 338.0, "rhs_value"), (338, decimal.Decimal(338), "rhs_value"),
], ids=["None", "float", "bool", "Decimal", "float-rhs", "Decimal-rhs"])
def test_trace_refuses_step_values_that_are_not_plain_ints(lhs, rhs, field):
    trace = trace_elegant(nth(3))
    steps = (trace.steps[0]._replace(lhs_value=lhs, rhs_value=rhs), *trace.steps[1:])
    shown = repr(lhs if field == "lhs_value" else rhs)
    with pytest.raises(ValueError, match=f"^{field} of step II.10 must be an integer, got {re.escape(shown)}$"):
        DerivationTrace(trace.pair, steps)


def test_trace_rejects_wrong_step_order():
    trace = trace_elegant(SideDiameterPair(2, 3))
    with pytest.raises(ValueError):
        DerivationTrace(trace.pair, tuple(reversed(trace.steps)))


def test_trace_rejects_unbalanced_step():
    trace = trace_elegant(SideDiameterPair(2, 3))
    broken = list(trace.steps)
    broken[0] = TraceStep("II.10", "1", "2", 1, 2)
    with pytest.raises(ValueError):
        DerivationTrace(trace.pair, tuple(broken))


@pytest.mark.parametrize("number", [int, decimal.Decimal])
def test_derivation_refuses_an_unbalanced_step_by_itself(number):
    p = nth(50)
    with decimal.localcontext(_exact._EXACT):
        a, d = number(p.a), number(p.d)
        text, steps, e = identities._derivation(a, d, p.sign)
        assert identities._derivation(a, d, None) == (text, steps, e) and e == p.sign
        assert [s._replace(lhs_expr="".join(s.lhs_expr), rhs_expr="".join(s.rhs_expr))
                for s in steps] == list(trace_elegant(p).steps)
        assert text == trace_elegant(p)._text
        with pytest.raises(ValueError, match="^unbalanced step hypothesis-substitution"):
            identities._derivation(a, d, -p.sign)


def test_trace_errors_on_huge_pairs_show_their_size(int_str_limit):
    int_str_limit(4300)
    trace = trace_elegant(nth(12000))  # 4,594-digit components
    broken = list(trace.steps)
    broken[1] = broken[1]._replace(rhs_value=broken[1].rhs_value + 1)
    with pytest.raises(ValueError) as info:
        DerivationTrace(trace.pair, tuple(broken))
    message = str(info.value)
    assert "unbalanced" in message and "bits>" in message and len(message) < 300


def test_named_identity_is_frozen():
    trace = trace_elegant(nth(3))
    report = run_method("babylonian", 1, 2)
    records = [(identity_catalog()[0], "name"), (nth(3), "a"), (trace, "pair"),
               (trace.steps[0], "lhs_value"), (report, "rows"), (report.rows[0], "value")]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_record_reprs_name_every_field():
    conclusion = trace_elegant(SideDiameterPair(2, 3)).conclusion()
    assert repr(conclusion) == ("TraceStep(justification='conclusion', lhs_expr='(2*2+3)^2', "
                                "rhs_expr='2*(2+3)^2 - 1', lhs_value=49, rhs_value=49)")
    row = run_method("babylonian", Fraction(3, 2), 1).rows[0]
    assert repr(row) == "ReportRow(step=1, value=Fraction(17, 12), correct_digits=2, side_of_sqrt2='over')"


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_trace_and_report_copies_are_equal(clone):
    for value in (trace_elegant(nth(7)), run_method("side_diameter", Fraction(3, 2), 4)):
        copied = clone(value)
        assert type(copied) is type(value) and copied == value and hash(copied) == hash(value)
