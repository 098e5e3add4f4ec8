"""No inexact step enters the package: a scan of its syntax trees, and every verb under a hostile context.

Values alone cannot show this everywhere: a float estimate that happens to land on
the right integer prints the same digits.  An allowed use that moves is a one-line
edit of the allow-lists below.  A Decimal operation left outside `_exact._EXACT`
is exact under the default 28-digit context for small values, so the verbs and the
library renderers also run under a context that rounds to one digit and traps it.
"""

import ast
import decimal
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

from sidediameter import cli, nth, to_decimal, trace_elegant

SOURCE = Path(__file__).parents[1] / "src" / "sidediameter"

# True division, on Fractions, happens only in these (module, function) places.
DIVIDING = {("approx.py", "babylonian_step"), ("approx.py", "sd_ratio_step")}
# Modules that read a clock, and the package modules that may import them.
CLOCKS = {"time", "datetime"}
CLOCK_READERS = {"cli.py"}


def _below(module: str, function, node):
    """(module, enclosing function or None, node) for each node below `node`."""
    for child in ast.iter_child_nodes(node):
        yield module, function, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _below(module, inner, child)


NODES = [found for path in sorted(SOURCE.glob("*.py"))
         for found in _below(path.name, None, ast.parse(path.read_text(), path.name))]


def test_no_float_enters_the_source():
    floats = [(module, node.lineno) for module, _, node in NODES
              if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
              or isinstance(node, ast.Name) and node.id == "float"]
    assert floats == []


def test_one_exact_context_is_entered_by_run():
    # `cli.run` enters `_exact._EXACT` for every verb, so no handler opens a context of its own.
    entered = [(module, function) for module, function, node in NODES
               if isinstance(node, ast.Call) and "localcontext" in (getattr(node.func, "attr", None),
                                                                    getattr(node.func, "id", None))]
    assert entered == [("cli.py", "run")]


def test_math_is_used_only_for_isqrt():
    used = {node.attr for _, _, node in NODES
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math"}
    imported = {alias.name for _, _, node in NODES if isinstance(node, ast.ImportFrom) and node.module == "math"
                for alias in node.names}
    assert used | imported == {"isqrt"}


def test_clocks_are_read_only_in_cli():
    readers = {module for module, _, node in NODES
               if isinstance(node, ast.Import) and any(a.name.split(".")[0] in CLOCKS for a in node.names)
               or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in CLOCKS}
    assert readers <= CLOCK_READERS


def test_true_division_only_in_the_two_fraction_steps():
    dividing = {(module, function) for module, function, node in NODES
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)}
    assert dividing == DIVIDING


HOSTILE = decimal.Context(prec=1, traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow,
                                         decimal.InvalidOperation])


def _big():
    """Pair 12000 and the digits of its a and d, computed when a test runs, not at collection.

    Its 4,594 digits each lie past the size where `to_decimal` leaves str() for ints.
    """
    big = nth(12000)
    return big, to_decimal(big.a), to_decimal(big.d)


def _run(argv):
    """cli.run's exit code, stdout and stderr, with the wall times of `nth --check-oracle` masked."""
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), re.sub(r"_seconds=[0-9.]+", "_seconds=", err.getvalue())


@pytest.mark.parametrize("argv", [
    ["nth", "12000"],
    ["nth", "64", "--check-oracle"],
    ["nth", "400001", "--check-oracle"],
    ["trace", "--n", "12000"],
    ["trace", "--n", "3000", "--pretty"],
    # A and D stand for the digits of pair 12000.
    ["trace", "A", "D"],
    ["trace", "A", "D", "--pretty"],
    ["gen", "--count", "300"],
    ["gen", "--count", "300", "--format", "json", "--digits", "100"],
    # Every digit count walks below the cap, and 20,000 places come from a Decimal division.
    ["gen", "--count", "60", "--digits", "20000"],
    ["compare", "--start", "7/5", "--steps", "12"],
    ["compare", "--steps", "14", "--format", "json"],
    # Rows of Decimals whose counts walk below the cap, and 120 places from a Decimal division.
    ["compare", "--start", "19/13", "--steps", "12", "--cap", "400", "--digits", "120", "--format", "json"],
    ["approx", "step", "D/A"],
    ["approx", "preimage", "17/12"],
    ["approx", "digits", "D/A"],
    ["verify", "--all"],
    # Refusals and domain errors print their messages under the same context.
    ["nth", "130616510"],
    ["trace", "A", "A"],
], ids=" ".join)
def test_every_verb_prints_the_same_under_a_hostile_decimal_context(argv):
    _, a, d = _big()
    argv = [{"A": a, "D": d, "D/A": f"{d}/{a}"}.get(arg, arg) for arg in argv]
    expected = _run(argv)
    with decimal.localcontext(HOSTILE):
        assert _run(argv) == expected


def test_library_renderers_print_the_same_under_a_hostile_decimal_context():
    big, big_a, _ = _big()

    def rendered():
        trace = trace_elegant(nth(3000))
        return (to_decimal(big.d), to_decimal(Fraction(big.d, big.a)), to_decimal(decimal.Decimal(big_a)),
                trace.pretty(), trace.to_json_dict())

    expected = rendered()
    with decimal.localcontext(HOSTILE):
        assert rendered() == expected
