"""No inexact step enters the package's source: a scan of its syntax trees.

Values alone cannot show this everywhere: a float estimate that happens to land on
the right integer prints the same digits.  An allowed use that moves is a one-line
edit of the allow-lists below.
"""

import ast
from pathlib import Path

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
