"""The table verbs of the command line: `gen`, `compare` and `approx`.

Only these verbs read or print rationals, so only they load this module.
`gen` and `compare` run on the stepper, digit kernel and row serializer of
`_steps`, which loads neither `approx` nor `fractions`; `compare` loads
`fractions` for its `--start` alone, and only the `approx` verb loads
`approx`.  `gen` and `compare` step and write their tables in exact Decimal,
under the `_EXACT` that `cli.run` enters for every handler: libmpdec
multiplies huge operands by a number-theoretic transform and `to_decimal`
prints a Decimal by its linear str(), so no CPython int squaring or
int->decimal conversion is paid.
"""

import decimal
import itertools

from sidediameter import _steps
from sidediameter._exact import DEFAULT_DIGIT_CAP, _positive_fraction, to_decimal
from sidediameter.cli import UsageError, _check_printed_digits, _component_digits, _json, _write

_GEN_COLUMNS = ("n", "a", "d", "e", "ratio_decimal", "correct_digits")


# Rows of fewer characters are joined and written at once.  One write per piece
# costs about 5 us a row, 10% of `gen --count 1500`; joining the 10**5-digit rows
# of `compare --steps 19` would hold each of them twice.
_JOINED_ROW_CHARS = 1 << 16


def _table(fmt: str, columns: tuple[str, ...], rows, indent: str = "\n"):
    """`rows`, tuples of cells, in pieces as they are made: CSV under a header line, or `_json`
    of a list of dicts keyed by `columns`, laid out on a line that `indent` starts.  No table
    and no row of `_JOINED_ROW_CHARS` or more is joined.  An empty table is the header or `[]`."""
    if fmt == "csv":
        lead, separator, tail, template = ",".join(columns) + "\n", "\n", "", ",".join(["%s"] * len(columns))
    else:
        inner = indent + "  "
        lead, separator, tail = "[" + inner, "," + inner, indent + "]"
        template = "".join(_json(dict.fromkeys(columns, "%s"), inner))
    row = template.split("%s")
    end = lead.strip() + tail.strip()
    for cells in rows:
        if sum(map(len, cells)) < _JOINED_ROW_CHARS:
            yield lead + template % cells
        else:
            yield lead
            for before, cell in zip(row, cells):
                yield before
                yield cell
            yield row[-1]
        lead, end = separator, tail
    yield end


def _cmd_gen(args) -> int:
    """The first pairs as `compare`'s side_diameter rows from 1, stepped and written in exact Decimal."""
    # The a and d columns hold at most 2 * sum of ceil(0.3828 * i) <=
    # ceil(0.3828 * count * (count + 1)) + 2 * count digits; the other columns
    # of a row add `digits` places and at most ten more digits below 10**6 rows.
    _check_printed_digits("gen", _component_digits(args.count * (args.count + 1)) + args.count * (args.digits + 12))
    # Pair n + 1 is `compare`'s side_diameter row of step n from 1, value d/a, whose carried
    # residual d**2 - 2*a**2 is -1 exactly where the side is under; pair 1 is the start state 1/1 at step 0.
    def cells(row):
        _, num, den, value, correct, side = _steps._cells(*row, args.digits)
        return str(row[0] + 1), den, num, "-1" if side == "under" else "1", value, correct

    one = decimal.Decimal(1)
    steps = _steps._rows("side_diameter", one, one, args.count - 1, DEFAULT_DIGIT_CAP)
    _write(_table(args.format, _GEN_COLUMNS, map(cells, itertools.chain([(0, one, one, 0, "under")], steps))))
    return 0


def _compare_digits(start: "Fraction", steps: int, places: int) -> int:
    """About the digits `compare` prints: each row's numerator, denominator and places.

    For start p/q, p + q*sqrt(2) < 2**L with L = bitlen(p + 2q).  The Babylonian
    step squares p + q*sqrt(2) and the ratio step multiplies it by 1 + sqrt(2),
    so at step k each component has at most 2**k * L bits, or L bits and
    0.3828 * k digits, in the two methods.  Over both components of all rows,
    that is at most 2 * log10(2) * L * (2**(steps + 1) - 2 + steps) +
    0.3828 * steps * (steps + 1) + 4 * steps digits.
    """
    bits = (start.numerator + 2 * start.denominator).bit_length()
    # Past 64 steps the Babylonian rows alone are far over the limit, so their count stops
    # there, and the refusal gives that lower figure.
    doubled = 2 ** (min(steps, 64) + 1) - 2
    components = 2 * 30103 * bits * (doubled + steps) // 100000 + _component_digits(steps * (steps + 1))
    return components + 2 * steps * (places + 2)


def _cmd_approx(args) -> int:
    from sidediameter import approx  # the `approx` verb alone loads the Fraction API

    unread = "method" if args.action == "digits" else "cap"
    if getattr(args, unread) is not None:
        raise UsageError(f"--{unread} does not apply to approx {args.action}")
    if args.action == "step":
        advance = approx.sd_ratio_step if args.method == "sd" else approx.babylonian_step
        print(to_decimal(advance(args.value)))
    elif args.action == "preimage":
        if args.method == "sd":
            raise UsageError("preimage is defined for the babylonian method only")
        roots = sorted(approx.babylonian_preimage(args.value))
        print("preimages: " + (", ".join(to_decimal(r) for r in roots) if roots else "none"))
    else:
        print(approx.correct_digits(args.value, args.cap or DEFAULT_DIGIT_CAP))
    return 0


def _cmd_compare(args) -> int:
    """Both methods' rows, written as `_steps._rows` makes them.  The JSON is, byte for byte,
    `json.dumps(..., indent=2)` of the reports' `to_json_dict`s under `start` and `steps`.

    The rows are stepped and printed in exact Decimal: `cli.run`'s `_EXACT` encloses the
    write, where the generators run.  The seed is read from the start's digits, which
    `to_decimal` makes in subquadratic time.
    """
    start = _positive_fraction(args.start, "start")  # before the estimate and the first write
    _check_printed_digits("compare", _compare_digits(start, args.steps, args.digits))
    p, q = (decimal.Decimal(to_decimal(x)) for x in (start.numerator, start.denominator))

    def cells(method):
        return (_steps._cells(*row, args.digits) for row in _steps._rows(method, p, q, args.steps, args.cap))

    if args.format == "csv":
        _write(_table("csv", ("method", *_steps._REPORT_COLUMNS),
                      ((method, *row) for method in _steps._METHOD_STEPS for row in cells(method))))
        return 0
    shown = to_decimal(start)
    _write(_json({"start": shown, "steps": str(args.steps), **{
        method: {"method": method, "start": shown, "rows": _table("json", _steps._REPORT_COLUMNS, cells(method), "\n    ")}
        for method in _steps._METHOD_STEPS}}))
    return 0
