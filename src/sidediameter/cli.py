"""Command-line front end: pair tables, identity checks, traces, approximations.

Exit codes: 0 success, 1 domain error (reported on stderr), 2 usage error.
Data payloads go to stdout and are deterministic for a fixed argument list;
timing information is diagnostic and always goes to stderr.
"""

import argparse
import contextlib
import decimal
import itertools
import os
import re
import sys
import time

from sidediameter import pairs
from sidediameter.pairs import _PRIME, DEFAULT_DECIMAL_DIGITS, DEFAULT_DIGIT_CAP


class UsageError(Exception):
    """Argument combinations argparse cannot express; mapped to exit 2."""


def _echoed(value) -> str:
    """str(value) for a usage message, cut to its first 20 characters and its length past 40.

    A huge int shows its size (`pairs._shown`), so it is never converted to decimal.
    """
    text = pairs._shown(value, str)
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {_echoed(text)!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {_echoed(value)}")
        return value
    return parse


positive_int = _int_at_least(1)
nonnegative_int = _int_at_least(0)


# NUM/DEN or an integer.  Fraction() alone would also take decimal points and
# exponents, and build 10**999999999 for `1e999999999` before any check.
_RATIONAL = r"\s*[-+]?\d+(?:/\d+)?\s*"


# Exactly the strings int() takes: whitespace (not U+001C-U+001F, which int()
# refuses but \s matches), a sign, Unicode digits, single underscores between
# digits.  Decimal() alone would also take `1E0`, `12.`, `NaN` and `_1__2_`.
_INTEGER = r"[^\S\x1c-\x1f]*[-+]?\d+(?:_\d+)*[^\S\x1c-\x1f]*"


def decimal_integer(text: str) -> decimal.Decimal:
    """An argparse type: the integer that int(text) gives, as an exact Decimal; plus() makes -0 into 0."""
    if re.fullmatch(_INTEGER, text):
        return pairs._EXACT.plus(decimal.Decimal(text))
    raise argparse.ArgumentTypeError(f"not an integer: {_echoed(text)!r}")


def rational(text: str) -> "Fraction":
    from fractions import Fraction  # loaded only by the verbs that take a rational

    if re.fullmatch(_RATIONAL, text):
        with contextlib.suppress(ZeroDivisionError):
            return Fraction(text)
    raise argparse.ArgumentTypeError(f"not a rational NUM/DEN or integer: {_echoed(text)!r}")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with each over-long token of its own error messages cut by `_echoed`,
    and with `-NUM/DEN` read as a value, like `-1`, not as an unknown option.

    Subparsers are made of the same class, so `invalid choice` errors of any verb are cut too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        super().error(re.sub(r"[^\s'\"]{41,}", lambda m: _echoed(m.group()), message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sidediameter",
        description="Exact arithmetic for side-and-diameter numbers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    gen = sub.add_parser("gen", help="emit the first N pairs as CSV or JSON")
    gen.add_argument("--count", type=positive_int, required=True)
    gen.add_argument("--format", choices=("csv", "json"), default="csv")
    gen.add_argument("--digits", type=nonnegative_int, default=DEFAULT_DECIMAL_DIGITS)
    gen.set_defaults(handler=_cmd_gen)

    nth = sub.add_parser("nth", help="compute the N-th pair by the fast doubling path")
    nth.add_argument("n", type=positive_int)
    nth.add_argument("--check-oracle", action="store_true",
                     help="check the printed pair against (1 + sqrt(2))**N modulo 2**61 - 1; wall times go to stderr")
    nth.set_defaults(handler=_cmd_nth)

    verify = sub.add_parser("verify", help="verify catalog identities symbolically")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--identity", metavar="NAME", help="one catalog identity; an unknown name lists them")
    group.add_argument("--all", action="store_true")
    verify.set_defaults(handler=_cmd_verify)

    trace = sub.add_parser("trace", help="derivation trace for a pair (JSON or --pretty)")
    trace.add_argument("pair", nargs="*", type=decimal_integer, metavar="INT",
                       help="the pair as two integers: A D")
    trace.add_argument("--n", type=positive_int, help="use the N-th pair instead of A D")
    trace.add_argument("--pretty", action="store_true")
    trace.set_defaults(handler=_cmd_trace)

    ap = sub.add_parser("approx", help="one approximation step, preimages, or digit count")
    ap.add_argument("action", choices=("step", "preimage", "digits"))
    ap.add_argument("value", type=rational)
    ap.add_argument("--method", choices=("babylonian", "sd"),
                    help="step and preimage only (default: babylonian)")
    ap.add_argument("--cap", type=positive_int,
                    help=f"digits only (default: {DEFAULT_DIGIT_CAP})")
    ap.set_defaults(handler=_cmd_approx)

    compare = sub.add_parser("compare", help="run both methods and tabulate convergence")
    compare.add_argument("--start", type=rational, default="1")
    compare.add_argument("--steps", type=nonnegative_int, required=True)
    compare.add_argument("--format", choices=("csv", "json"), default="csv")
    compare.add_argument("--digits", type=nonnegative_int, default=DEFAULT_DECIMAL_DIGITS)
    compare.add_argument("--cap", type=positive_int, default=DEFAULT_DIGIT_CAP)
    compare.set_defaults(handler=_cmd_compare)

    return parser


_GEN_COLUMNS = ("n", "a", "d", "e", "ratio_decimal", "correct_digits")


def _json(value, indent: str = "\n"):
    """`json.dumps(value, indent=2)` in pieces, laid out on a line that `indent` starts.

    `value` is a str, an exact tuple of one string's pieces, a non-empty dict or list of
    these, or any other iterable, taken as text already laid out.  No string (digits, `-`,
    `.`, `/`, names and expressions) needs escaping.
    """
    if type(value) in (str, tuple):  # exact types: no NamedTuple is read as pieces
        yield '"'
        yield from (value,) if type(value) is str else value
        yield '"'
    elif type(value) in (dict, list):
        keyed, inner = type(value) is dict, indent + "  "
        yield "{" if keyed else "["
        for i, item in enumerate(value):
            yield ("," if i else "") + inner + (f'"{item}": ' if keyed else "")
            yield from _json(value[item] if keyed else item, inner)
        yield indent + ("}" if keyed else "]")
    else:
        yield from value


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


def _write(pieces) -> None:
    """Write each of `pieces` as it is made, then the final line end."""
    write = sys.stdout.write
    for piece in pieces:
        write(piece)
    write("\n")


def _cmd_gen(args) -> int:
    from sidediameter import approx  # only gen, compare and approx load it, and `fractions` with it

    # The a and d columns hold at most 2 * sum of ceil(0.3828 * i) <=
    # ceil(0.3828 * count * (count + 1)) + 2 * count digits; the other columns
    # of a row add `digits` places and at most ten more digits below 10**6 rows.
    _check_printed_digits("gen", _component_digits(args.count * (args.count + 1)) + args.count * (args.digits + 12))
    # Pair n + 1 is `compare`'s side_diameter row of step n from 1, value d/a, whose carried
    # residual d**2 - 2*a**2 is -1 exactly where the side is under; pair 1 is the start state 1/1 at step 0.
    def cells(row):
        _, num, den, value, correct, side = approx._cells(*row, args.digits)
        return str(row[0] + 1), den, num, "-1" if side == "under" else "1", value, correct

    steps = approx._rows("side_diameter", 1, 1, args.count - 1, DEFAULT_DIGIT_CAP)
    _write(_table(args.format, _GEN_COLUMNS, map(cells, itertools.chain([(0, 1, 1, 0, "under")], steps))))
    return 0


# Digits above which `nth`, `trace --n`, `gen` and `compare` refuse their
# arguments before computing.  Well below it, in process on a 2-CPU VM:
# `nth 20000000` printed 15.3 MB in 3.6 s at 69 MB peak RSS, and
# `trace --n 1000000` 14.5 MB in 2.3 s at 58 MB.
_PRINTED_DIGIT_LIMIT = 10**8
# Modulo the prime 2**61 - 1, 2**31 is a square root of 2, so pair n has d +- a*2**31 = (1 +- 2**31)**n.
# 1 + 2**31 has order (2**61 - 2)/2, so no other index under the digit limit has both residues.
_ROOT_2 = 2**31


def _component_digits(n: int) -> int:
    """ceil(0.3828 * n), at least the digits of each component of pair n: log10(1 + sqrt(2)) < 0.3828."""
    return -(-3828 * n // 10000)


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


def _check_printed_digits(verb: str, estimate: int) -> None:
    """Refuse `verb` if it would print more than `_PRINTED_DIGIT_LIMIT` digits; integers only."""
    if estimate > _PRINTED_DIGIT_LIMIT:
        shown = str(estimate)
        if len(shown) > 20:
            shown = f"{shown[0]}.{shown[1:3]}e{len(shown) - 1}"
        raise ValueError(f"{verb} would print about {shown} digits, over the limit of {_PRINTED_DIGIT_LIMIT}")


def _nth_line(n: int) -> tuple[str, ...]:
    """The `nth` line of `pairs.nth(n)` as its pieces `n=N a=`, a, ` d=`, d and ` e=E`, in exact Decimal.

    libmpdec multiplies huge operands by a number-theoretic transform and
    `to_decimal` prints a Decimal by its linear str(), so this skips
    CPython's int squaring and int->decimal conversion.  `pairs._nth_checked`
    checks the pair at half size in Decimal, so e is (-1)**n.
    """
    with decimal.localcontext(pairs._EXACT):
        a, d = pairs._nth_checked(n, decimal.Decimal(1))
    return f"n={n} a=", pairs.to_decimal(a), " d=", pairs.to_decimal(d), f" e={-1 if n % 2 else 1}"


def _cmd_nth(args) -> int:
    _check_printed_digits("nth", 2 * _component_digits(args.n))
    begin = time.perf_counter()
    pieces = _nth_line(args.n)
    fast_seconds = time.perf_counter() - begin
    _write(pieces)
    if not args.check_oracle:
        return 0
    begin = time.perf_counter()
    printed = (pieces[0::2] == (f"n={args.n} a=", " d=", f" e={-1 if args.n % 2 else 1}")
               and all(re.fullmatch("[1-9][0-9]*", x) for x in pieces[1::2]))
    with decimal.localcontext(pairs._EXACT):  # linear, where int() of the digits is quadratic
        a, d = (int(decimal.Decimal(x) % _PRIME) for x in pieces[1::2]) if printed else (0, 0)
    agrees = printed and all((d + s * a * _ROOT_2 - pow(1 + s * _ROOT_2, args.n, _PRIME)) % _PRIME == 0
                             for s in (1, -1))
    oracle_seconds = time.perf_counter() - begin
    print(f"fast_seconds={fast_seconds:.6f}", file=sys.stderr)
    print(f"oracle_seconds={oracle_seconds:.6f}", file=sys.stderr)
    if not agrees:
        print(f"oracle mismatch: the printed pair and (1 + sqrt(2))**n modulo 2**61 - 1 disagree at n={args.n}",
              file=sys.stderr)
        return 1
    print("oracle: match")
    return 0


def _cmd_verify(args) -> int:
    from sidediameter import identities  # only verify builds the symbolic catalog

    by_name = identities.catalog_by_name()
    if not args.all and args.identity not in by_name:
        raise UsageError(f"unknown identity {_echoed(args.identity)!r}; "
                         f"choose from {', '.join(sorted(by_name))}")
    all_ok = True
    for ident in by_name.values() if args.all else [by_name[args.identity]]:
        ok = ident.holds()
        all_ok = all_ok and ok
        print(f"{ident.name}: {'OK' if ok else 'FAIL'}")
    return 0 if all_ok else 1


def _cmd_trace(args) -> int:
    """`trace_elegant`'s trace, computed, checked and printed in exact Decimal (see `_nth_line`).

    `pairs._pell_sign` checks a pair A D in Decimal, on the squares that the steps use.  `--n K`
    needs no check: the hypothesis-substitution step balances only when d^2 - 2a^2 = (-1)^K.
    """
    from sidediameter import identities

    with decimal.localcontext(pairs._EXACT):
        if args.n is not None and not args.pair:
            # The trace prints a and d with their squares and step values: about 38 components.
            _check_printed_digits("trace --n", 38 * _component_digits(args.n))
            a, d = pairs._nth_components(args.n, decimal.Decimal(1))
            e = -1 if args.n % 2 else 1
        elif len(args.pair) == 2 and args.n is None:
            a, d = args.pair
            e = None
        else:
            raise UsageError("trace expects either two integers A D or --n K")
        text, steps = identities._derivation(a, d, e)
        if e is None:
            # A checked pair has d odd, so e = d^2 - 2a^2 = 1 - 2a^2 modulo 8: -1 exactly when a is odd.
            e = -1 if a % 2 else 1
    # One write per piece: the digits of each value are held once, and no expression, line
    # or document is joined.
    _write(identities._pretty_laid_out(text, a, d, e, steps) if args.pretty
           else _json(identities._trace_document(text, a, d, e, steps)))
    return 0


def _cmd_approx(args) -> int:
    from sidediameter import approx

    unread = "method" if args.action == "digits" else "cap"
    if getattr(args, unread) is not None:
        raise UsageError(f"--{unread} does not apply to approx {args.action}")
    if args.action == "step":
        advance = approx.sd_ratio_step if args.method == "sd" else approx.babylonian_step
        print(approx.to_decimal(advance(args.value)))
    elif args.action == "preimage":
        if args.method == "sd":
            raise UsageError("preimage is defined for the babylonian method only")
        roots = sorted(approx.babylonian_preimage(args.value))
        print("preimages: " + (", ".join(approx.to_decimal(r) for r in roots) if roots else "none"))
    else:
        print(approx.correct_digits(args.value, args.cap or DEFAULT_DIGIT_CAP))
    return 0


def _cmd_compare(args) -> int:
    """Both methods' rows, written as `approx._rows` makes them.  The JSON is, byte for byte,
    `json.dumps(..., indent=2)` of the reports' `to_json_dict`s under `start` and `steps`.

    The rows are stepped and printed in exact Decimal (see `_nth_line`): the table is written
    under `pairs._EXACT`, where the generators run.  The seed is read from the start's digits,
    which `to_decimal` makes in subquadratic time.
    """
    from sidediameter import approx

    start = approx._positive_fraction(args.start, "start")  # before the estimate and the first write
    _check_printed_digits("compare", _compare_digits(start, args.steps, args.digits))
    p, q = (decimal.Decimal(approx.to_decimal(x)) for x in (start.numerator, start.denominator))

    def cells(method):
        return (approx._cells(*row, args.digits) for row in approx._rows(method, p, q, args.steps, args.cap))

    with decimal.localcontext(pairs._EXACT):
        if args.format == "csv":
            _write(_table("csv", ("method", *approx._REPORT_COLUMNS),
                          ((method, *row) for method in approx._METHOD_STEPS for row in cells(method))))
            return 0
        shown = approx.to_decimal(start)
        _write(_json({"start": shown, "steps": str(args.steps), **{
            method: {"method": method, "start": shown, "rows": _table("json", approx._REPORT_COLUMNS, cells(method), "\n    ")}
            for method in approx._METHOD_STEPS}}))
    return 0


def run(argv, stdout=None, stderr=None) -> int:
    """Parse argv and execute; returns the process exit code.

    Payload on stdout, diagnostics on stderr.  Streams default to the
    process streams and can be replaced for testing.
    """
    with contextlib.ExitStack() as stack:
        if hasattr(sys, "set_int_max_str_digits"):
            # Big `rational` arguments and huge integer options need ints beyond
            # the default str() limit; the caller's limit comes back on return.
            stack.callback(sys.set_int_max_str_digits, sys.get_int_max_str_digits())
            sys.set_int_max_str_digits(0)
        if stdout is not None:
            stack.enter_context(contextlib.redirect_stdout(stdout))
        if stderr is not None:
            stack.enter_context(contextlib.redirect_stderr(stderr))
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            return args.handler(args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        # A reader that closed stdout early (`| head`) needs no message; any
        # other failed write (a full disk) gets one line.  Point stdout at
        # devnull so the interpreter's flush at exit cannot raise a second time.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
