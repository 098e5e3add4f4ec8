"""Command-line front end: pair tables, identity checks, traces, approximations.

Exit codes: 0 success, 1 domain error (reported on stderr), 2 usage error.
Data payloads go to stdout and are deterministic for a fixed argument list;
timing information is diagnostic and always goes to stderr.
"""

import argparse
import contextlib
import decimal
import os
import re
import sys
import time
from fractions import Fraction

from sidediameter import approx, pairs


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
        return approx._EXACT.plus(decimal.Decimal(text))
    raise argparse.ArgumentTypeError(f"not an integer: {_echoed(text)!r}")


def rational(text: str) -> Fraction:
    if re.fullmatch(_RATIONAL, text):
        with contextlib.suppress(ZeroDivisionError):
            return Fraction(text)
    raise argparse.ArgumentTypeError(f"not a rational NUM/DEN or integer: {_echoed(text)!r}")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with each over-long token of its own error messages cut by `_echoed`.

    Subparsers are made of the same class, so `invalid choice` errors of any verb are cut too.
    """

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
    gen.add_argument("--digits", type=nonnegative_int, default=approx.DEFAULT_DECIMAL_DIGITS)
    gen.set_defaults(handler=_cmd_gen)

    nth = sub.add_parser("nth", help="compute the N-th pair by the fast doubling path")
    nth.add_argument("n", type=positive_int)
    nth.add_argument("--check-oracle", action="store_true",
                     help="confirm against the iterative path; both wall times go to stderr")
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
                    help=f"digits only (default: {approx.DEFAULT_DIGIT_CAP})")
    ap.set_defaults(handler=_cmd_approx)

    compare = sub.add_parser("compare", help="run both methods and tabulate convergence")
    compare.add_argument("--start", type=rational, default=Fraction(1))
    compare.add_argument("--steps", type=nonnegative_int, required=True)
    compare.add_argument("--format", choices=("csv", "json"), default="csv")
    compare.add_argument("--digits", type=nonnegative_int, default=approx.DEFAULT_DECIMAL_DIGITS)
    compare.add_argument("--cap", type=positive_int, default=approx.DEFAULT_DIGIT_CAP)
    compare.set_defaults(handler=_cmd_compare)

    return parser


def _pair_line(n: int, a, d, e: int) -> str:
    """The `nth` line of pair n with components a and d, ints or Decimals, and sign e."""
    return f"n={n} a={approx.to_decimal(a)} d={approx.to_decimal(d)} e={e}"


_GEN_COLUMNS = ("n", "a", "d", "e", "ratio_decimal", "correct_digits")


def _gen_row(n: int, a, d, digits: int) -> tuple[str, ...]:
    """One `gen` row of pair n = (a, d) as strings, one per column of `_GEN_COLUMNS`.

    The walk from the seed made the pair, so its sign is (-1)**n and d/a goes
    to the trusted digit helpers with its Pell residual |d**2 - 2*a**2| = 1.
    """
    return (
        str(n),
        approx.to_decimal(a),
        approx.to_decimal(d),
        "-1" if n % 2 else "1",
        approx._decimal_string(d, a, digits),
        str(approx._correct_digits(d, a, 1, approx.DEFAULT_DIGIT_CAP)),
    )


# Per format: the text before the first row, between rows and after the last,
# and the row template.  Every cell is ASCII digits, `-` or `.`, so the JSON
# template gives `json.dumps(rows, indent=2)` byte for byte.
_GEN_LAYOUTS = {
    "csv": (",".join(_GEN_COLUMNS) + "\n", "\n", "\n", ",".join(["%s"] * len(_GEN_COLUMNS))),
    "json": ("[\n", ",\n", "\n]\n",
             "  {\n" + ",\n".join(f'    "{c}": "%s"' for c in _GEN_COLUMNS) + "\n  }"),
}


def _cmd_gen(args) -> int:
    # The a and d columns hold at most 2 * sum of ceil(0.3828 * i) <=
    # ceil(0.3828 * count * (count + 1)) + 2 * count digits; the other columns
    # of a row add `digits` places and at most ten more digits below 10**6 rows.
    _check_printed_digits("gen", _component_digits(args.count * (args.count + 1)) + args.count * (args.digits + 12))
    lead, separator, tail, row = _GEN_LAYOUTS[args.format]
    # One write per row, as it is made: no list of pairs, table of rows or document is held.
    for n, (a, d) in zip(range(1, args.count + 1), pairs._walk()):
        sys.stdout.write(lead + row % _gen_row(n, a, d, args.digits))
        lead = separator
    sys.stdout.write(tail)
    return 0


# Digits above which `nth`, `trace --n`, `gen` and `compare` refuse their
# arguments before computing.  Well below it, in process on a 2-CPU VM:
# `nth 20000000` printed 15.3 MB in 3.6 s at 69 MB peak RSS, and
# `trace --n 1000000` 14.5 MB in 2.3 s at 58 MB.
_PRINTED_DIGIT_LIMIT = 10**8
# Largest index `nth --check-oracle` takes.  Its linear oracle's time grows
# about quadratically: in process on that VM, 0.67 s at 10**5, 2.5 s at
# 2*10**5 and 11 s at 4*10**5.
_ORACLE_INDEX_LIMIT = 400_000


def _component_digits(n: int) -> int:
    """ceil(0.3828 * n), at least the digits of each component of pair n: log10(1 + sqrt(2)) < 0.3828."""
    return -(-3828 * n // 10000)


def _compare_digits(start: Fraction, steps: int, places: int) -> int:
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


def _check_oracle_index(n: int) -> None:
    if n > _ORACLE_INDEX_LIMIT:
        raise ValueError(f"nth --check-oracle takes indices up to the limit of {_ORACLE_INDEX_LIMIT}")


def _nth_line(n: int) -> str:
    """`_pair_line` of `pairs.nth(n)`'s components, computed, checked and printed in exact Decimal.

    libmpdec multiplies huge operands by a number-theoretic transform and
    `to_decimal` prints a Decimal by its linear str(), so this skips
    CPython's int squaring and int->decimal conversion.  `pairs._pell_sign`
    checks the pair and its index n in Decimal.
    """
    with decimal.localcontext(approx._EXACT):
        a, d = pairs._nth_components(n, decimal.Decimal(1))
        e = pairs._pell_sign(a, d, n)
    return _pair_line(n, a, d, e)


def _cmd_nth(args) -> int:
    _check_printed_digits("nth", 2 * _component_digits(args.n))
    if args.check_oracle:
        _check_oracle_index(args.n)
    begin = time.perf_counter()
    line = _nth_line(args.n)
    fast_seconds = time.perf_counter() - begin
    print(line)
    if not args.check_oracle:
        return 0
    begin = time.perf_counter()
    p = pairs.nth_iterative(args.n)
    oracle = _pair_line(p.index, p.a, p.d, p.sign)
    iterative_seconds = time.perf_counter() - begin
    print(f"fast_seconds={fast_seconds:.6f}", file=sys.stderr)
    print(f"iterative_seconds={iterative_seconds:.6f}", file=sys.stderr)
    if line != oracle:
        print(f"oracle mismatch: fast and iterative paths disagree at n={args.n}",
              file=sys.stderr)
        return 1
    print("oracle: match")
    return 0


def _cmd_verify(args) -> int:
    from sidediameter import identities  # builds the symbolic catalog; only verify and trace need it

    if args.all:
        catalog = identities.identity_catalog()
    else:
        by_name = identities.catalog_by_name()
        if args.identity not in by_name:
            raise UsageError(f"unknown identity {_echoed(args.identity)!r}; "
                             f"choose from {', '.join(sorted(by_name))}")
        catalog = [by_name[args.identity]]
    all_ok = True
    for ident in catalog:
        ok = ident.holds()
        all_ok = all_ok and ok
        print(f"{ident.name}: {'OK' if ok else 'FAIL'}")
    return 0 if all_ok else 1


def _cmd_trace(args) -> int:
    """`trace_elegant`'s trace, computed, checked and printed in exact Decimal (see `_nth_line`).

    `pairs._pell_sign` checks a pair A D in Decimal.  `--n K` needs no check: the
    hypothesis-substitution step balances only when d^2 - 2a^2 = (-1)^K.
    """
    from sidediameter import identities

    with decimal.localcontext(approx._EXACT):
        if args.n is not None and not args.pair:
            # The trace prints a and d with their squares and step values: about 38 components.
            _check_printed_digits("trace --n", 38 * _component_digits(args.n))
            a, d = pairs._nth_components(args.n, decimal.Decimal(1))
            e = -1 if args.n % 2 else 1
        elif len(args.pair) == 2 and args.n is None:
            a, d = args.pair
            e = pairs._pell_sign(a, d)
        else:
            raise UsageError("trace expects either two integers A D or --n K")
        text, steps = identities._derivation(a, d, e)
    layout = identities._pretty_laid_out if args.pretty else identities._json_laid_out
    # One write per piece: the digits of each value are held once, and no expression, line
    # or document is joined.
    for piece in layout(text, a, d, e, steps):
        sys.stdout.write(piece)
    sys.stdout.write("\n")
    return 0


def _cmd_approx(args) -> int:
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
        print(approx.correct_digits(args.value, args.cap or approx.DEFAULT_DIGIT_CAP))
    return 0


def _cmd_compare(args) -> int:
    _check_printed_digits("compare", _compare_digits(args.start, args.steps, args.digits))
    babylonian, side_diameter = approx.compare_methods(args.start, args.steps, args.cap)
    if args.format == "csv":
        lines = [",".join((report.method, *row.fields(args.digits)))
                 for report in (babylonian, side_diameter) for row in report.rows]
        print(",".join(("method", *approx._REPORT_COLUMNS)), *lines, sep="\n")
    else:
        import json

        # Whole: the document is small, and `json.dump` would write each of its hundreds of chunks.
        print(json.dumps(
            {
                "start": approx.to_decimal(args.start),
                "steps": str(args.steps),
                "babylonian": babylonian.to_json_dict(args.digits),
                "side_diameter": side_diameter.to_json_dict(args.digits),
            },
            indent=2,
        ))
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
