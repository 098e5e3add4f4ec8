"""Command-line front end: pair tables, identity checks, traces, approximations.

`_VERBS` names the module of each verb's handler `_cmd_<verb>`.  `run`
imports the running verb's module from it, then builds that verb's parser
alone: with no bytecode cache, each command compiles only the modules its
verb runs.  After parsing it takes the handler from the same table and runs
it under `_exact._EXACT`, the one exact context of every verb.  This module
holds the parser, `run`, `main`, the `nth` handler and the helpers that
several verbs share.  `nth` loads `_exact` alone; the table verbs `gen`,
`compare` and `approx` run in `_tables`, and the proof verbs `trace` and
`verify` in `_proofs`.

Exit codes: 0 success, 1 domain error (reported on stderr), 2 usage error.
Data payloads go to stdout and are deterministic for a fixed argument list;
timing information is diagnostic and always goes to stderr.
"""

import argparse
import contextlib
import decimal
import importlib
import os
import re
import sys
import time

from sidediameter import _exact
from sidediameter._exact import _PRIME, DEFAULT_DECIMAL_DIGITS, DEFAULT_DIGIT_CAP


class UsageError(Exception):
    """Argument combinations argparse cannot express; mapped to exit 2."""


def _echoed(value) -> str:
    """str(value) for a usage message, cut to its first 20 characters and its length past 40.

    A huge int shows its size (`_exact._shown`), so it is never converted to decimal.
    """
    text = _exact._shown(value, str)
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
        return _exact._EXACT.plus(decimal.Decimal(text))
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


# The module that holds each verb's handler `_cmd_<verb>`.
_VERBS = {"gen": "_tables", "nth": "cli", "verify": "_proofs", "trace": "_proofs", "approx": "_tables",
          "compare": "_tables"}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of the verb `only` alone, which reads that verb's argument lists alike."""
    parser = _Parser(
        prog="sidediameter",
        description="Exact arithmetic for side-and-diameter numbers.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def verb(name: str, help_text: str):
        """The subparser of verb `name`, or None when the parser is built for another verb alone."""
        if only in (None, name):
            return sub.add_parser(name, help=help_text)

    if gen := verb("gen", "emit the first N pairs as CSV or JSON"):
        gen.add_argument("--count", type=positive_int, required=True)
        gen.add_argument("--format", choices=("csv", "json"), default="csv")
        gen.add_argument("--digits", type=nonnegative_int, default=DEFAULT_DECIMAL_DIGITS)

    if nth := verb("nth", "compute the N-th pair by the fast doubling path"):
        nth.add_argument("n", type=positive_int)
        nth.add_argument("--check-oracle", action="store_true",
                         help="check the printed pair against (1 + sqrt(2))**N modulo 2**61 - 1; wall times go to stderr")

    if verify := verb("verify", "verify catalog identities symbolically"):
        group = verify.add_mutually_exclusive_group(required=True)
        group.add_argument("--identity", metavar="NAME", help="one catalog identity; an unknown name lists them")
        group.add_argument("--all", action="store_true")

    if trace := verb("trace", "derivation trace for a pair (JSON or --pretty)"):
        trace.add_argument("pair", nargs="*", type=decimal_integer, metavar="INT",
                           help="the pair as two integers: A D")
        trace.add_argument("--n", type=positive_int, help="use the N-th pair instead of A D")
        trace.add_argument("--pretty", action="store_true")

    if ap := verb("approx", "one approximation step, preimages, or digit count"):
        ap.add_argument("action", choices=("step", "preimage", "digits"))
        ap.add_argument("value", type=rational)
        ap.add_argument("--method", choices=("babylonian", "sd"),
                        help="step and preimage only (default: babylonian)")
        ap.add_argument("--cap", type=positive_int,
                        help=f"digits only (default: {DEFAULT_DIGIT_CAP})")

    if compare := verb("compare", "run both methods and tabulate convergence"):
        compare.add_argument("--start", type=rational, default="1")
        compare.add_argument("--steps", type=nonnegative_int, required=True)
        compare.add_argument("--format", choices=("csv", "json"), default="csv")
        compare.add_argument("--digits", type=nonnegative_int, default=DEFAULT_DECIMAL_DIGITS)
        compare.add_argument("--cap", type=positive_int, default=DEFAULT_DIGIT_CAP)

    return parser


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


def _write(pieces) -> None:
    """Write each of `pieces` as it is made, then the final line end."""
    write = sys.stdout.write
    for piece in pieces:
        write(piece)
    write("\n")


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


def _check_printed_digits(verb: str, estimate: int) -> None:
    """Refuse `verb` if it would print more than `_PRINTED_DIGIT_LIMIT` digits; integers only."""
    if estimate > _PRINTED_DIGIT_LIMIT:
        shown = str(estimate)
        if len(shown) > 20:
            shown = f"{shown[0]}.{shown[1:3]}e{len(shown) - 1}"
        raise ValueError(f"{verb} would print about {shown} digits, over the limit of {_PRINTED_DIGIT_LIMIT}")


def _nth_line(n: int) -> tuple[str, ...]:
    """The `nth` line of pair n as its pieces `n=N a=`, a, ` d=`, d and ` e=E`, in exact Decimal.

    libmpdec multiplies huge operands by a number-theoretic transform and
    `to_decimal` prints a Decimal by its linear str(), so this skips
    CPython's int squaring and int->decimal conversion.  `_exact._nth_checked`
    checks the pair at half size in Decimal, so e is (-1)**n.  It runs under the
    caller's `_exact._EXACT`, which `run` enters for every verb.
    """
    a, d = _exact._nth_checked(n, decimal.Decimal(1))
    return f"n={n} a=", _exact.to_decimal(a), " d=", _exact.to_decimal(d), f" e={-1 if n % 2 else 1}"


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
    # Linear in exact Decimal, where int() of the digits is quadratic.
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


def run(argv, stdout=None, stderr=None) -> int:
    """Parse argv and execute; returns the process exit code.

    Payload on stdout, diagnostics on stderr.  Streams default to the
    process streams and can be replaced for testing.  Every handler, and
    every write of the pieces it makes, runs under `_exact._EXACT`.
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
        verb = argv[0] if argv and argv[0] in _VERBS else None
        # The handler's modules are compiled before the parser's objects are live.
        if verb:
            importlib.import_module(f"sidediameter.{_VERBS[verb]}")
        if verb == "approx":
            from sidediameter import approx  # noqa: F401
        parser = build_parser(verb)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        handler = getattr(importlib.import_module(f"sidediameter.{_VERBS[args.verb]}"), f"_cmd_{args.verb}")
        stack.enter_context(decimal.localcontext(_exact._EXACT))
        try:
            return handler(args)
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


def __getattr__(name: str):
    """`cli.pairs`, imported on first use, for callers that reach the pair API through this module."""
    if name == "pairs":
        from sidediameter import pairs

        return pairs
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    # Under `python -m sidediameter.cli`, this copy is the one that `_tables` and `_proofs`
    # import, so the `UsageError` they raise is the one `run` catches, and no second copy compiles.
    sys.modules["sidediameter.cli"] = sys.modules[__name__]
    main()
