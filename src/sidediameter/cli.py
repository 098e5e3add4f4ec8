"""Command-line front end: pair tables, identity checks, traces, approximations.

`_GRAMMAR` states each verb's handler module, help and arguments once.  `run`
reads a plain argument list from it with `_read`, and argparse, built from it
by `build_parser`, reads help, usage errors and other spellings.  A command so
compiles only what its verb runs (`nth` and the shared helpers are here, `gen`,
`compare` and `approx` in `_tables`, `trace` and `verify` in `_proofs`), and
runs under `_exact._EXACT`.

Exit codes: 0 success, 1 domain error (reported on stderr), 2 usage error.
Data payloads go to stdout and are deterministic for a fixed argument list;
timing information is diagnostic and always goes to stderr.
"""

import contextlib
import decimal
import importlib
import os
import re
import sys
import time
import types

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


def _refused(message: str) -> Exception:
    """argparse's ArgumentTypeError: only a refused value loads argparse."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _refused(f"not an integer: {_echoed(text)!r}")
        if value < minimum:
            raise _refused(f"must be >= {minimum}, got {_echoed(value)}")
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
    raise _refused(f"not an integer: {_echoed(text)!r}")


def rational(text: str) -> "Fraction":
    from fractions import Fraction  # loaded only by the verbs that take a rational

    if re.fullmatch(_RATIONAL, text):
        with contextlib.suppress(ZeroDivisionError):
            return Fraction(text)
    raise _refused(f"not a rational NUM/DEN or integer: {_echoed(text)!r}")


# Each verb's handler module, help and arguments with argparse's keywords; one `group` argument must be given.
_GRAMMAR = {
    "gen": ("_tables", "emit the first N pairs as CSV or JSON", {
        "--count": dict(type=positive_int, required=True),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--digits": dict(type=nonnegative_int, default=DEFAULT_DECIMAL_DIGITS)}),
    "nth": ("cli", "compute the N-th pair by the fast doubling path", {
        "n": dict(type=positive_int),
        "--check-oracle": dict(action="store_true", help="check the printed pair against (1 + sqrt(2))**N"
                               " modulo 2**61 - 1; wall times go to stderr")}),
    "verify": ("_proofs", "verify catalog identities symbolically", {
        "--identity": dict(metavar="NAME", help="one catalog identity; an unknown name lists them", group=True),
        "--all": dict(action="store_true", group=True)}),
    "trace": ("_proofs", "derivation trace for a pair (JSON or --pretty)", {
        "pair": dict(nargs="*", type=decimal_integer, metavar="INT", help="the pair as two integers: A D"),
        "--n": dict(type=positive_int, help="use the N-th pair instead of A D"),
        "--pretty": dict(action="store_true")}),
    "approx": ("_tables", "one approximation step, preimages, or digit count", {
        "action": dict(choices=("step", "preimage", "digits")),
        "value": dict(type=rational),
        "--method": dict(choices=("babylonian", "sd"), help="step and preimage only (default: babylonian)"),
        "--cap": dict(type=positive_int, help=f"digits only (default: {DEFAULT_DIGIT_CAP})")}),
    "compare": ("_tables", "run both methods and tabulate convergence", {
        "--start": dict(type=rational, default="1"),
        "--steps": dict(type=nonnegative_int, required=True),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--digits": dict(type=nonnegative_int, default=DEFAULT_DECIMAL_DIGITS),
        "--cap": dict(type=positive_int, default=DEFAULT_DIGIT_CAP)}),
}


def build_parser():
    """argparse's parser of every verb, built from `_GRAMMAR`, for what `_read` declines."""
    from sidediameter import _parser

    return _parser.build()


def _read(argv):
    """argparse's namespace for a plain argument list, or None for argparse to read it.

    Plain: the verb, its positionals, then options in full, once each, with a value not starting
    with `-` (a flag has none); every required one; values of their type and choices.
    """
    if not argv or argv[0] not in _GRAMMAR or "" in argv:
        return None
    grammar, words = _GRAMMAR[argv[0]][2], argv[1:]
    cut = next((i for i, word in enumerate(words) if word[0] == "-"), len(words))
    names = [name for name in grammar if name[0] != "-"]
    star = names and "nargs" in grammar[names[0]]  # trace's pair takes them all
    if not star and cut != len(names):
        return None
    texts = dict(zip(names, [words[:cut]] if star else words))
    options = iter(words[cut:])
    for word in options:  # a positional's name is in texts already
        value = "action" in grammar.get(word, {}) or next(options, "-")
        if word not in grammar or word in texts or value is not True and value[0] == "-":
            return None
        texts[word] = value
    group = {name for name in grammar if "group" in grammar[name]}
    if group and len(group & texts.keys()) != 1:
        return None
    args = {"verb": argv[0]}
    for name, spec in grammar.items():
        text, kind = texts.get(name, spec.get("default")), spec.get("type", str)
        if "required" in spec and name not in texts:
            return None
        try:  # on any failure argparse runs the type again, as it always has
            args[name.lstrip("-").replace("-", "_")] = value = (
                name in texts if "action" in spec else [kind(t) for t in text] if "nargs" in spec
                else kind(text) if type(text) is str else text)
        except Exception:
            return None
        if name in texts and value not in spec.get("choices", [value]):
            return None
    return types.SimpleNamespace(**args)


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
# arguments before computing; README gives the cost of outputs below it.
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

    libmpdec's products and `to_decimal`'s linear str() skip CPython's int squaring and
    int->decimal conversion.  `_exact._nth_checked` checks the pair at half size, so e is
    (-1)**n.  It runs under the `_exact._EXACT` that `run` enters.
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

    Payload on stdout, diagnostics on stderr; both default to the process
    streams.  Every handler, and every write of the pieces it makes, runs
    under `_exact._EXACT`.
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
        verb = argv[0] if argv and argv[0] in _GRAMMAR else None
        # Compiled before `_read`: without that, `trace --n 93350` peaked 0.03 MB higher, 0.11 MB with gc off.
        if verb:
            importlib.import_module(f"sidediameter.{_GRAMMAR[verb][0]}")
        if verb == "approx":
            from sidediameter import approx  # noqa: F401
        try:
            args = _read(argv) or build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        handler = getattr(importlib.import_module(f"sidediameter.{_GRAMMAR[args.verb][0]}"), f"_cmd_{args.verb}")
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
        # A closed pipe (`| head`) needs no message, any other failed write (a full disk) one
        # line; stdout then points at devnull, so the flush at exit cannot raise a second time.
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
    # One copy: the verb modules and `_parser` import this one, and `run` catches their `UsageError`.
    sys.modules["sidediameter.cli"] = sys.modules[__name__]
    main()
