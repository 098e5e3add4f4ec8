"""The printing verbs' shared writers, and the `nth` verb.

`_tables` and `_proofs` write through `_write` and `_json`, and refuse an
output over `_PRINTED_DIGIT_LIMIT` digits with `_check_printed_digits` before
any core runs.  Neither this code nor `nth`'s handler lives in `cli`: with no
bytecode cache every command compiles each module it loads, the memory of
one compile is freed before the next, so a command's peak follows its largest
module, and `cli` is loaded by every verb.  `_cmd_nth` runs under the
`_exact._EXACT` that `cli.run` enters for every handler.
"""

import decimal
import re
import sys
import time

from sidediameter import _exact
from sidediameter._exact import _PRIME


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
