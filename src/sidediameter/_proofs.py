"""The proof verbs of the command line: `trace` and `verify`.

Only these verbs print derivations or check the identity catalog, so only
they load this module, and `identities` and the pair records of `pairs` with
it; the other verbs never compile them.  `trace` computes, checks and prints
in exact Decimal, under the `_EXACT` that `cli.run` enters for every handler.
"""

import decimal

from sidediameter import _exact, identities
from sidediameter._out import _check_printed_digits, _component_digits, _json, _write
from sidediameter.cli import UsageError, _echoed


def _cmd_verify(args) -> int:
    by_name = identities.catalog_by_name()  # only verify builds the symbolic catalog
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
    """`trace_elegant`'s trace, computed, checked and printed in exact Decimal (see `_out._nth_line`).

    `_exact._pell_sign` checks a pair A D in Decimal, on the squares that the steps use, and reads e.  `--n K`
    needs no check: the hypothesis-substitution step balances only when d^2 - 2a^2 = (-1)^K.
    """
    if args.n is not None and not args.pair:
        # The trace prints a and d with their squares and step values: about 38 components.
        _check_printed_digits("trace --n", 38 * _component_digits(args.n))
        a, d = _exact._nth_components(args.n, decimal.Decimal(1))
        e = -1 if args.n % 2 else 1
    elif len(args.pair) == 2 and args.n is None:
        a, d = args.pair
        e = None
    else:
        raise UsageError("trace expects either two integers A D or --n K")
    text, steps, e = identities._derivation(a, d, e)
    # One write per piece: the digits of each value are held once, and no expression, line
    # or document is joined.
    _write(identities._pretty_laid_out(text, a, d, e, steps) if args.pretty
           else _json(identities._trace_document(text, a, d, e, steps)))
    return 0
