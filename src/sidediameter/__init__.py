"""Exact arithmetic for side-and-diameter numbers.

Integer pairs (a, d) with d**2 - 2*a**2 = ±1, their recurrence and descent,
the quadratic identities behind them verified symbolically, derivation
traces for concrete pairs, and exact-rational analysis of two historical
algorithms approximating the square root of 2.

The names from `identities` and `polynomials` are imported on first use
(PEP 562), so commands that need no symbolic identity never build the
catalog.
"""

from sidediameter.approx import (
    ConvergenceReport,
    ReportRow,
    babylonian_preimage,
    babylonian_step,
    cf_convergent_sqrt2,
    compare_methods,
    correct_digits,
    decimal_digit_count,
    decimal_string,
    isqrt,
    ratio,
    run_method,
    sd_ratio_step,
    side_of_sqrt2,
    to_decimal,
)
from sidediameter.pairs import (
    DescentBelowSeedError,
    IdentityCheck,
    InvalidPairError,
    PlatoReport,
    SideDiameterPair,
    adjacent_rational_diameter,
    descend,
    encouraging_identity_check,
    generate,
    nth,
    nth_iterative,
    plato_check,
    seed,
    step,
)

__all__ = [
    "ConvergenceReport",
    "DerivationTrace",
    "DescentBelowSeedError",
    "IdentityCheck",
    "InvalidPairError",
    "MissingVariableError",
    "NamedIdentity",
    "PlatoReport",
    "Poly",
    "ReportRow",
    "SideDiameterPair",
    "TraceStep",
    "VariableMismatchError",
    "adjacent_rational_diameter",
    "babylonian_preimage",
    "babylonian_step",
    "catalog_by_name",
    "cf_convergent_sqrt2",
    "compare_methods",
    "correct_digits",
    "decimal_digit_count",
    "decimal_string",
    "descend",
    "encouraging_identity_check",
    "generate",
    "identity_catalog",
    "isqrt",
    "nth",
    "nth_iterative",
    "plato_check",
    "proportion_subtract",
    "ratio",
    "run_method",
    "sd_ratio_step",
    "seed",
    "side_of_sqrt2",
    "step",
    "symbols",
    "to_decimal",
    "trace_elegant",
    "verify_identity",
]


def __getattr__(name: str):
    """A name of `__all__` from `identities` or `polynomials`, imported on first use."""
    if name in __all__:
        from sidediameter import identities, polynomials

        for module in (identities, polynomials):
            if name in vars(module):
                globals()[name] = value = vars(module)[name]
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
