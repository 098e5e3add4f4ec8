"""Exact arithmetic for side-and-diameter numbers.

Integer pairs (a, d) with d**2 - 2*a**2 = ±1, their recurrence and descent,
the quadratic identities behind them verified symbolically, derivation
traces for concrete pairs, and exact-rational analysis of two historical
algorithms approximating the square root of 2.

Every name of `__all__` is imported from its module on first use (PEP 562),
so `import sidediameter` loads no submodule and commands that need no
symbolic identity never build the catalog.
"""

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
    """A name of `__all__`, imported from its module on first use and then kept."""
    if name in __all__:
        import importlib

        for module in ("pairs", "approx", "identities", "polynomials"):
            namespace = vars(importlib.import_module(f"{__name__}.{module}"))
            if name in namespace:
                globals()[name] = value = namespace[name]
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
