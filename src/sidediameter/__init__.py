"""Exact arithmetic for side-and-diameter numbers.

Integer pairs (a, d) with d**2 - 2*a**2 = ±1, their recurrence and descent,
the quadratic identities behind them verified symbolically, derivation
traces for concrete pairs, and exact-rational analysis of two historical
algorithms approximating the square root of 2.

Every name of `__all__` is imported on first use (PEP 562) from the one
module that `_HOMES` names for it, so `import sidediameter` loads no
submodule, a name loads only its own module and what that imports, and
commands that need no symbolic identity never build the catalog.
"""

# The module that defines each public name.
_HOMES = {
    "ConvergenceReport": "approx",
    "DerivationTrace": "identities",
    "DescentBelowSeedError": "pairs",
    "IdentityCheck": "pairs",
    "InvalidPairError": "_exact",
    "MissingVariableError": "polynomials",
    "NamedIdentity": "identities",
    "PlatoReport": "pairs",
    "Poly": "polynomials",
    "ReportRow": "approx",
    "SideDiameterPair": "pairs",
    "TraceStep": "identities",
    "VariableMismatchError": "polynomials",
    "adjacent_rational_diameter": "pairs",
    "babylonian_preimage": "approx",
    "babylonian_step": "approx",
    "catalog_by_name": "identities",
    "cf_convergent_sqrt2": "approx",
    "compare_methods": "approx",
    "correct_digits": "approx",
    "decimal_digit_count": "approx",
    "decimal_string": "approx",
    "descend": "pairs",
    "encouraging_identity_check": "pairs",
    "generate": "pairs",
    "identity_catalog": "identities",
    "isqrt": "approx",
    "nth": "pairs",
    "nth_iterative": "pairs",
    "plato_check": "pairs",
    "proportion_subtract": "identities",
    "ratio": "approx",
    "run_method": "approx",
    "sd_ratio_step": "approx",
    "seed": "pairs",
    "side_of_sqrt2": "approx",
    "step": "pairs",
    "symbols": "polynomials",
    "to_decimal": "_exact",
    "trace_elegant": "identities",
    "verify_identity": "identities",
}
__all__ = list(_HOMES)


def __getattr__(name: str):
    """A name of `__all__`, imported from the module that defines it on first use and then kept."""
    if name in _HOMES:
        import importlib

        globals()[name] = value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
