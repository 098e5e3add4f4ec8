import os
import sys

import pytest
from hypothesis import Phase, settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def int_str_limit():
    """`sys.set_int_max_str_digits` for one test; the previous limit comes back after it."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.fixture
def one_wrong_level(monkeypatch):
    """`inject(n, level)` makes one value on the way to pair n wrong, in either number type.

    "middle": d + 1 at a level far below n.  "half": d + 2**61 - 1 at level n >> 1, where only
    the exact check sees it, since every residue modulo that prime is kept.  "top": d + 1 at n,
    after its last doubling, where only the residue check sees it.
    """
    from sidediameter import _exact

    def inject(n, level):
        if level == "top":
            doubled = _exact._doubled

            def wrong_doubling(a, d, dd, m):
                a, d = doubled(a, d, dd, m)
                return (a, d + 1) if m == n else (a, d)

            monkeypatch.setattr(_exact, "_doubled", wrong_doubling)
            return
        components = _exact._nth_components
        wrong, fault = (n >> 1, _exact._PRIME) if level == "half" else (n >> (n.bit_length() // 2), 1)

        # The recursion calls the patched name, so exactly one level's value is made wrong.
        def wrong_level(m, one=1):
            a, d = components(m, one)
            return (a, d + fault) if m == wrong else (a, d)

        monkeypatch.setattr(_exact, "_nth_components", wrong_level)

    return inject


# Stops at the first failing example instead of shrinking it; `mutants/` only needs to see a test fail.
settings.register_profile("no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate])
