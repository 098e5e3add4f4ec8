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


# Stops at the first failing example instead of shrinking it; `mutants/` only needs to see a test fail.
settings.register_profile("no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate])
