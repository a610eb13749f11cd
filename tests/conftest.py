import sys

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from tempora import Constant, Periodic, Stream

# Every property draws the same examples on every run, so a test result is
# a function of the commit alone: a failing draw replays from the source,
# not from a local example database.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

#: A stream whose D at ``SATURATING_AT``, retaken on the values over 2^64,
#: is finite but rounds past the float range when multiplied back: it
#: saturates at minus the largest float, the exact value.  Before it did,
#: ``eval`` printed -inf, and the argmin row of a ``sweep`` under a
#: tabulated cost read ``inf,nan,inf``.
SATURATING = {"prefix": [-sys.float_info.max, -sys.float_info.max, 1e308],
              "tail": {"constant": -1.0}}
SATURATING_AT = 2.0364732356610535e-09

finite_floats = st.floats(min_value=-50.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False, width=64)


@st.composite
def streams(draw, max_prefix=8, max_period=5):
    prefix = draw(st.lists(finite_floats, max_size=max_prefix))
    if draw(st.booleans()):
        tail = Constant(draw(finite_floats))
    else:
        cycle = draw(st.lists(finite_floats, min_size=1, max_size=max_period))
        tail = Periodic(tuple(cycle))
    return Stream(tuple(prefix), tail)


@pytest.fixture
def rng():
    return np.random.default_rng(20240617)
