"""Soundness of the interval primitives against a 50-digit mpmath oracle.

Each primitive's enclosure of an interval must contain the true value of
the function at both endpoints; the functions are monotone on the tested
domains (or even with their minimum floored, for cosh and sinhc), so this
is the containment the certifier relies on.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schottky_gauge.interval import Interval

mpmath.mp.dps = 50


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


def _symmetric(limit):
    # the tiny range reaches series branches and near-identity regimes
    return st.one_of(_floats(-1e-3, 1e-3), _floats(-limit, limit))


def _sinhc(x):
    return mpmath.sinh(x) / x if x else mpmath.mpf(1)


_ORACLES = {
    "log": (_floats(1e-300, 1e300), mpmath.log),
    "sqrt": (_floats(0.0, 1e300), mpmath.sqrt),
    "sinh": (_symmetric(700.0), mpmath.sinh),
    "cosh": (_symmetric(700.0), mpmath.cosh),
    "asinh": (_symmetric(1e300), mpmath.asinh),
    "acosh": (st.one_of(_floats(1.0, 1.0 + 1e-6), _floats(1.0, 1e300)),
              mpmath.acosh),
    "atanh": (_floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              mpmath.atanh),
    "asin": (_floats(-1.0, 1.0), mpmath.asin),
    "sin": (_floats(0.0, math.pi / 2.0), mpmath.sin),
    "sinhc": (_symmetric(700.0), _sinhc),
}


def _encloses(enc: Interval, oracle, x: float) -> bool:
    return mpmath.mpf(enc.lo) <= oracle(mpmath.mpf(x)) <= mpmath.mpf(enc.hi)


@pytest.mark.parametrize("name", list(_ORACLES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_enclosure_contains_true_value(name, data):
    values, oracle = _ORACLES[name]
    a, b = data.draw(values, label="a"), data.draw(values, label="b")
    enc = getattr(Interval(min(a, b), max(a, b)), name)()
    assert _encloses(enc, oracle, a) and _encloses(enc, oracle, b)


# Points where libm's error exceeds one ulp, so that a one-ulp widening
# misses the true value.
@pytest.mark.parametrize("name,x,oracle", [
    ("sinh", 17.810827822156895, mpmath.sinh),
    ("asinh", -0.49771185978211463, mpmath.asinh),
    ("acosh", 1.401340324688043, mpmath.acosh),
    ("atanh", 0.12320438925043997, mpmath.atanh),
])
def test_known_libm_misses_enclosed(name, x, oracle):
    assert _encloses(getattr(Interval.point(x), name)(), oracle, x)
