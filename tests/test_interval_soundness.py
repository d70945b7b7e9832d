"""Soundness of the interval primitives against a 50-digit mpmath oracle.

Each primitive's enclosure of an interval must contain the true value of
the function at both endpoints; the functions are monotone on the tested
domains (or even with their minimum floored, for cosh and sinhc), so this
is the containment the certifier relies on.  Each unary primitive's
endpoints are also pinned to libm's values stepped outward by exactly the
ulp count that ``interval``'s soundness model states.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import encloses, mp
from schottky_gauge.interval import Interval

def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


def _symmetric(limit):
    # the tiny range reaches near-identity regimes
    return st.one_of(_floats(-1e-3, 1e-3), _floats(-limit, limit))


def _sinhc(x):
    return mp.sinh(x) / x if x else mp.mpf(1)


_ORACLES = {
    "log": (_floats(1e-300, 1e300), mp.log),
    "sqrt": (_floats(0.0, 1e300), mp.sqrt),
    "sinh": (_symmetric(700.0), mp.sinh),
    "cosh": (_symmetric(700.0), mp.cosh),
    "asinh": (_symmetric(1e300), mp.asinh),
    "acosh": (st.one_of(_floats(1.0, 1.0 + 1e-6), _floats(1.0, 1e300)),
              mp.acosh),
    "asin": (_floats(-1.0, 1.0), mp.asin),
    "sin": (_floats(0.0, math.pi / 2.0), mp.sin),
    "sinhc": (_symmetric(700.0), _sinhc),
}


@pytest.mark.parametrize("name", list(_ORACLES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_enclosure_contains_true_value(name, data):
    values, oracle = _ORACLES[name]
    a, b = data.draw(values, label="a"), data.draw(values, label="b")
    enc = getattr(Interval(min(a, b), max(a, b)), name)()
    assert encloses(enc, oracle(mp.mpf(a))) and encloses(enc, oracle(mp.mpf(b)))


# Points where libm's error exceeds one ulp, so that a one-ulp widening
# misses the true value.
@pytest.mark.parametrize("name,x,oracle", [
    ("sinh", 17.810827822156895, mp.sinh),
    ("asinh", -0.49771185978211463, mp.asinh),
    ("acosh", 1.401340324688043, mp.acosh),
])
def test_known_libm_misses_enclosed(name, x, oracle):
    assert encloses(getattr(Interval.point(x), name)(), oracle(mp.mpf(x)))


# -- the ulp model, pinned exactly --------------------------------------
#
# Each unary primitive is libm's value at each endpoint stepped outward by
# a fixed number of ulps, never more and never fewer.  Containment alone
# would not notice a widening cut from 2 ulp to 1.


def _step(x: float, toward: float, ulps: int) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, toward)
    return x


def _sinhc_libm(x: float) -> float:
    return 1.0 if x == 0.0 else math.sinh(x) / x


# name: (libm function, ulps, domain, floor of the range, even)
_ULP_MODEL = {
    "log": (math.log, 1, (1e-300, 1e300), None, False),
    "sqrt": (math.sqrt, 1, (0.0, 1e300), None, False),
    "asin": (math.asin, 1, (-1.0, 1.0), None, False),
    "sin": (math.sin, 1, (0.0, math.pi / 2.0), None, False),
    "sinh": (math.sinh, 2, (-700.0, 700.0), None, False),
    "asinh": (math.asinh, 2, (-1e300, 1e300), None, False),
    "acosh": (math.acosh, 2, (1.0, 1e300), 0.0, False),
    "cosh": (math.cosh, 2, (-700.0, 700.0), 1.0, True),
    "sinhc": (_sinhc_libm, 4, (-700.0, 700.0), 1.0, True),
}


def _endpoint(rng: random.Random, lo: float, hi: float) -> float:
    """A float in [lo, hi]: an end of the domain, a point near zero or
    one, a uniform draw or a log-uniform magnitude of either sign."""
    pick = rng.random()
    if pick < 0.15:
        x = rng.choice((lo, hi, 0.0, 1.0, -1.0, 1e-4, -1e-4))
    elif pick < 0.5:
        x = rng.uniform(lo, hi)
    else:
        top = math.log10(max(abs(lo), abs(hi)))
        x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, top)
    return min(max(x, lo), hi)


@pytest.mark.parametrize("name", list(_ULP_MODEL))
def test_endpoints_are_libm_stepped_outward_exactly(name):
    f, ulps, (dlo, dhi), floor, even = _ULP_MODEL[name]
    rng = random.Random(f"ulp-{name}")
    straddles = 0
    for _ in range(400):
        a, b = sorted((_endpoint(rng, dlo, dhi), _endpoint(rng, dlo, dhi)))
        if even:
            # even with its minimum at 0: libm's values at the points of
            # the cell nearest to 0 and farthest from it
            near = 0.0 if a < 0.0 < b else min(abs(a), abs(b))
            lo, hi = f(near), f(max(abs(a), abs(b)))
            straddles += a < 0.0 < b
        else:
            lo, hi = f(a), f(b)
        lo, hi = _step(lo, -math.inf, ulps), _step(hi, math.inf, ulps)
        if floor is not None:
            lo = max(floor, lo)
        enc = getattr(Interval(a, b), name)()
        assert (enc.lo, enc.hi) == (lo, hi), (a, b)
    assert not even or straddles > 20


@pytest.mark.parametrize("name,cell,lo", [
    ("acosh", (1.0, 1.0), 0.0),
    ("acosh", (1.0, 2.0), 0.0),
    ("acosh", (1.0, 1.0000000000000002), 0.0),
    ("cosh", (0.0, 0.0), 1.0),
    ("cosh", (-0.5, 0.25), 1.0),
    ("cosh", (-1e-8, -1e-9), 1.0),
    ("cosh", (1e-9, 1e-8), 1.0),
    ("sinhc", (0.0, 0.0), 1.0),
    ("sinhc", (-0.5, 0.25), 1.0),
    ("sinhc", (-3.0, 1e-300), 1.0),
])
def test_floor_holds_the_lower_end(name, cell, lo):
    # stepping libm's value down would pass below the function's minimum
    assert getattr(Interval(*cell), name)().lo == lo
