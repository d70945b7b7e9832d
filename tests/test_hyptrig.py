"""Point forms of the hyperbolic polygon relations.

Expected values were frozen from a 40-digit mpmath evaluation of the
defining identities.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schottky_gauge import collar, hyptrig
from schottky_gauge.errors import DomainError

REL = 1e-12


def test_pentagon_value():
    assert hyptrig.pentagon_opposite(1.0, 1.0) == pytest.approx(
        0.8474505812958514, rel=REL)


def test_pentagon_domain():
    with pytest.raises(DomainError):
        hyptrig.pentagon_opposite(0.5, 0.5)


def test_hexagon_value():
    assert hyptrig.hexagon_opposite(1.0, 2.0, 1.0) == pytest.approx(
        1.6949011625917027, rel=REL)


def test_hexagon_rhs_example():
    rhs = math.sinh(1.0) ** 2 * math.cosh(2.0) - math.cosh(1.0) ** 2
    assert rhs == pytest.approx(2.8148625179204902, rel=REL)


def test_hexagon_degenerate():
    with pytest.raises(DomainError):
        hyptrig.hexagon_opposite(0.3, 0.1, 0.3)


@given(st.floats(0.2, 4.0), st.floats(0.3, 3.0))
def test_hexagon_y1_consistency(gamma, w):
    """y1_nu(g, w) = 2 * hexagon_opposite(g/2, 2w, g/2) wherever defined."""
    try:
        nu = collar.y1_nu(gamma, w)
    except DomainError:
        return
    hexv = 2.0 * hyptrig.hexagon_opposite(gamma / 2.0, 2.0 * w, gamma / 2.0)
    assert nu == pytest.approx(hexv, rel=1e-12)

