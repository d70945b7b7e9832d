"""Right-angled polygon relations behind the Y-piece boundary lengths.

``collar.pentagon`` is the pentagon relation cosh c = sinh a sinh b.  The
configuration-1 Y-piece is a symmetric right-angled hexagon with sides
a, 2b, a, which its axis of symmetry cuts into two such pentagons; the
hexagon relation (``oracles.hexagon_rhs``) is written out in mpmath and
checked against the pentagon's enclosure.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import encloses, mp
from schottky_gauge import collar
from schottky_gauge.errors import DomainError
from schottky_gauge.interval import Interval

P = Interval.point


def test_hexagon_rhs_example():
    # cosh of the hexagon side is 2 cosh^2(c) - 1 for the pentagon side c
    c = collar.pentagon(P(1.0), P(1.0))
    assert encloses(c.cosh().sq() * 2.0 - 1.0, oracles.hexagon_rhs(1, 2, 1))
    assert oracles.hexagon_rhs(1, 2, 1) == pytest.approx(2.8148625179204902, rel=1e-15)


def test_hexagon_degenerate():
    # no hexagon with sides 0.3, 0.1, 0.3, and so no pentagon with 0.3, 0.05
    assert oracles.hexagon_rhs(mp.mpf(0.3), mp.mpf(0.1), mp.mpf(0.3)) < 1
    with pytest.raises(DomainError):
        collar.pentagon(P(0.3), P(0.05))


@given(st.floats(0.2, 4.0), st.floats(0.3, 3.0))
def test_hexagon_y1_consistency(gamma, w):
    """nu = 2 hexagon(g/2, 2w, g/2) = 4 pentagon(g/2, w) wherever the
    pentagon is proven to exist."""
    try:
        nu = collar.pentagon(P(gamma / 2.0), P(w)) * 4.0
    except DomainError:
        return
    half = mp.mpf(gamma) / 2
    assert encloses(nu, 2 * mp.acosh(oracles.hexagon_rhs(half, 2 * mp.mpf(w), half)))
