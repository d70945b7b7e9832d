"""The triangular factor every Gram matrix carries.

``validate`` computes R (G = R^T R) once; ``reduce`` hands on the factor
LLL ends with, and ``enumerate_below`` and the minima search read it. A
factor with a negative diagonal entry still satisfies R^T R = G but makes
the enumeration's coordinate ranges empty, so the search finds nothing and
says nothing; these tests pin the invariants directly.
"""

import random
from fractions import Fraction

import pytest

from schottky_gauge import lattice
from schottky_gauge.errors import NotPositiveDefinite


def _skewed_form(rng, d):
    """T^T (B B^T + 0.3 I) T for a standard-normal B and a unimodular T of
    twelve integer row operations (multipliers -2..2)."""
    b = [[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(d)]
    g = [[sum(x * y for x, y in zip(bi, bj)) + (0.3 if i == j else 0.0)
          for j, bj in enumerate(b)] for i, bi in enumerate(b)]
    t = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(12):
        i, j = rng.sample(range(d), 2)
        m = rng.randint(-2, 2)
        t[i] = [a + m * c for a, c in zip(t[i], t[j])]
    return [[sum(t[a][i] * g[a][c] * t[c][j] for a in range(d) for c in range(d))
             for j in range(d)] for i in range(d)]


def _check_factor(gram):
    r, g, d = gram.factor, gram.entries, gram.dim
    assert len(r) == d and all(len(row) == d for row in r)
    assert all(r[i][j] == 0.0 for i in range(d) for j in range(i))
    assert all(r[i][i] > 0.0 for i in range(d))
    scale = max(abs(v) for row in g for v in row)
    for i in range(d):
        for j in range(d):
            rtr = sum(r[k][i] * r[k][j] for k in range(d))
            assert abs(rtr - g[i][j]) <= 1e-12 * scale


def _forms():
    rng = random.Random(2024)
    return [(d, _skewed_form(rng, d)) for d in range(2, 9) for _ in range(15)]


@pytest.mark.parametrize("d, raw", _forms())
def test_validate_and_reduce_factors(d, raw):
    gram = lattice.validate(raw)
    _check_factor(gram)
    reduced, t = lattice.reduce(gram)
    _check_factor(reduced)
    assert len(t) == d and all(len(row) == d for row in t)
    assert all(type(v) is int for row in t for v in row)
    # T G T^T in exact rationals (the float entries are dyadic) against the
    # reduced entries, relative to the size of the input form: float LLL
    # drifts by rounding in every size reduction (at most 4.7e-13 here)
    exact = [[Fraction(v) for v in row] for row in gram.entries]
    scale = max(abs(v) for row in gram.entries for v in row)
    for i in range(d):
        tg = [sum(t[i][a] * exact[a][c] for a in range(d)) for c in range(d)]
        for j in range(d):
            want = sum(tg[c] * t[j][c] for c in range(d))
            assert abs(float(want) - reduced.entries[i][j]) <= 1e-10 * scale


def test_non_positive_pivot_rejected():
    # positive diagonal, indefinite: the second pivot is 1 - 4 < 0
    with pytest.raises(NotPositiveDefinite):
        lattice.validate([[1.0, 2.0], [2.0, 1.0]])
    # semidefinite: the second pivot is exactly 0
    with pytest.raises(NotPositiveDefinite):
        lattice.validate([[1.0, 1.0], [1.0, 1.0]])
