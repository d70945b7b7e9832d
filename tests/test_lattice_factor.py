"""The triangular factor every Gram matrix carries.

``validate`` computes R (G = R^T R) once, in the given order; ``reduce``
starts LLL from a sorted-pivot factor and hands on the factor LLL ends
with, and ``enumerate_below`` and the minima search read it. A
factor with a negative diagonal entry still satisfies R^T R = G but makes
the enumeration's coordinate ranges empty, so the search finds nothing and
says nothing; these tests pin the invariants directly.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

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


def _exact_det(m):
    """Determinant of an integer matrix by elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


@pytest.mark.parametrize("d, raw", _forms())
def test_reduce_transform_is_unimodular(d, raw):
    """T starts as the sorted-pivot permutation and changes only by integer
    row operations and swaps, so |det T| = 1 exactly."""
    _, t = lattice.reduce(lattice.validate(raw))
    assert abs(_exact_det(t)) == 1


@pytest.mark.parametrize("d, raw", _forms())
def test_sorted_pivot_factor(d, raw):
    """R^T R is G in the returned order, and each pivot is the smallest
    remaining Schur-complement diagonal: at step k, basis vector j > k has
    sum_{i >= k} R[i][j]^2 left, which is at least R[k][k]^2."""
    g = lattice.validate(raw).entries
    r, order = lattice._cholesky(g, pivot=True)
    assert sorted(order) == list(range(d))
    _check_factor(SimpleNamespace(
        factor=r, dim=d, entries=[[g[i][j] for j in order] for i in order]))
    for k in range(d):
        for j in range(k + 1, d):
            left = sum(r[i][j] ** 2 for i in range(k, j + 1))
            assert r[k][k] ** 2 <= left * (1 + 1e-12)


def test_non_positive_pivot_rejected():
    # positive diagonal, indefinite: the second pivot is 1 - 4 < 0
    with pytest.raises(NotPositiveDefinite):
        lattice.validate([[1.0, 2.0], [2.0, 1.0]])
    # semidefinite: the second pivot is exactly 0
    with pytest.raises(NotPositiveDefinite):
        lattice.validate([[1.0, 1.0], [1.0, 1.0]])
