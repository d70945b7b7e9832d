"""The triangular factor and the basis every Gram matrix carries.

``validate`` computes R once, with sorted pivots, and keeps that order's
permutation matrix as the form's basis T (R^T R = T G T^T); ``reduce``
starts LLL from that factor and returns the same form in the basis LLL
ends with, and ``enumerate_below`` and the minima search read it. A
factor with a negative diagonal entry still satisfies R^T R = G but makes
the enumeration's coordinate ranges empty, so the search finds nothing and
says nothing; these tests pin the invariants directly.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import rational_pivots, skew
from schottky_gauge import cli, lattice
from schottky_gauge.errors import NotPositiveDefinite

def _gauss_form(rng, d):
    """B B^T + 0.3 I for a standard-normal B drawn from ``rng``."""
    b = [[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(d)]
    return [[sum(x * y for x, y in zip(bi, bj)) + (0.3 if i == j else 0.0)
             for j, bj in enumerate(b)] for i, bi in enumerate(b)]


def _check_factor(gram, tol=1e-12):
    """R is upper triangular with a positive diagonal, T is an integer
    matrix, and R^T R is T G T^T (in exact rationals: the float entries are
    dyadic) to ``tol`` relative to the size of G."""
    r, t, d = gram.factor, gram.basis, gram.dim
    assert len(r) == d and all(len(row) == d for row in r)
    assert all(r[i][j] == 0.0 for i in range(d) for j in range(i))
    assert all(r[i][i] > 0.0 for i in range(d))
    assert len(t) == d and all(len(row) == d for row in t)
    assert all(type(v) is int for row in t for v in row)
    exact = [[Fraction(v) for v in row] for row in gram.entries]
    scale = max(abs(v) for row in gram.entries for v in row)
    for i in range(d):
        tg = [sum(t[i][a] * exact[a][c] for a in range(d)) for c in range(d)]
        for j in range(d):
            want = sum(tg[c] * t[j][c] for c in range(d))
            rtr = sum(r[k][i] * r[k][j] for k in range(d))
            assert abs(rtr - float(want)) <= tol * scale


_rng = random.Random(2024)
_FORMS = [(d, skew(_gauss_form(_rng, d), _rng)) for d in range(2, 9) for _ in range(15)]


@pytest.mark.parametrize("d, raw", _FORMS)
def test_validate_and_reduce_factors(d, raw):
    gram = lattice.validate(raw)
    _check_factor(gram)
    reduced = lattice.reduce(gram)
    # float LLL drifts by rounding in every size reduction (at most 4.1e-12
    # here), so the reduced factor is held to T G T^T more loosely
    _check_factor(reduced, 1e-10)
    assert reduced.entries is gram.entries
    assert reduced.mode is gram.mode


@pytest.mark.parametrize("d, raw", _FORMS)
def test_validate_basis_is_a_permutation(d, raw):
    """The sorted-pivot order is a permutation of the given basis."""
    t = lattice.validate(raw).basis
    assert sorted(t, reverse=True) == [tuple(int(i == j) for j in range(d))
                                       for i in range(d)]


@pytest.mark.parametrize("d, raw", _FORMS)
def test_enumerate_in_either_basis(d, raw):
    """The search answers in the given basis whichever basis the form
    carries, and values each vector on the entries: the validated and the
    reduced form give the same list, coefficients, norms and order."""
    gram = lattice.validate(raw)
    radius = 2.0 * lattice.successive_minima(gram, 1).values[0]
    given = lattice.enumerate_below(gram, radius)
    assert given == lattice.enumerate_below(lattice.reduce(gram), radius)
    assert all(v.norm_sq == gram.norm_sq(v.coeffs) for v in given)


@pytest.mark.parametrize("d, raw", _FORMS)
def test_reduce_transform_is_unimodular(d, raw):
    """T starts as the sorted-pivot permutation and changes only by integer
    row operations and swaps, so |det T| = 1 exactly."""
    t = lattice.reduce(lattice.validate(raw)).basis
    pivots = rational_pivots(t)
    assert len(pivots) == d and abs(math.prod(pivots)) == 1


@pytest.mark.parametrize("d, raw", _FORMS)
def test_sorted_pivot_factor(d, raw):
    """The factor ``validate`` keeps is G's in the form's basis, and each
    pivot is the smallest remaining Schur-complement diagonal: at step k,
    basis vector j > k has sum_{i >= k} R[i][j]^2 left, which is at least
    R[k][k]^2."""
    gram = lattice.validate(raw)
    _check_factor(gram)
    r = gram.factor
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


def test_one_factorization_per_call(monkeypatch, capsys):
    """``validate`` factors G once and ``reduce`` starts LLL from that
    factor, so a minima call and an ``exclude`` op each factor G once."""
    calls = []
    real = lattice._cholesky

    def spy(g, *args, **kwargs):
        calls.append(len(g))
        return real(g, *args, **kwargs)

    monkeypatch.setattr(lattice, "_cholesky", spy)
    rng = random.Random(7)
    raw = skew(_gauss_form(rng, 6), rng)
    lattice.successive_minima(lattice.validate(raw), 6)
    assert calls == [6]
    calls.clear()
    path = Path(__file__).parent / "data" / "e8_skew48_seed39.json"
    assert cli.main(["exclude", str(path), "--format", "json"]) == 0
    assert calls == [8]
    assert json.loads(capsys.readouterr().out)[0]["verdict"] == "Inconclusive"
