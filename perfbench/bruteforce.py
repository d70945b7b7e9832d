"""Brute-force successive minima of small positive-definite forms.

An oracle for the minima-small reference that shares no code with the
program's lattice module. The unit vectors are independent, so the d-th
minimum is at most R = max_i G_ii, and every x with x^T G x <= R has
|x_i| <= sqrt(R (G^-1)_ii). Scanning that box in ascending norm and keeping
each vector that raises the exact rational rank gives the minima.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def _inverse_diagonal(g: list[list[float]]) -> list[float]:
    """Diagonal of G^-1 by Gauss-Jordan elimination in exact rationals."""
    d = len(g)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(g)]
    for c in range(d):
        p = next(r for r in range(c, d) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        pivot = m[c][c]
        m[c] = [v / pivot for v in m[c]]
        for r in range(d):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return [float(m[i][d + i]) for i in range(d)]


def _raises_rank(basis: list[list[Fraction]], vec: tuple[int, ...]) -> bool:
    """Reduces ``vec`` against the echelon rows in ``basis``; appends and
    returns True when it is independent of them."""
    row = [Fraction(v) for v in vec]
    for b in basis:
        p = next(i for i, v in enumerate(b) if v != 0)
        if row[p] != 0:
            f = row[p] / b[p]
            row = [x - f * y for x, y in zip(row, b)]
    if any(row):
        basis.append(row)
        return True
    return False


def successive_minima(g: list[list[float]]) -> list[float]:
    """All d squared successive minima of the form with Gram matrix ``g``."""
    d = len(g)
    radius = max(g[i][i] for i in range(d)) * (1.0 + 1e-9)
    box = [int(math.sqrt(radius * q)) + 1 for q in _inverse_diagonal(g)]
    found = []
    for x in itertools.product(*(range(-b, b + 1) for b in box)):
        if not any(x):
            continue
        norm = sum(x[i] * g[i][j] * x[j] for i in range(d) for j in range(d))
        if norm <= radius:
            found.append((norm, x))
    found.sort()
    basis: list[list[Fraction]] = []
    minima = []
    for norm, x in found:
        if _raises_rank(basis, x):
            minima.append(norm)
            if len(minima) == d:
                return minima
    raise AssertionError("the box holds fewer than d independent vectors")
