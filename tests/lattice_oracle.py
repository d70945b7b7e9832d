"""Brute-force lattice oracle shared by the lattice and acceptance tests.

It enumerates the coefficient box given by the Cauchy-Schwarz bound per
coordinate (diagonal of G^-1 times the radius), so it double-checks every
operation that admits exhaustive search.
"""

import itertools
import math

import numpy as np


def brute_force_below(entries, radius_sq):
    """Exhaustive +/- class search over the Cauchy-Schwarz coefficient box."""
    g = np.asarray(entries, dtype=float)
    d = g.shape[0]
    inv_diag = np.diag(np.linalg.inv(g))
    box = [int(math.floor(math.sqrt(radius_sq * inv_diag[i] * (1 + 1e-9)))) + 1
           for i in range(d)]
    out = {}
    for coeffs in itertools.product(*(range(-b, b + 1) for b in box)):
        if not any(coeffs):
            continue
        first = next(c for c in coeffs if c)
        if first < 0:
            continue
        x = np.array(coeffs, dtype=float)
        n = float(x @ g @ x)
        if n <= radius_sq * (1 + 1e-9):
            out[coeffs] = n
    return out


def brute_force_minima(entries, k):
    g = np.asarray(entries, dtype=float)
    # the unit vectors span and all have norm <= the largest diagonal entry
    radius = float(np.max(np.diag(g)))
    while True:
        vecs = sorted(brute_force_below(g, radius).items(),
                      key=lambda kv: (kv[1], kv[0]))
        basis = []
        values = []
        for coeffs, norm in vecs:
            m = np.array(basis + [coeffs])
            if np.linalg.matrix_rank(m) == len(basis) + 1:
                basis.append(coeffs)
                values.append(norm)
                if len(values) == k:
                    return values
        radius *= 2.0
