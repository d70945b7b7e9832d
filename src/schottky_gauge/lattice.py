"""Successive minima of positive-definite quadratic forms, in plain Python.

A form is its Gram matrix G and one basis of its lattice: an integer
unimodular T (rows are basis vectors) with an upper-triangular factor R,
R^T R = T G T^T, positive diagonal. ``validate`` factors G once, with
sorted pivots, so T starts as a permutation; ``reduce`` returns the same
form in its LLL basis. Fincke-Pohst enumeration searches in the form's
basis, one vector of each +/- pair, and answers in the given one, valuing
each once by ``GramMatrix.norm_sq`` on the entries. Minima take one LLL
per call, a radius capped by the k-th shortest reduced basis vector and
fraction-free integer elimination for witnesses. PPAV mode's unit
determinant is decided on the float factor, and exactly when that misses.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce as fold  # sum() of floats compensates from 3.12 on
from itertools import chain, zip_longest
from operator import add, mul, sub

from .errors import (
    BudgetExceeded,
    DeterminantNotOne,
    DomainError,
    MalformedGram,
    NotPositiveDefinite,
    NotSymmetric,
    NumericalBreakdown,
    OddDimension,
)

NODE_BUDGET = 10**9
_SYMMETRY_TOL = 1e-12      # relative asymmetry allowed before rejection
_RADIUS_SLACK = 1e-9       # multiplicative slack on the enumeration radius
_DET_ONE_TOL = 1e-6        # |det - 1| allowed in PPAV mode
_LLL_DELTA = 0.99          # Lovasz condition
_LLL_MAX_SWAPS = 10**6


class Mode(enum.Enum):
    PPAV = "ppav"
    PLAIN = "plain"


@dataclass(frozen=True)
class GramMatrix:
    """Symmetrized rows of G, and rows of upper-triangular R and of the
    integer unimodular ``basis`` T: R^T R = T G T^T."""
    entries: tuple[tuple[float, ...], ...]
    mode: Mode
    factor: tuple[tuple[float, ...], ...]
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    def norm_sq(self, coeffs) -> float:
        """x^T G x on the entries: the one valuation of a lattice vector."""
        return fold(add, (c * fold(add, map(mul, row, coeffs), 0.0)
                          for c, row in zip(coeffs, self.entries) if c), 0.0)


@dataclass(frozen=True)
class ShortVector:
    coeffs: tuple[int, ...]
    norm_sq: float

    def __post_init__(self):
        if not any(self.coeffs):
            raise DomainError("short vector must be nonzero")


@dataclass(frozen=True)
class SuccessiveMinima:
    values: tuple[float, ...]
    witnesses: tuple[ShortVector, ...]


def _cholesky(g) -> tuple[tuple[tuple[float, ...], ...], tuple[int, ...]]:
    """Rows of the upper-triangular R with R^T R = G[order][:, order], and
    that order of the basis: at each step the remaining basis vector of
    smallest Schur-complement diagonal (squared distance to the span of
    those taken), as in sorted QR (Wuebben et al., Electron. Lett. 2001). A
    pivot that is not positive is NotPositiveDefinite."""
    d = len(g)
    order = list(range(d))
    cols: list[list[float]] = [[] for _ in g]  # cols[j] = R[0..k-1][j] at step k
    schur = [row[j] for j, row in enumerate(g)]  # G[j][j] - |cols[j]|^2
    for k in range(d):
        m = min(range(k, d), key=schur.__getitem__)
        for a in (order, cols, schur):
            a[k], a[m] = a[m], a[k]
        ck, gk = cols[k], g[order[k]]
        p = gk[order[k]] - fold(add, map(mul, ck, ck), 0.0)
        if not p > 0.0:
            raise NotPositiveDefinite("matrix is not positive definite")
        ck.append(math.sqrt(p))
        for j in range(k + 1, d):
            v = (gk[order[j]] - fold(add, map(mul, ck, cols[j]), 0.0)) / ck[k]
            cols[j].append(v)
            schur[j] -= v * v
    return tuple(zip_longest(*cols, fillvalue=0.0)), tuple(order)


def _exact_det(g) -> Fraction:
    """The determinant of a float matrix, exactly. Float entries are dyadic
    rationals, so one power of two scales them all to integers, and
    fraction-free (Bareiss) elimination keeps every step in integers.
    Without row exchanges each pivot is a leading principal minor (scaled),
    so by Sylvester's criterion a pivot that is not positive is
    NotPositiveDefinite."""
    d = len(g)
    ratios = [v.as_integer_ratio() for v in chain.from_iterable(g)]
    scale = max(den for _, den in ratios)  # every denominator divides it
    m = [[n * (scale // den) for n, den in ratios[i * d:(i + 1) * d]] for i in range(d)]
    prev = 1
    for k in range(d):
        piv = m[k]
        if piv[k] <= 0:
            raise NotPositiveDefinite("matrix is not positive definite")
        for i in range(k + 1, d):
            f = m[i][k]
            m[i] = [(piv[k] * a - f * b) // prev for a, b in zip(m[i], piv)]
        prev = piv[k]
    return Fraction(prev, scale ** d)


def validate(raw, mode: Mode = Mode.PLAIN) -> GramMatrix:
    """Check symmetry, positive definiteness and (PPAV mode) unit determinant.

    Symmetrizes via (G + G^T)/2 once the asymmetry passes the tolerance;
    a non-finite entry, or overflow there, is NotPositiveDefinite. The form
    keeps its sorted-pivot factor, with that order's permutation matrix as
    its basis (see ``_cholesky``). The determinant is read off the float
    factor, and computed exactly from the entries when that misses 1 by
    more than the tolerance; that exact path also decides positive
    definiteness.
    """
    try:
        a = [list(map(float, row)) for row in raw]
    except TypeError:
        a = None
    if not a or any(len(row) != len(a) for row in a):
        raise NotSymmetric("expected a nonempty square matrix of numbers")
    d = len(a)
    at = [list(col) for col in zip(*a)]
    g = [[0.5 * v for v in map(add, row, col)] for row, col in zip(a, at)]
    if not all(map(math.isfinite, chain.from_iterable(g))):
        raise NotPositiveDefinite("symmetrized matrix is not finite")
    if a != at and max(map(abs, map(sub, chain(*a), chain(*at)))) > \
            _SYMMETRY_TOL * max(1.0, max(map(abs, chain(*a)))):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    if mode is Mode.PPAV and d % 2 != 0:
        raise OddDimension(f"PPAV Gram matrix must have even dimension, got {d}")
    r, order = _cholesky(g)
    if mode is Mode.PPAV:
        det = math.prod(r[i][i] for i in range(d)) ** 2
        # the float det of an ill-conditioned form can miss 1 by more than
        # the tolerance while its exact det does not
        if abs(det - 1.0) > _DET_ONE_TOL and abs(_exact_det(g) - 1) > _DET_ONE_TOL:
            raise DeterminantNotOne(f"determinant {det} differs from 1")
    basis = tuple(tuple(int(i == p) for i in range(d)) for p in order)
    return GramMatrix(tuple(map(tuple, g)), mode, r, basis)


def _lll(r, basis) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[int, ...], ...]]:
    """LLL reduction of the columns of the upper-triangular factor R (rows
    given) of the basis T (rows); returns the reduced factor's rows and the
    reduced basis, T times an integer unimodular matrix on the left.

    Column j of R is basis vector j in its Gram-Schmidt frame: mu[k, j] =
    R[j, k] / R[j, j], squared Gram-Schmidt norms R[j, j]^2. Size reduction
    is lazy (Cohen, A Course in Computational Algebraic Number Theory, Alg.
    2.6.3): column k is reduced against column k-1, which is all the
    Lovasz test reads, and against the others only once the test passes.
    After a column swap, a Givens rotation of rows k-1, k (columns >= k-1;
    row k negated, so the diagonal stays positive) restores the triangle
    with an exact 0.
    """
    n = len(r)
    cols = [list(col[:j + 1]) for j, col in enumerate(zip(*r))]
    t = list(map(list, basis))
    swaps = 0
    k = 1
    while k < n:
        ck, tk = cols[k], t[k]
        for j in range(k - 1, -1, -1):
            q = round(ck[j] / cols[j][j])
            if q:
                ck[:j + 1] = [a - q * b for a, b in zip(ck, cols[j])]
                tk[:] = [a - q * b for a, b in zip(tk, t[j])]
            if j == k - 1:
                prev = cols[j]
                x, y, p = ck[j], ck[k], prev[j]
                if y * y + x * x < _LLL_DELTA * (p * p):
                    break
        else:
            k += 1
            continue
        t[k - 1], t[k] = tk, t[k - 1]
        h = math.hypot(x, y)
        c, s = x / h, y / h
        ck[k - 1:] = [c * x + s * y]
        prev[k - 1:] = [c * p, s * p]
        cols[k - 1], cols[k] = ck, prev
        for col in cols[k + 1:]:
            a, b = col[k - 1], col[k]
            col[k - 1], col[k] = c * a + s * b, s * a - c * b
        k = max(k - 1, 1)
        swaps += 1
        if swaps > _LLL_MAX_SWAPS:
            raise NumericalBreakdown("LLL swap budget exhausted")
    return tuple(zip_longest(*cols, fillvalue=0.0)), tuple(map(tuple, t))


def reduce(gram: GramMatrix) -> GramMatrix:
    """The same form (same ``entries``) in its LLL basis (delta = 0.99),
    reduced from its sorted-pivot factor, which leaves fewer swaps than the
    given order; the factor is the one LLL ends with, not a new one."""
    return GramMatrix(gram.entries, gram.mode, *_lll(gram.factor, gram.basis))


def _canonical_sign(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    for c in coeffs:
        if c != 0:
            return coeffs if c > 0 else tuple(-x for x in coeffs)
    return coeffs


def enumerate_below(gram: GramMatrix, radius_sq: float) -> list[ShortVector]:
    """All nonzero integer vectors with form value <= radius_sq (one
    representative per +/- pair, its first nonzero coefficient positive),
    in ascending (norm, coefficient) order, each norm ``gram.norm_sq`` in
    the given basis: the same list in any basis of the form.

    Fincke-Pohst tree search on the form's triangular factor, which values
    nothing returned, picks the leaves; their coordinates, in the form's
    basis, are mapped through it. The tree holds one vector of each +/-
    pair (Agrell, Eriksson, Vardy & Zeger, IEEE Trans. Inf. Theory 2002):
    while every higher coordinate is 0, a coordinate runs from 0 up, and
    the zero vector is no leaf. ``NODE_BUDGET`` caps the nodes of this
    half tree, one per coordinate value tried at any level; more raise
    BudgetExceeded. The search does not reduce: callers pass a reduced
    form (see ``reduce``) for speed. A multiplicative slack keeps
    boundary vectors whose float norm is within tolerance of the radius;
    a radius that is not positive and finite, slack included, is
    DomainError.
    """
    limit = radius_sq * (1.0 + _RADIUS_SLACK)
    if not 0.0 < limit < math.inf:
        raise DomainError(f"radius_sq must be positive and finite, got {radius_sq}")
    d = gram.dim
    r = gram.factor
    found: list[tuple[int, ...]] = []  # leaf coordinates, in the form's basis
    nodes = 0

    x = [0] * d

    def descend(i: int, partial: float, zero: bool):
        nonlocal nodes
        # offset contributed by already-fixed coordinates x[i+1:] (x[:i+1] is 0)
        off = fold(add, map(mul, r[i], x), 0.0)
        room = limit - partial
        if room < 0:
            return
        rii = r[i][i]
        half = math.sqrt(room) / rii
        center = -off / rii
        # on the zero path (x[i+1:] all 0) the range is symmetric about 0:
        # search its upper half, and at i = 0 without the zero vector
        lo = int(i == 0) if zero else math.ceil(center - half - 1e-12)
        hi = math.floor(center + half + 1e-12)
        if hi >= lo:
            nodes += hi - lo + 1
            if nodes > NODE_BUDGET:
                raise BudgetExceeded(f"enumeration exceeded {NODE_BUDGET} nodes")
        if i == 0:
            rest = tuple(x[1:])
            for v in range(lo, hi + 1):
                term = (rii * v + off) ** 2
                if term <= room + 1e-12 and partial + term <= limit:
                    found.append((v,) + rest)
            return
        for v in range(lo, hi + 1):
            x[i] = v
            term = (rii * v + off) ** 2
            if term <= room + 1e-12:
                descend(i - 1, partial + term, zero and not v)
        x[i] = 0

    descend(d - 1, 0.0, True)
    cols = tuple(zip(*gram.basis))
    vecs = (_canonical_sign(tuple(sum(map(mul, y, c)) for c in cols)) for y in found)
    return [ShortVector(c, n) for n, c in sorted((gram.norm_sq(c), c) for c in vecs)]


class _Echelon:
    """Incremental rank over the integers by fraction-free elimination. Each
    stored row is zero at earlier rows' pivots and divided by its content,
    which bounds its entries by minors (undivided, they square per row)."""

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []  # (pivot index, row)

    def admits(self, vec: tuple[int, ...]) -> bool:
        """Whether ``vec`` is independent of the stored rows; if so it is
        stored, reduced."""
        row = list(vec)
        for p, piv in self.rows:
            if row[p]:
                a, b = piv[p], row[p]
                row = [a * x - b * y for x, y in zip(row, piv)]
        p = next((i for i, v in enumerate(row) if v), None)
        if p is None:
            return False
        g = math.gcd(*row)
        self.rows.append((p, [v // g for v in row]))
        return True


def minkowski_log_constant(d: int) -> float:
    """log((4/pi) Gamma(d/2+1)^(2/d)) = (2/d) log(2^d/vol B_d), B_d the unit
    ball in dimension d: Minkowski's constant, here and in ``bounds``."""
    return math.log(4.0 / math.pi) + math.lgamma(d / 2.0 + 1.0) / (d / 2.0)


def minkowski_radius(gram: GramMatrix) -> float:
    """Minkowski first-theorem radius, Minkowski's constant times det^(1/d):
    guaranteed to contain a nonzero lattice vector."""
    d = gram.dim
    logdet = 2.0 * fold(add, (math.log(row[i])
                              for i, row in enumerate(gram.factor)), 0.0)
    return math.exp(logdet / d + minkowski_log_constant(d))


def successive_minima(gram: GramMatrix, k: int) -> SuccessiveMinima:
    """First k successive minima with independent witness vectors.

    One LLL reduction; the form is enumerated in its reduced basis at a
    radius from min(Minkowski bound, b_k^2) doubling up to b_k^2 >=
    lambda_k, the k-th smallest squared length of a reduced basis vector
    (a column of the reduced factor; the k shortest are independent).
    ``enumerate_below``'s list is scanned as returned; each vector
    independent of those kept (fraction-free integer elimination) is kept.
    """
    if not 1 <= k <= gram.dim:
        raise DomainError(f"k must be in [1, {gram.dim}], got {k}")
    reduced = reduce(gram)
    cap = sorted(fold(add, map(mul, col, col), 0.0)
                 for col in zip(*reduced.factor))[k - 1]
    radius = min(minkowski_radius(gram), cap)
    while True:
        rank = _Echelon()
        witnesses = []
        for sv in enumerate_below(reduced, radius):
            if rank.admits(sv.coeffs):
                witnesses.append(sv)
                if len(witnesses) == k:
                    # the scan is in norm order, so nothing shorter was missed
                    return SuccessiveMinima(tuple(w.norm_sq for w in witnesses),
                                            tuple(witnesses))
        if radius >= cap:
            raise NumericalBreakdown(f"no {k} independent vectors below {cap}")
        radius = min(2.0 * radius, cap)


# ----------------------------------------------------------------------
# File formats
# ----------------------------------------------------------------------

def json_float(value) -> float:
    """A number read from JSON as a float. ``float`` alone would take
    ``true`` as 1.0 and ``"2"`` as 2.0; a boolean or a string raises
    ``TypeError`` instead."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def parse_gram_text(text: str, mode: Mode | None = None) -> GramMatrix:
    """Parse either the JSON or the whitespace Gram-matrix format; text
    that does not parse as either, a non-number where a JSON number
    belongs, or a non-integral ``dim``, is MalformedGram."""
    try:
        if text.lstrip().startswith("{"):
            obj = json.loads(text)
            d = json_float(obj["dim"])
            if not d.is_integer():
                raise ValueError(f"dim must be an integer, got {obj['dim']!r}")
            d = int(d)
            flat = [v if type(v) is float else json_float(v) for v in obj["entries"]]
            file_mode = Mode(obj.get("mode", "plain"))
        else:
            tokens = text.split()
            d = int(tokens[0])
            flat = [float(t) for t in tokens[1:]]
            file_mode = Mode.PLAIN
        if d < 0 or len(flat) != d * d:
            raise MalformedGram(f"expected {d}x{d} entries, got {len(flat)}")
    except (ValueError, LookupError, TypeError, OverflowError) as exc:
        raise MalformedGram(f"cannot parse Gram matrix text: {exc}") from exc
    return validate([flat[i * d:(i + 1) * d] for i in range(d)],
                    mode if mode is not None else file_mode)


def load_gram(path: str, mode: Mode | None = None) -> GramMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedGram(f"Gram matrix file is not UTF-8: {exc}") from exc
    return parse_gram_text(text, mode)


__all__ = [
    "GramMatrix",
    "Mode",
    "NODE_BUDGET",
    "ShortVector",
    "SuccessiveMinima",
    "enumerate_below",
    "json_float",
    "load_gram",
    "minkowski_log_constant",
    "minkowski_radius",
    "parse_gram_text",
    "reduce",
    "successive_minima",
    "validate",
]
