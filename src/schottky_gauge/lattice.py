"""Successive minima of positive-definite quadratic forms, in plain Python.

Each form carries one upper-triangular Cholesky factor R (G = R^T R,
positive diagonal), computed by ``validate`` in the basis's given order.
LLL starts from a second, sorted-pivot factor of G, works on its columns
with an exact integer unimodular transform and hands the reduced factor on
to Fincke-Pohst enumeration, which searches the form as given, one vector
of each +/- pair. Minima come from one LLL per call at a radius capped by
the k-th reduced diagonal entry, with witnesses chosen by exact integer
(fraction-free) elimination. PPAV mode's unit determinant is decided on
the float factor, and exactly when that misses.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
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
    ValidationError,
)

DEFAULT_NODE_BUDGET = 10**9
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
    entries: tuple[tuple[float, ...], ...]  # symmetrized rows
    mode: Mode
    factor: tuple[tuple[float, ...], ...]   # rows of upper-triangular R, G = R^T R

    @property
    def dim(self) -> int:
        return len(self.entries)

    def norm_sq(self, coeffs) -> float:
        return sum((c * sum(map(mul, row, coeffs))
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
    k: int
    values: tuple[float, ...]
    witnesses: tuple[ShortVector, ...]


def _cholesky(g, pivot: bool = False
              ) -> tuple[tuple[tuple[float, ...], ...], list[int]]:
    """Rows of the upper-triangular R with R^T R = G taken in the returned
    order of the basis: as given, or with ``pivot`` the remaining basis
    vector of smallest Schur-complement diagonal (squared distance to the
    span of those taken) at each step, as in sorted QR (Wuebben et al.,
    Electron. Lett. 2001). A pivot that is not positive is
    NotPositiveDefinite."""
    d = len(g)
    order = list(range(d))
    cols: list[list[float]] = [[] for _ in g]  # cols[j] = R[0..k-1][j] at step k
    schur = [row[j] for j, row in enumerate(g)]  # G[j][j] - |cols[j]|^2
    for k in range(d):
        if pivot:
            m = min(range(k, d), key=schur.__getitem__)
            order[k], order[m] = order[m], order[k]
            cols[k], cols[m] = cols[m], cols[k]
            schur[k], schur[m] = schur[m], schur[k]
        ck, gk = cols[k], g[order[k]]
        p = gk[order[k]] - sum(map(mul, ck, ck))
        if not p > 0.0:
            raise NotPositiveDefinite("matrix is not positive definite")
        ck.append(math.sqrt(p))
        for j in range(k + 1, d):
            v = (gk[order[j]] - sum(map(mul, ck, cols[j]))) / ck[k]
            cols[j].append(v)
            schur[j] -= v * v
    return tuple(zip_longest(*cols, fillvalue=0.0)), order


def _exact_det(g) -> Fraction:
    """The determinant of a float matrix, exactly. Float entries are dyadic
    rationals, so one power of two scales them all to integers, and
    fraction-free (Bareiss) elimination keeps every step in integers."""
    d = len(g)
    ratios = [v.as_integer_ratio() for v in chain.from_iterable(g)]
    scale = max(den for _, den in ratios)  # every denominator divides it
    m = [[n * (scale // den) for n, den in ratios[i * d:(i + 1) * d]] for i in range(d)]
    sign, prev = 1, 1
    for k in range(d):
        p = next((i for i in range(k, d) if m[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        piv = m[k]
        for i in range(k + 1, d):
            f = m[i][k]
            m[i] = [(piv[k] * a - f * b) // prev for a, b in zip(m[i], piv)]
        prev = piv[k]
    return Fraction(sign * prev, scale ** d)


def validate(raw, mode: Mode = Mode.PLAIN) -> GramMatrix:
    """Check symmetry, positive definiteness and (PPAV mode) unit determinant.

    Symmetrizes via (G + G^T)/2 once the asymmetry passes the tolerance;
    a non-finite entry, or overflow there, is NotPositiveDefinite. The
    determinant is read off the float factor, and computed exactly from
    the entries when that misses 1 by more than the tolerance.
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
    r, _ = _cholesky(g)
    if mode is Mode.PPAV:
        det = math.prod(r[i][i] for i in range(d)) ** 2
        # the float det of an ill-conditioned form can miss 1 by more than
        # the tolerance while its exact det does not
        if abs(det - 1.0) > _DET_ONE_TOL and abs(_exact_det(g) - 1) > _DET_ONE_TOL:
            raise DeterminantNotOne(f"determinant {det} differs from 1")
    return GramMatrix(tuple(map(tuple, g)), mode, r)


def _lll(r, order) -> tuple[tuple[tuple[int, ...], ...], list[list[float]]]:
    """LLL reduction of the columns of the upper-triangular factor R (rows
    given) of the basis vectors ``order`` of G; returns the integer
    unimodular T, which starts as that permutation, with reduced Gram
    T G T^T, and the reduced factor's columns, column j cut to rows 0..j.

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
    t = [[int(i == p) for i in range(n)] for p in order]
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
    return tuple(map(tuple, t)), cols


def reduce(gram: GramMatrix) -> tuple[GramMatrix, tuple[tuple[int, ...], ...]]:
    """LLL-reduce (delta = 0.99); returns the reduced Gram, whose factor is
    the one LLL ends with (no re-factorization), and the integer unimodular
    T with reduced = T G T^T. LLL starts from a sorted-pivot Cholesky
    factor of G, shortest projections first, which leaves it fewer swaps
    than the basis in its given order."""
    t, cols = _lll(*_cholesky(gram.entries, pivot=True))
    rows = []  # G[i][j] = col_i . col_j, mirrored below the diagonal
    for i, ci in enumerate(cols):
        rows.append([r[i] for r in rows] + [sum(map(mul, ci, c)) for c in cols[i:]])
    return GramMatrix(tuple(map(tuple, rows)), gram.mode,
                      tuple(zip_longest(*cols, fillvalue=0.0))), t


def _canonical_sign(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    for c in coeffs:
        if c != 0:
            return coeffs if c > 0 else tuple(-x for x in coeffs)
    return coeffs


def enumerate_below(gram: GramMatrix, radius_sq: float,
                    budget: int = DEFAULT_NODE_BUDGET) -> list[ShortVector]:
    """All nonzero integer vectors with form value <= radius_sq (one
    representative per +/- pair, its first nonzero coefficient positive),
    in ascending (norm, coefficient) order.

    Fincke-Pohst tree search on the form's triangular factor, which also
    values the leaves. The tree holds one vector of each +/- pair (Agrell,
    Eriksson, Vardy & Zeger, IEEE Trans. Inf. Theory 2002): while every
    higher coordinate is 0, a coordinate runs from 0 up, and the zero
    vector is no leaf. ``budget`` caps the nodes of this half tree, one per
    coordinate value tried at any level; more raise BudgetExceeded. The
    search does not reduce, so callers pass an LLL-reduced form (see
    ``reduce``) for speed. A multiplicative slack keeps boundary vectors
    whose float norm lands within tolerance of the radius.
    """
    if radius_sq <= 0:
        raise DomainError("radius_sq must be positive")
    d = gram.dim
    r = gram.factor
    limit = radius_sq * (1.0 + _RADIUS_SLACK)
    found: list[tuple[float, tuple[int, ...]]] = []
    nodes = 0

    x = [0] * d

    def descend(i: int, partial: float, zero: bool):
        nonlocal nodes
        # offset contributed by already-fixed coordinates x[i+1:] (x[:i+1] is 0)
        off = sum(map(mul, r[i], x))
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
            if nodes > budget:
                raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
        if i == 0:
            rest = tuple(x[1:])
            for v in range(lo, hi + 1):
                term = (rii * v + off) ** 2
                if term <= room + 1e-12 and partial + term <= limit:
                    found.append((partial + term, _canonical_sign((v,) + rest)))
            return
        for v in range(lo, hi + 1):
            x[i] = v
            term = (rii * v + off) ** 2
            if term <= room + 1e-12:
                descend(i - 1, partial + term, zero and not v)
        x[i] = 0

    descend(d - 1, 0.0, True)
    found.sort()
    return [ShortVector(c, n) for n, c in found]


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


def minkowski_radius(gram: GramMatrix) -> float:
    """Minkowski first-theorem radius (4/pi) det^(1/d) Gamma(d/2+1)^(2/d):
    guaranteed to contain a nonzero lattice vector."""
    d = gram.dim
    logdet = 2.0 * sum(math.log(row[i]) for i, row in enumerate(gram.factor))
    return 4.0 / math.pi * math.exp(logdet / d + 2.0 / d * math.lgamma(d / 2.0 + 1.0))


def successive_minima(gram: GramMatrix, k: int) -> SuccessiveMinima:
    """First k successive minima with independent witness vectors.

    One LLL reduction; the reduced form is enumerated at a radius from
    min(Minkowski bound, b_k^2) doubling up to b_k^2 >= lambda_k, the k-th
    smallest reduced diagonal entry. Candidates are mapped back, valued on
    this form and scanned by norm; each one independent of those kept, by
    fraction-free integer elimination (no rounding), is kept.
    """
    if not 1 <= k <= gram.dim:
        raise DomainError(f"k must be in [1, {gram.dim}], got {k}")
    reduced, t = reduce(gram)
    cap = sorted(row[i] for i, row in enumerate(reduced.entries))[k - 1]
    radius = min(minkowski_radius(gram), cap)
    t_cols = tuple(zip(*t))
    while True:
        back = [_canonical_sign(tuple(sum(map(mul, sv.coeffs, col)) for col in t_cols))
                for sv in enumerate_below(reduced, radius)]
        rank = _Echelon()
        witnesses = []
        for norm, c in sorted((gram.norm_sq(c), c) for c in back):
            if rank.admits(c):
                witnesses.append(ShortVector(c, norm))
                if len(witnesses) == k:
                    # the scan is in norm order, so nothing shorter was missed
                    return SuccessiveMinima(k, tuple(w.norm_sq for w in witnesses),
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
            flat = obj["entries"]
            if set(map(type, flat)) != {float}:  # one type pass for the common case
                flat = [json_float(v) for v in flat]
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
    "DEFAULT_NODE_BUDGET",
    "GramMatrix",
    "Mode",
    "ShortVector",
    "SuccessiveMinima",
    "ValidationError",
    "enumerate_below",
    "json_float",
    "load_gram",
    "minkowski_radius",
    "parse_gram_text",
    "reduce",
    "successive_minima",
    "validate",
]
