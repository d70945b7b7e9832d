"""Successive minima of positive-definite quadratic forms.

Validation of Gram matrices, LLL reduction with an exact unimodular
transform (on Python lists, over the columns of the upper-triangular
Cholesky factor, which a Givens rotation keeps triangular after a swap),
Fincke-Pohst enumeration of the form as given (it does not reduce), minima
from one LLL per call at a radius capped by the k-th reduced diagonal entry
with witnesses chosen by exact integer (fraction-free) elimination, and a
Minkowski second-theorem check.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DeterminantNotOne,
    DomainError,
    IncompleteMinima,
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
    dim: int
    entries: np.ndarray  # symmetrized copy, shape (dim, dim)
    mode: Mode

    def __post_init__(self):
        object.__setattr__(self, "entries", np.array(self.entries, dtype=float))
        self.entries.setflags(write=False)

    def norm_sq(self, coeffs) -> float:
        x = np.asarray(coeffs, dtype=float)
        return float(x @ self.entries @ x)


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


def validate(raw, mode: Mode = Mode.PLAIN) -> GramMatrix:
    """Check symmetry, positive definiteness and (PPAV mode) unit determinant.

    Symmetrizes via (G + G^T)/2 once the asymmetry passes the tolerance;
    a non-finite entry, or overflow there, is NotPositiveDefinite.
    """
    a = np.array(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise NotSymmetric(f"expected a nonempty square matrix, got shape {a.shape}")
    d = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        g = 0.5 * (a + a.T)
        if not np.isfinite(g).all():
            raise NotPositiveDefinite("symmetrized matrix is not finite")
        scale = max(1.0, float(np.max(np.abs(a))))
        if float(np.max(np.abs(a - a.T))) > _SYMMETRY_TOL * scale:
            raise NotSymmetric("matrix is not symmetric within tolerance")
    if mode is Mode.PPAV and d % 2 != 0:
        raise OddDimension(f"PPAV Gram matrix must have even dimension, got {d}")
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None
    if mode is Mode.PPAV:
        det = float(np.prod(np.diag(chol))) ** 2
        if abs(det - 1.0) > _DET_ONE_TOL:
            raise DeterminantNotOne(f"determinant {det} differs from 1")
    return GramMatrix(dim=d, entries=g, mode=mode)


def _lll(r: np.ndarray) -> np.ndarray:
    """LLL reduction of the columns of the upper-triangular factor R of G
    (G = R^T R); returns the integer unimodular T with reduced Gram T G T^T.

    Column j of R is basis vector j in its Gram-Schmidt frame, so
    mu[k, j] = R[j, k] / R[j, j] and the squared Gram-Schmidt norms are
    R[j, j]^2. A swap exchanges two columns and one Givens rotation on the
    same two rows makes R triangular again.
    """
    r = r.tolist()
    n = len(r)
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    swaps = 0
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(r[j][k] / r[j][j])
            if q != 0:
                for row in r:
                    row[k] -= q * row[j]
                t[k] = [a - q * b for a, b in zip(t[k], t[j])]
        if r[k][k] ** 2 + r[k - 1][k] ** 2 >= _LLL_DELTA * r[k - 1][k - 1] ** 2:
            k += 1
            continue
        for row in r:
            row[k - 1], row[k] = row[k], row[k - 1]
        t[k - 1], t[k] = t[k], t[k - 1]
        h = math.hypot(r[k - 1][k - 1], r[k][k - 1])
        c, s = r[k - 1][k - 1] / h, r[k][k - 1] / h
        r[k - 1], r[k] = ([c * a + s * b for a, b in zip(r[k - 1], r[k])],
                          [c * b - s * a for a, b in zip(r[k - 1], r[k])])
        k = max(k - 1, 1)
        swaps += 1
        if swaps > _LLL_MAX_SWAPS:
            raise NumericalBreakdown("LLL swap budget exhausted")
    return np.array(t, dtype=np.int64)


def reduce(gram: GramMatrix) -> tuple[GramMatrix, np.ndarray]:
    """LLL-reduce (delta = 0.99); returns the reduced Gram and the integer
    unimodular T with reduced = T G T^T."""
    t = _lll(np.linalg.cholesky(gram.entries).T)
    reduced = t @ gram.entries @ t.T
    reduced = 0.5 * (reduced + reduced.T)
    return GramMatrix(dim=gram.dim, entries=reduced, mode=gram.mode), t


def _canonical_sign(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    for c in coeffs:
        if c != 0:
            return coeffs if c > 0 else tuple(-x for x in coeffs)
    return coeffs


def enumerate_below(gram: GramMatrix, radius_sq: float,
                    budget: int = DEFAULT_NODE_BUDGET) -> list[ShortVector]:
    """All nonzero integer vectors with form value <= radius_sq (one
    representative per +/- pair), in ascending (norm, coefficient) order.

    Fincke-Pohst tree search on the triangular factorization of the form
    as given: it does not reduce, so callers pass an LLL-reduced form (see
    ``reduce``) for speed. A multiplicative slack keeps boundary vectors
    whose float norm lands within tolerance of the radius.
    """
    if radius_sq <= 0:
        raise DomainError("radius_sq must be positive")
    d = gram.dim
    r = np.linalg.cholesky(gram.entries).T  # upper triangular, G = R^T R
    limit = radius_sq * (1.0 + _RADIUS_SLACK)
    found: dict[tuple[int, ...], float] = {}
    nodes = 0

    x = [0] * d

    def descend(i: int, partial: float):
        nonlocal nodes
        if i < 0:
            if any(x):
                coeffs = _canonical_sign(tuple(x))
                norm = gram.norm_sq(coeffs)
                if norm <= limit:
                    found.setdefault(coeffs, norm)
            return
        # offset contributed by already-fixed coordinates x[i+1:]
        off = sum(r[i, j] * x[j] for j in range(i + 1, d))
        room = limit - partial
        if room < 0:
            return
        half = math.sqrt(room) / r[i, i]
        center = -off / r[i, i]
        lo = math.ceil(center - half - 1e-12)
        hi = math.floor(center + half + 1e-12)
        for v in range(lo, hi + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
            x[i] = v
            term = (r[i, i] * v + off) ** 2
            if term <= room + 1e-12:
                descend(i - 1, partial + term)
        x[i] = 0

    descend(d - 1, 0.0)
    vecs = [ShortVector(c, n) for c, n in found.items()]
    vecs.sort(key=lambda sv: (sv.norm_sq, sv.coeffs))
    return vecs


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
    logdet = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(gram.entries)))))
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
    cap = float(np.sort(np.diag(reduced.entries))[k - 1])
    radius = min(minkowski_radius(gram), cap)
    while True:
        back = [_canonical_sign(tuple(int(v) for v in np.array(sv.coeffs) @ t))
                for sv in enumerate_below(reduced, radius)]
        vecs = sorted((ShortVector(c, gram.norm_sq(c)) for c in back),
                      key=lambda sv: (sv.norm_sq, sv.coeffs))
        rank = _Echelon()
        witnesses = []
        for sv in vecs:
            if rank.admits(sv.coeffs):
                witnesses.append(sv)
                if len(witnesses) == k:
                    # the scan is in norm order, so nothing shorter was missed
                    return SuccessiveMinima(k, tuple(w.norm_sq for w in witnesses),
                                            tuple(witnesses))
        if radius >= cap:
            raise NumericalBreakdown(f"no {k} independent vectors below {cap}")
        radius = min(2.0 * radius, cap)


def check_minkowski(gram: GramMatrix, minima: SuccessiveMinima) -> dict:
    """Second-theorem compliance: sum of log m_k^2 against the PPAV ceiling."""
    from . import bounds  # deferred: bounds imports this module for exclusion

    if gram.mode is not Mode.PPAV:
        raise DomainError("Minkowski check applies to PPAV-mode matrices")
    if minima.k < gram.dim:
        raise IncompleteMinima(f"need all {gram.dim} minima, got {minima.k}")
    g = gram.dim // 2
    total = sum(math.log(v) for v in minima.values)
    ceiling = bounds.minkowski_product_log_bound(g)
    return {
        "g": g,
        "sum_log_minima_sq": total,
        "log_bound": ceiling,
        "slack": ceiling - total,
        "passed": total <= ceiling + 1e-12,
    }


# ----------------------------------------------------------------------
# File formats
# ----------------------------------------------------------------------

def parse_gram_text(text: str, mode: Mode | None = None) -> GramMatrix:
    """Parse either the JSON or the whitespace Gram-matrix format; text
    that does not parse as either is MalformedGram."""
    try:
        if text.lstrip().startswith("{"):
            obj = json.loads(text)
            d = int(obj["dim"])
            entries = np.array(obj["entries"], dtype=float).reshape(d, d)
            file_mode = Mode(obj.get("mode", "plain"))
        else:
            tokens = text.split()
            d = int(tokens[0])
            if len(tokens) != 1 + d * d:
                raise MalformedGram(f"expected {d * d} entries, got {len(tokens) - 1}")
            entries = np.array([float(t) for t in tokens[1:]]).reshape(d, d)
            file_mode = Mode.PLAIN
    except (ValueError, LookupError, TypeError, OverflowError) as exc:
        raise MalformedGram(f"cannot parse Gram matrix text: {exc}") from exc
    return validate(entries, mode if mode is not None else file_mode)


def load_gram(path: str, mode: Mode | None = None) -> GramMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedGram(f"Gram matrix file is not UTF-8: {exc}") from exc
    return parse_gram_text(text, mode)


def dump_gram(gram: GramMatrix) -> str:
    """JSON serialization with 17-significant-digit decimals."""
    entries = [float(format(v, ".17g")) for v in gram.entries.ravel()]
    return json.dumps(
        {"dim": gram.dim, "entries": entries, "mode": gram.mode.value}
    )


__all__ = [
    "DEFAULT_NODE_BUDGET",
    "GramMatrix",
    "Mode",
    "ShortVector",
    "SuccessiveMinima",
    "ValidationError",
    "check_minkowski",
    "dump_gram",
    "enumerate_below",
    "load_gram",
    "minkowski_radius",
    "parse_gram_text",
    "reduce",
    "successive_minima",
    "validate",
]
