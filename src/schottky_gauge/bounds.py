"""Named bound evaluators and the Jacobian-exclusion verdict.

Theorem-level bounds on successive minima of Jacobians, lemma-level
geodesic length bounds, Minkowski/Hermite lattice bounds, the
decomposition corollary, and the contrapositive exclusion test for PPAV
Gram matrices.

The checks that read computed minima (the Minkowski second-theorem check
and the exclusion verdict) live here, on top of
:mod:`schottky_gauge.lattice`, which imports nothing from this module.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field

from . import lattice
from .errors import DomainError, IncompleteMinima

# Constant upper bound for m_1(J(S))^2 of a hyperelliptic surface:
# 3 log(3 + 2 sqrt 3 + 2 sqrt(5 + 3 sqrt 3)) / pi.
_HYPER_INNER = 3.0 + 2.0 * math.sqrt(3.0) + 2.0 * math.sqrt(5.0 + 3.0 * math.sqrt(3.0))


def _check_genus(g: int, minimum: int = 2) -> None:
    if not isinstance(g, int) or g < minimum:
        raise DomainError(f"genus must be an integer >= {minimum}, got {g!r}")


@dataclass(frozen=True)
class Signature:
    """Topological signature (genus, number of boundary components)."""

    g: int
    n: int

    def __post_init__(self):
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (self.g, self.n)):
            raise DomainError(f"signature ({self.g!r},{self.n!r}) is not integral")
        if self.g < 0 or self.n < 0:
            raise DomainError("signature components must be nonnegative")
        if 2 * self.g - 2 + self.n <= 0:
            raise DomainError(f"signature ({self.g},{self.n}) is not hyperbolic")


@dataclass(frozen=True)
class Decomposition:
    """Result of cutting a surface along disjoint short geodesics.

    ``t`` is a common upper bound for the cutting geodesics, ``pieces``
    the positive-genus components of the cut surface.
    """

    t: float
    pieces: tuple[Signature, ...]

    def __post_init__(self):
        if not 0 < self.t < math.inf:
            raise DomainError(f"cut length bound t must be positive and finite, "
                              f"got {self.t!r}")
        if not self.pieces:
            raise DomainError("decomposition needs at least one piece")
        if any(p.g <= 0 for p in self.pieces):
            raise DomainError("every piece must have positive genus")


def load_decomposition(path: str) -> Decomposition:
    """Read a JSON decomposition ``{"t": ..., "pieces": [[g, n], ...]}``;
    other keys are ignored. A file that is not JSON or whose fields are
    missing or malformed (a boolean or a string where a number belongs)
    raises :class:`DomainError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
            pieces = tuple(Signature(g, n) for g, n in spec["pieces"])
            return Decomposition(t=lattice.json_float(spec["t"]), pieces=pieces)
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"cannot parse decomposition file: {exc}") from exc


class Verdict(enum.Enum):
    NOT_JACOBIAN = "NotJacobian"
    NOT_HYPERELLIPTIC_JACOBIAN = "NotHyperellipticJacobian"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ExclusionVerdict:
    m1_sq: float
    m2_sq: float
    thm_bs_threshold: float
    thm_main_m1_threshold: float
    thm_main_m2_threshold: float
    hyperelliptic_threshold: float
    verdict: Verdict
    margins: dict[str, float] = field(default_factory=dict)


def thm_bs_upper(g: int) -> float:
    """(3/pi) log(4g - 2): ceiling for m_1^2 over all genus-g Jacobians."""
    _check_genus(g)
    return 3.0 / math.pi * math.log(4 * g - 2)


def thm_main_bounds(g: int) -> tuple[float, float]:
    """(log(4g-2), 3.1 log(8g-7)): ceilings for m_1^2 and m_2^2 of a Jacobian."""
    _check_genus(g)
    return math.log(4 * g - 2), 3.1 * math.log(8 * g - 7)


def systole_bounds(g: int) -> tuple[float, float]:
    """(2 log(4g-2), 3 log(8g-7)): ceilings for the two shortest geodesics."""
    _check_genus(g)
    return 2.0 * math.log(4 * g - 2), 3.0 * math.log(8 * g - 7)


def corollary_mixing(t: float) -> float:
    """M = min{sinh(t/2)/sqrt(sinh^2(t/2) + 1), 1/2} entering the
    decomposition bound denominator."""
    if t <= 0:
        raise DomainError("t must be positive")
    s = math.sinh(t / 2.0)
    return min(s / math.sqrt(s * s + 1.0), 0.5)


def corollary_report(d: Decomposition) -> dict:
    """Full decomposition report.

    Includes M, the literal per-piece vector-norm bounds
    (n_i + 1) max{4 log(4 g_i + 2 n_i - 3), t} / (pi - 2 arcsin(M)), and
    the companion values with +3 in the log argument (the form the
    underlying bordered-systole bound produces); a flag marks the
    discrepancy rather than silently adopting either reading.
    """
    m_mix = corollary_mixing(d.t)
    denom = math.pi - 2.0 * math.asin(m_mix)
    pieces = []
    for sig in d.pieces:
        # log argument >= 3: each piece is hyperbolic with positive genus
        literal, variant = ((sig.n + 1) * max(4.0 * math.log(4 * sig.g + 2 * sig.n + s), d.t)
                            / denom for s in (-3, 3))
        pieces.append(
            {
                "g": sig.g,
                "n": sig.n,
                "bound": literal,
                "bound_plus3_variant": variant,
                "log_argument_discrepancy": True,
            }
        )
    return {"t": d.t, "M": m_mix, "denominator": denom, "pieces": pieces}


def hyperelliptic_bound() -> float:
    """Genus-independent ceiling for m_1^2 of a hyperelliptic Jacobian."""
    return 3.0 * math.log(_HYPER_INNER) / math.pi


def bavard_constant() -> float:
    """Limit constant 2 log(3 + 2 sqrt 3 + 2 sqrt(5 + 3 sqrt 3)) = 5.1067..."""
    return 2.0 * math.log(_HYPER_INNER)


def bavard_bound(g: int) -> float:
    """4 arccosh(1 / (2 sin(pi (g+1) / 12g))): hyperelliptic systole bound,
    increasing toward :func:`bavard_constant`."""
    _check_genus(g)
    return 4.0 * math.acosh(1.0 / (2.0 * math.sin(math.pi * (g + 1) / (12.0 * g))))


def naive_disk_bound() -> float:
    """Coarse disk-packing constant 4 arccosh(2) = 5.2678..."""
    return 4.0 * math.acosh(2.0)


def minkowski_product_log_bound(g: int) -> float:
    """log((4/pi)^g (g!)^2): Minkowski second-theorem ceiling for the log of
    the product of all 2g squared minima of a PPAV."""
    _check_genus(g, 1)
    return g * math.log(4.0 / math.pi) + 2.0 * math.lgamma(g + 1)


def hermite_ppav_bounds(g: int) -> tuple[float, float]:
    """((1/pi)(2 g!)^(1/g), (4/pi)(g!)^(1/g)): Hermite-constant bracket over
    dimension-g PPAVs; '2 g!' reads as 2*(g!), matching the g/(pi e) asymptote."""
    _check_genus(g)
    lg = math.lgamma(g + 1)
    lower = math.exp((math.log(2.0) + lg) / g) / math.pi
    upper = 4.0 / math.pi * math.exp(lg / g)
    return lower, upper


def check_minkowski(gram, minima) -> dict:
    """Second-theorem compliance: sum of log m_k^2 against the PPAV ceiling."""
    if gram.mode is not lattice.Mode.PPAV:
        raise DomainError("Minkowski check applies to PPAV-mode matrices")
    if minima.k < gram.dim:
        raise IncompleteMinima(f"need all {gram.dim} minima, got {minima.k}")
    g = gram.dim // 2
    total = sum(math.log(v) for v in minima.values)
    ceiling = minkowski_product_log_bound(g)
    return {"g": g, "sum_log_minima_sq": total, "log_bound": ceiling,
            "slack": ceiling - total, "passed": total <= ceiling + 1e-12}


def jacobian_exclusion(gram) -> ExclusionVerdict:
    """Contrapositive Jacobian test for a PPAV Gram matrix.

    NotJacobian when m_1^2 exceeds the (3/pi) log(4g-2) ceiling or m_2^2
    exceeds 3.1 log(8g-7); otherwise NotHyperellipticJacobian when m_1^2
    exceeds the hyperelliptic constant; otherwise Inconclusive.
    """
    if gram.mode is not lattice.Mode.PPAV:
        raise DomainError("exclusion test requires a PPAV-mode Gram matrix")
    g = gram.dim // 2
    _check_genus(g)
    minima = lattice.successive_minima(gram, 2)
    m1_sq, m2_sq = minima.values[0], minima.values[1]
    thr_bs = thm_bs_upper(g)
    thr_m1, thr_m2 = thm_main_bounds(g)
    thr_hyp = hyperelliptic_bound()
    if m1_sq > thr_bs or m2_sq > thr_m2:
        verdict = Verdict.NOT_JACOBIAN
    elif m1_sq > thr_hyp:
        verdict = Verdict.NOT_HYPERELLIPTIC_JACOBIAN
    else:
        verdict = Verdict.INCONCLUSIVE
    margins = {
        "margin_m1_vs_bs": thr_bs - m1_sq,
        "margin_m1_vs_main": thr_m1 - m1_sq,
        "margin_m2_vs_main": thr_m2 - m2_sq,
        "margin_m1_vs_hyperelliptic": thr_hyp - m1_sq,
    }
    return ExclusionVerdict(
        m1_sq=m1_sq,
        m2_sq=m2_sq,
        thm_bs_threshold=thr_bs,
        thm_main_m1_threshold=thr_m1,
        thm_main_m2_threshold=thr_m2,
        hyperelliptic_threshold=thr_hyp,
        verdict=verdict,
        margins=margins,
    )
