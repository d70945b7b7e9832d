"""Named bound evaluators and the Jacobian-exclusion verdict.

Each genus ceiling of the theorems on successive minima of Jacobians and
on short geodesics has one definition here, a function of an Interval
genus named after the ``bounds`` row it feeds.  ``certify`` proves with
them on genus cells; the ``bounds`` and ``exclude`` commands evaluate
them on a point genus and use the midpoint of the enclosure, which
contains the exact value.  The Minkowski/Hermite bounds (lgamma has no
interval form) and the decomposition corollary are floats; Minkowski's
second theorem in dimension 2g, on ``lattice.minkowski_log_constant``,
gives the product ceiling and the Hermite bracket's upper end.

The exclusion verdict, which reads computed minima, lives here, on top
of :mod:`schottky_gauge.lattice`, which imports nothing from this module.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

from . import lattice
from .errors import DomainError
from .interval import IPI, Interval

_R31 = Interval.ratio(31.0, 10.0)           # 3.1


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
    """The row ``exclude`` prints, field for field: the two minima, the
    ceilings they are held against and each ceiling's margin over them."""

    verdict: Verdict
    m1_sq: float
    m2_sq: float
    thm_bs_threshold: float
    thm_main_m2_threshold: float
    hyperelliptic_threshold: float
    margin_m1_vs_bs: float
    margin_m1_vs_main: float
    margin_m2_vs_main: float
    margin_m1_vs_hyperelliptic: float

    def as_dict(self) -> dict:
        return {**vars(self), "verdict": self.verdict.value}


def log8(g: Interval) -> Interval:
    """log(8g - 7), the logarithm of the m_2 and gamma_2 ceilings."""
    return (g * 8.0 - 7.0).log()


def thm_main_m1(g: Interval) -> Interval:
    """log(4g - 2): the main theorem's ceiling for m_1^2 of a Jacobian."""
    return (g * 4.0 - 2.0).log()


def thm_main_m2(g: Interval) -> Interval:
    """3.1 log(8g - 7): the main theorem's ceiling for m_2^2 of a Jacobian."""
    return log8(g) * _R31


def thm_bs_upper(g: Interval) -> Interval:
    """(3/pi) log(4g - 2): Buser-Sarnak's ceiling for m_1^2 over all
    genus-g Jacobians."""
    return thm_main_m1(g) * 3.0 / IPI


def systole_gamma1(g: Interval) -> Interval:
    """2 log(4g - 2): ceiling for the shortest closed geodesic."""
    return thm_main_m1(g) * 2.0


def systole_gamma2(g: Interval) -> Interval:
    """3 log(8g - 7): ceiling for the second shortest closed geodesic."""
    return log8(g) * 3.0


def _bavard(theta: Interval) -> Interval:
    return (1.0 / (theta.sin() * 2.0)).acosh() * 4.0


def bavard_bound(g: Interval) -> Interval:
    """4 arccosh(1/(2 sin(pi (g+1)/12g))): Bavard's ceiling for the systole
    of a hyperelliptic surface, increasing toward ``BAVARD_LIMIT``."""
    # (g+1)/g written as 1 + 1/g so a wide genus cell still yields a tight
    # enclosure inside (pi/12, pi/8]
    return _bavard(IPI / 12.0 * (1.0 + 1.0 / g))


# 4 arccosh(1/(2 sin(pi/12))) = 2 log(3 + 2 sqrt 3 + 2 sqrt(5 + 3 sqrt 3))
BAVARD_LIMIT = _bavard(IPI / 12.0)
# 3 log(3 + 2 sqrt 3 + 2 sqrt(5 + 3 sqrt 3))/pi, the limit times 3/(2 pi):
# the genus-free ceiling for m_1^2 of a hyperelliptic Jacobian
HYPERELLIPTIC = BAVARD_LIMIT * 1.5 / IPI


def corollary_mixing(t: float) -> float:
    """M = min{sinh(t/2)/sqrt(sinh^2(t/2) + 1), 1/2} entering the
    decomposition bound denominator, for t > 0 (``Decomposition`` holds it)."""
    if t >= 2.0:
        # sinh(t/2) > 1/sqrt(3), where the first term reaches 1/2; larger t
        # would overflow s*s, then sinh
        return 0.5
    s = math.sinh(t / 2.0)
    return min(s / math.sqrt(s * s + 1.0), 0.5)


def corollary_report(d: Decomposition) -> list[dict]:
    """The rows ``corollary`` prints, one per piece, each with M and the
    denominator.

    Each piece gets the literal vector-norm bound
    (n_i + 1) max{4 log(4 g_i + 2 n_i - 3), t} / (pi - 2 arcsin(M)) and
    the companion value with +3 in the log argument (the form the
    underlying bordered-systole bound produces); a flag marks the
    discrepancy rather than silently adopting either reading.
    """
    m_mix = corollary_mixing(d.t)
    denom = math.pi - 2.0 * math.asin(m_mix)
    rows = []
    for sig in d.pieces:
        # log argument >= 3: each piece is hyperbolic with positive genus
        literal, variant = ((sig.n + 1) * max(4.0 * math.log(4 * sig.g + 2 * sig.n + s), d.t)
                            / denom for s in (-3, 3))
        rows.append({"g": sig.g, "n": sig.n, "bound": literal,
                     "bound_plus3_variant": variant,
                     "log_argument_discrepancy": True,
                     "M": m_mix, "denominator": denom})
    return rows


def minkowski_product_log_bound(g: int) -> float:
    """log((4/pi)^(2g) (g!)^2): Minkowski's second theorem in dimension 2g,
    prod m_k^2 <= (2^(2g)/vol B_2g)^2 det, as a ceiling for the log of the
    product of all 2g squared minima of a det-1 PPAV."""
    _check_genus(g, 1)
    return 2.0 * g * lattice.minkowski_log_constant(2 * g)


def hermite_ppav_bounds(g: int) -> tuple[float, float]:
    """((1/pi)(2 g!)^(1/g), (4/pi)(g!)^(1/g)): Hermite-constant bracket over
    dimension-g PPAVs; '2 g!' reads as 2*(g!), matching the g/(pi e) asymptote.
    The upper end is the 2g-th root of Minkowski's product ceiling."""
    _check_genus(g)
    lower = math.exp((math.log(2.0) + math.lgamma(g + 1)) / g) / math.pi
    return lower, math.exp(lattice.minkowski_log_constant(2 * g))


def jacobian_exclusion(gram) -> ExclusionVerdict:
    """Contrapositive Jacobian test for a PPAV Gram matrix.

    NotJacobian when m_1^2 exceeds the (3/pi) log(4g-2) ceiling or m_2^2
    exceeds 3.1 log(8g-7); otherwise NotHyperellipticJacobian when m_1^2
    exceeds the hyperelliptic constant; otherwise Inconclusive.  Each
    ceiling is the midpoint of its enclosure, the value ``bounds`` prints.
    """
    if gram.mode is not lattice.Mode.PPAV:
        raise DomainError("exclusion test requires a PPAV-mode Gram matrix")
    g = gram.dim // 2
    _check_genus(g)
    minima = lattice.successive_minima(gram, 2)
    m1_sq, m2_sq = minima.values[0], minima.values[1]
    genus = Interval.point(float(g))
    thr_bs, thr_m1 = thm_bs_upper(genus).mid, thm_main_m1(genus).mid
    thr_m2, thr_hyp = thm_main_m2(genus).mid, HYPERELLIPTIC.mid
    if m1_sq > thr_bs or m2_sq > thr_m2:
        verdict = Verdict.NOT_JACOBIAN
    elif m1_sq > thr_hyp:
        verdict = Verdict.NOT_HYPERELLIPTIC_JACOBIAN
    else:
        verdict = Verdict.INCONCLUSIVE
    return ExclusionVerdict(
        verdict, m1_sq, m2_sq, thr_bs, thr_m2, thr_hyp,
        margin_m1_vs_bs=thr_bs - m1_sq,
        margin_m1_vs_main=thr_m1 - m1_sq,
        margin_m2_vs_main=thr_m2 - m2_sq,
        margin_m1_vs_hyperelliptic=thr_hyp - m1_sq,
    )
