"""Rigorous certification of the bound inequalities by interval branch-and-bound.

Each registered family packages one inequality together with its parameter
domain.  Continuous parameters (including the genus, relaxed from the
integers to a real interval, which only strengthens the claim) are covered
by adaptive bisection with outward-rounded interval arithmetic; the genus
tail from ``g_max`` on is closed by a per-family closed-form slack floor
whose derivation is recorded in the family's ``tail`` note.

Each task has exactly one slack definition, its interval form, which takes
one Interval per axis in the order of the task's ``dims``.  A family is
Certified only when every leaf cell has a strictly positive slack lower
bound and the tail is handled; it is Violated only when that same form,
evaluated on the point cell at a cell's midpoint, has a strictly negative
upper bound.  Otherwise it is Undecided: the sweep stops at the width
floor, a cell with no float split point strictly inside any axis, or when
the cell budget is spent, which is the only runtime bound on an unresolved
sweep.  The engine never weakens a claim to force a verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable

from . import bounds, collar
from .errors import DomainError
from .interval import (
    _INF, _NEG_INF, IPI, IW, IWP, IndeterminateCell, Interval, _next)

DEFAULT_G_MAX = 1e6
CELL_BUDGET = 10**7  # cells one certify() call may sweep, shared by its tasks


# Interval constants, each enclosed once at import.
_C22 = Interval.ratio(22.0, 10.0)           # 2.2
_C3_31 = Interval.ratio(3.0, 3.1)           # 3/3.1
_C96 = Interval.ratio(96.0, 100.0)
_C73 = Interval.ratio(73.0, 100.0)
_DCAP_W = collar.dcap(IW)
_DCAP_WP = collar.dcap(IWP)


# ----------------------------------------------------------------------
# Engine data model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Dim:
    """One continuous axis of a task domain.

    ``hi`` is a fixed ceiling or a ceiling coupled to the genus: a function
    of an Interval genus returning an outward-rounded Interval, such as a
    ``bounds`` form.  The engine takes its ``.hi`` at ``g_max`` for the
    initial box and, on a task with the ``GENUS`` axis, at each cell's
    largest genus, clipping the axis there or counting the cell vacuous
    when it lies wholly above.
    """

    name: str
    lo: float
    hi: float | Callable[[Interval], Interval]


# The genus axis: the integers relaxed to the real interval [2, g_max],
# so certifying the relaxation certifies every genus.  Its ceiling is the
# genus itself.  It is the only axis bisected geometrically, which keeps
# the cell count near-logarithmic in g_max.
GENUS = Dim("g", 2.0, lambda g: g)


@dataclass(frozen=True)
class Task:
    """One rectangular sub-domain with its slack form.  ``slack_iv`` takes
    one Interval per axis, in ``dims`` order, and raises ``DomainError`` on
    a cell where it has no enclosure."""

    name: str
    dims: tuple[Dim, ...]
    slack_iv: Callable[..., Interval]


@dataclass(frozen=True)
class TailProof:
    infimum_lb: float
    note: str
    strict: bool = False  # slack exceeds infimum_lb at every finite parameter


@dataclass(frozen=True)
class CertFamily:
    id: str
    tasks: tuple[Task, ...]
    tail: Callable[[float], TailProof] | None = None
    exempt: bool = False          # may stay Undecided without failing a suite


@dataclass(frozen=True)
class CertReport:
    """One family's result, field for field the row the CLI prints; the
    witness maps each axis name to a cell midpoint."""

    family: str
    status: str                   # Certified | Violated | Undecided
    min_slack_lo: float | None
    min_slack_hi: float | None
    witness: dict | None
    cells_processed: int
    max_depth: int
    tail_status: str              # Proven | Checked-to-bound | N/A
    tail_note: str
    vacuous_cells: int
    g_max: float
    note: str

    def as_dict(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# Branch and bound
# ----------------------------------------------------------------------

def _box(task: Task, g_max: float) -> tuple[list[Interval], list[float]] | None:
    """The initial cell of ``task`` at ``g_max`` and each axis's span (a log
    span on the genus axis); None when an axis is empty, which makes the
    domain vacuous.  A ceiling with no finite enclosure at ``g_max`` raises
    ``IndeterminateCell``."""
    top = Interval.point(g_max)
    init, spans = [], []
    for d in task.dims:
        hi = d.hi(top).hi if callable(d.hi) else d.hi
        if d.lo >= hi:
            return None
        init.append(Interval(d.lo, hi))
        spans.append(math.log(hi / d.lo) if d is GENUS else hi - d.lo)
    return init, spans


def _split_plan(c: Interval, geometric: bool, span: float):
    """``c``'s width relative to its axis's initial span (a log width on the
    genus axis) and its halves, upper first, at the split point: the
    geometric mean on the genus axis when that lies strictly inside, else
    the midpoint.  None when neither lies strictly inside."""
    split = math.sqrt(c.lo * c.hi) if geometric else c.mid
    if not c.lo < split < c.hi:
        split = c.mid
    if not c.lo < split < c.hi:
        return None
    w = (math.log(c.hi / c.lo) if geometric else c.hi - c.lo) / span
    return w, (Interval(split, c.hi), Interval(c.lo, split))


_VIOLATED = "violation proven by point enclosure"


def certify(family: CertFamily, *, g_max: float = DEFAULT_G_MAX) -> CertReport:
    """Certify one family over its full domain.

    Sweeps the family's tasks on the genus range [2, g_max] in turn, with
    ``CELL_BUDGET`` cells for all of them, and closes the genus range from
    ``g_max`` on with the family's tail proof.  Each task subdivides until
    every cell's slack interval is strictly positive (Certified), a cell's
    midpoint has a strictly negative point enclosure (Violated), or the
    sweep stops (Undecided): at the width floor, a cell with no float split
    point strictly inside any axis, or when the cell budget is spent,
    which bounds every unresolved sweep.  Raises ``IndeterminateCell``,
    before any cell is swept, when a box ceiling or the tail floor has no
    finite enclosure at ``g_max``.
    """
    if not (g_max >= 2 and math.isfinite(g_max)):
        raise DomainError("g_max must be a finite genus cutoff >= 2")
    boxes = [_box(task, g_max) for task in family.tasks]
    proof = None if family.tail is None else family.tail(g_max)
    budget = CELL_BUDGET
    cells = vacuous = max_depth = 0
    best: Interval | None = None  # the least slack of a closed cell
    at = None                     # (axis names, cell) of its witness
    stop = None                   # (reason, cell, slack) where a task stopped
    for task, box in zip(family.tasks, boxes):
        if box is None:
            continue  # empty axis: vacuous domain
        init, spans = box
        dims, slack_iv = task.dims, task.slack_iv
        names = [d.name for d in dims]
        geometric = [d is GENUS for d in dims]
        # Axes whose ceiling follows the genus; only their tasks clip cells.
        genus = geometric.index(True) if True in geometric else -1
        coupled = [i for i, d in enumerate(dims)
                   if callable(d.hi) and i != genus] if genus >= 0 else []

        @functools.cache
        def caps(g_hi):
            """Each coupled axis with its ceiling at genus ``g_hi``."""
            g = Interval.point(g_hi)
            return [(i, dims[i].hi(g).hi) for i in coupled]

        def clip(cell):
            """Cap each coupled axis at its ceiling for the cell's largest
            genus; None when the cell lies wholly above a ceiling."""
            cell = list(cell)
            for i, cap in caps(cell[genus].hi):
                if cell[i].lo > cap:
                    return None
                if cell[i].hi > cap:
                    cell[i] = Interval(cell[i].lo, cap)
            return tuple(cell)

        # Each axis interval's split plan, made once: children share their
        # parent's halves, so the cells meeting an interval share one object.
        plans: dict[Interval, tuple | None] = {}
        stack: list[tuple[tuple[Interval, ...], int]] = [(tuple(init), 0)]
        while stack:
            cell, depth = stack.pop()
            cells += 1
            if depth > max_depth:
                max_depth = depth
            if cells > budget:
                stop = "cell budget exhausted", cell, None
                break
            if coupled:
                cell = clip(cell)
                if cell is None:
                    vacuous += 1
                    continue
            try:
                slack = slack_iv(*cell)
            except DomainError:  # no enclosure on this cell
                slack = None
            if slack is not None and slack.lo > 0.0:
                if best is None or slack.lo < best.lo:
                    best, at = slack, (names, cell)
                continue
            if slack is not None and slack.hi < 0.0:
                try:
                    point = slack_iv(*[Interval.point(c.mid) for c in cell])
                except DomainError:
                    point = None
                if point is not None and point.hi < 0.0:
                    stop = _VIOLATED, cell, point
                    break
            # Split the widest axis, relative to its initial span, that has a
            # split point strictly inside; the first such axis on a tie.
            axis, widest, halves = -1, -1.0, None
            for i, c in enumerate(cell):
                try:
                    plan = plans[c]
                except KeyError:
                    plan = plans[c] = _split_plan(c, geometric[i], spans[i])
                if plan is not None and plan[0] > widest:
                    axis, widest, halves = i, plan[0], plan[1]
            if halves is None:
                stop = "cell width floor reached", cell, slack
                break
            for half in halves:
                stack.append((cell[:axis] + (half,) + cell[axis + 1:], depth + 1))
        if stop is not None:
            break
    status, note, tail_status, tail_note = "Certified", "", "N/A", ""
    if stop is not None:
        reason, cell, best = stop
        at = names, cell
        status = "Violated" if reason == _VIOLATED else "Undecided"
        note = f"{reason} in task {task.name}"
    elif proof is not None:
        tail_note = f"slack floor {proof.infimum_lb:.6g} beyond g_max: {proof.note}"
        lb = proof.infimum_lb
        # strict: the slack exceeds lb, so a strict floor of 0 suffices
        if lb > 0.0 or (proof.strict and lb >= 0.0):
            tail_status = "Proven"
        else:
            tail_status = "Checked-to-bound"
            status, note = "Undecided", "tail floor not positive"
    return CertReport(
        family=family.id, status=status,
        min_slack_lo=None if best is None else best.lo,
        min_slack_hi=None if best is None else best.hi,
        witness=None if at is None else {n: c.mid for n, c in zip(*at)},
        cells_processed=cells, max_depth=max_depth, tail_status=tail_status,
        tail_note=tail_note, vacuous_cells=vacuous, g_max=g_max, note=note,
    )


# ----------------------------------------------------------------------
# Family definitions
# ----------------------------------------------------------------------

# -- CF-A --------------------------------------------------------------
# 2 arccosh(sinh^2(g/2)(cosh(2 arcsinh(2 pi (g-1)/gamma)) - 1) - 1)
#   <= 4 log(8g - 7)   on g in [2, g_max], gamma in (0, pi/2].
# Rewritten with cosh(2 arcsinh y) - 1 = 2 y^2 and sinh(x)/x = sinhc(x),
# the arccosh argument is 2 a^2 - 1 with a = pi (g-1) sinhc(gamma/2) >= pi,
# and arccosh(2 a^2 - 1) = 2 arccosh(a): the slack is
# 4 (log(8g-7) - arccosh(a)), finite below g ~ 1e307 and never vacuous.

# The sweep meets the same axis interval in many cells: the default sweep
# has 13,965 cells but only 255 distinct genus intervals and 203 distinct
# gamma intervals, each one object that its cells share.  So the genus
# part (pi (g-1), log(8g-7)) and the gamma part sinhc(gamma/2) are each
# computed once per distinct interval, in an LRU of at most
# _AXIS_PART_SIZE entries keyed by the Interval object (Interval equality
# is identity, and the LRU holds its keys, so no id is reused while its
# entry lives).  A part is a pure function of the interval's ends, so an
# entry kept from an earlier call, or made for another object with the
# same ends, is the value this call would compute; a call that raises
# stores nothing.  With P = pi (g-1) >= pi, S = sinhc(gamma/2) >= 1 and
# L = log(8g-7), the slack 4 (L - arccosh(P S)) is monotone in each part,
# so it is combined from the parts' ends with no Interval in between:
# [4 (L.lo - acosh(up(P.hi S.hi))), 4 (L.hi - acosh(down(P.lo S.lo)))].
# Each end takes the outward steps of the written-out form
# (L - (P * S).acosh()) * 4: one ulp for the product, Interval.acosh's two
# with the lower end floored at 0, one for the difference and one for the
# times 4, so each enclosure, and each exception type, is the same.
_AXIS_PART_SIZE = 128


@functools.lru_cache(maxsize=_AXIS_PART_SIZE)
def _cfa_genus(g: Interval) -> tuple[Interval, Interval]:
    return IPI * (g - 1.0), bounds.log8(g)


@functools.lru_cache(maxsize=_AXIS_PART_SIZE)
def _cfa_gamma(y: Interval) -> Interval:
    return (y * 0.5).sinhc()


def _cfa_slack_iv(g: Interval, y: Interval) -> Interval:
    p, log8 = _cfa_genus(g)
    s = _cfa_gamma(y)
    lo, hi = _next(p.lo * s.lo, _NEG_INF), _next(p.hi * s.hi, _INF)
    if not lo >= 1.0:  # where .acosh() raises; an overflow raises first
        raise (DomainError if hi < _INF else IndeterminateCell)(
            f"arccosh argument not in [1, inf) on {g!r} x {y!r}")
    lo = _next(_next(math.acosh(lo), _NEG_INF), _NEG_INF)
    hi = _next(_next(math.acosh(hi), _INF), _INF)
    if lo < 0.0:
        lo = 0.0
    return Interval(_next(_next(log8.lo - hi, _NEG_INF) * 4.0, _NEG_INF),
                    _next(_next(log8.hi - lo, _INF) * 4.0, _INF))


def _cfa_tail(_g_from: float) -> TailProof:
    # arccosh(a) <= log(2a) and 8g-7 >= 8(g-1) give the g-free floor
    # 4 log 8 - 4 log(2 pi sinhc(pi/4)), valid for every g >= 2.
    smax = (IPI * 0.25).sinhc()
    floor = ((Interval.point(8.0).log() - (IPI * smax * 2.0).log()) * 4.0).lo
    return TailProof(floor, "log-majorization of arccosh, g-free floor")


# -- CF-B --------------------------------------------------------------
# 2 arccosh(sinh(gamma/4) 2 pi (g-1)/gamma) <= 3 log(8g - 7); the argument
# rewrites to (pi/2)(g-1) sinhc(gamma/4) >= pi/2 > 1.

def _cfb_slack_iv(g: Interval, y: Interval) -> Interval:
    arg = IPI * 0.5 * (g - 1.0) * (y * 0.25).sinhc()
    return bounds.systole_gamma2(g) - arg.acosh() * 2.0


def _cfb_tail(_g_from: float) -> TailProof:
    smax = (IPI * 0.125).sinhc()
    floor = (Interval.point(8.0).log() * 3.0 - (IPI * smax).log() * 2.0).lo
    return TailProof(floor, "log-majorization of arccosh, g-free floor")


# -- CF-C --------------------------------------------------------------
# pi - 2 arcsin(1/cosh(qwtwo(alpha1))) >= 3/3.1 for alpha1 >= 1.1.  The
# genus only caps alpha1 at 2 log(4g-2); the union over all g is
# [1.1, inf), so the family is genus-free.  Beyond the bisected range,
# qwtwo(alpha1) >= arcsinh((4/3) sinh(alpha1/4)) (exact algebra:
# sqrt(5) sqrt(9/5) = 3) closes the alpha1 tail of CF-C and CF-J.

_ALPHA1_CAP = 10.0
_ALPHA1_TAIL_WIDTH = (Interval.ratio(4.0, 3.0)
                      * Interval.point(_ALPHA1_CAP / 4.0).sinh()).asinh()


def _cfc_slack_iv(a: Interval) -> Interval:
    return collar.dcap(collar.qwtwo(a)) - _C3_31


def _cfc_tail(_g_from: float) -> TailProof:
    floor = (collar.dcap(_ALPHA1_TAIL_WIDTH) - _C3_31).lo
    return TailProof(floor, f"width floor for alpha1 >= {_ALPHA1_CAP} "
                            "(covers every genus cap)")


# -- CF-D --------------------------------------------------------------
# (2 log(24g-23) + 2.2)/(pi - 2 arcsin(1/cosh W')) <= 3.1 log(8g-7).

def _cfd_slack_iv(g: Interval) -> Interval:
    lhs = collar.capacity((g * 24.0 - 23.0).log() * 2.0 + _C22, IWP)
    return bounds.thm_main_m2(g) - lhs


def _cfd_tail(g_from: float) -> TailProof:
    # 24g-23 <= 3(8g-7), so with L = log(8g-7) the slack is at least
    # (3.1 - 2/D) L - (2 log 3 + 2.2)/D.  L > 0, so the first term is
    # positive exactly when its coefficient is, and then increases in g.
    g = Interval.point(g_from)
    lead = bounds.thm_main_m2(g) - bounds.log8(g) * 2.0 / _DCAP_WP
    if lead.lo <= 0:
        return TailProof(-math.inf, "leading coefficient not positive")
    const = (Interval.point(3.0).log() * 2.0 + _C22) / _DCAP_WP
    return TailProof((lead - const).lo,
                     "log-coefficient comparison, increasing in g")


# -- CF-E --------------------------------------------------------------
# 4 arccosh(cosh(gamma2/4) cosh W') / (pi - 2 arcsin(1/cosh w(gamma2)))
#   <= 3.1 log(8g-7)  for gamma2 in [2.1, 3 log(8g-7)], with
# w = min{0.66, arccosh(cosh(gamma2/2)/(cosh(gamma2/4) cosh W'))}.

# The box starts at the float below 2.1, so it covers the real endpoint.
_GAMMA2_LO = Interval.ratio(21.0, 10.0).lo


def _cfe_numerator_iv(y: Interval) -> Interval:
    return ((y * 0.25).cosh() * collar.COSH_WP).acosh() * 4.0


def _cfe_slack_iv(g: Interval, y: Interval) -> Interval:
    lhs = _cfe_numerator_iv(y) / collar.dcap(collar.config2_width(y))
    return bounds.thm_main_m2(g) - lhs


def _cfe_tail(g_from: float) -> TailProof:
    # Two regimes.  gamma2 <= 10: numerator and width are increasing, so
    # lhs <= N(10)/D(w(2.1)).  gamma2 in [10, 3 log(8g-7)]: the width is
    # pinned at 0.66 (cosh(gamma2/2)/(cosh(gamma2/4) cosh W') >=
    # cosh(gamma2/4)/cosh W' >= cosh(2.5)/cosh W' > cosh 0.66) and
    # arccosh x <= log 2x, cosh x <= e^x give
    # N <= gamma2 + 4 log(2 cosh W'), and gamma2 is at most its ceiling.
    cap = collar.WIDTH_CAP
    if (Interval.point(2.5).cosh() / collar.COSH_WP).lo < cap.cosh().hi:
        return TailProof(-math.inf, "regime split invalid")
    d21 = collar.dcap(collar.config2_width(Interval.point(_GAMMA2_LO)))
    c10 = (_cfe_numerator_iv(Interval.point(10.0)) / d21).hi
    d66 = collar.dcap(cap)
    g = Interval.point(g_from)
    lead = bounds.thm_main_m2(g) - bounds.systole_gamma2(g) / d66
    if lead.lo <= 0:
        return TailProof(-math.inf, "leading coefficient not positive")
    ce = (collar.COSH_WP * 2.0).log() * 4.0
    t1 = (bounds.thm_main_m2(g) - c10).lo
    t2 = (lead - ce / d66).lo
    return TailProof(min(t1, t2),
                     "two-regime split at gamma2 = 10, increasing in g")


# -- CF-F and CF-F' -----------------------------------------------------
# capacity(gamma, w(gamma)) <= ceiling(g) on gamma in (0, 2 log(4g-2)],
# with w(gamma) the configuration-1 width floor below K and W above.
# Split at K: below, the ceiling's value at g = 2 removes the genus (it
# is increasing); above, the width is the constant W and the domain
# ceiling couples gamma to g.  CF-F's ceiling is log(4g-2); CF-F' uses
# the sharper (3/pi) log(4g-2).

_G2 = Interval.point(2.0)


def _cff_tasks(ceiling: Callable[[Interval], Interval]) -> tuple[Task, Task]:
    """Short-core and long-core tasks for a ceiling of g."""
    rhs6 = ceiling(_G2)

    def short(y: Interval) -> Interval:
        if y.lo <= 0.0:
            # b1 = arcsinh(1/sinh(gamma/2)) decreases, so its value at the
            # right endpoint floors the width on the whole cell, and the
            # capacity lies in [0, cap_hi] there; that is enough for cells
            # touching gamma = 0.
            top = Interval.point(y.hi)
            b1_hi = collar.separation(top * 0.5)
            cap_hi = collar.capacity(top, Interval.point(b1_hi.lo)).hi
            return rhs6 - Interval(0.0, cap_hi)
        return rhs6 - collar.capacity(y, collar.config1_width(y))

    def long(g: Interval, y: Interval) -> Interval:
        return ceiling(g) - collar.capacity(y, IW)

    return (
        Task("short-core", (Dim("gamma", 0.0, collar.K),), short),
        Task("long-core", (GENUS, Dim("gamma", collar.K, bounds.systole_gamma1)),
             long),
    )


def _cff_tail(_g_from: float) -> TailProof:
    # Above K the capacity is at most 2 log(4g-2)/D(W) with 2/D(W) = 3/pi,
    # so the slack is at least (1 - 3/pi) log 6 for every g; below K the
    # short-core task is already genus-free.
    floor = (bounds.thm_main_m1(_G2) * (1.0 - 2.0 / _DCAP_W)).lo
    return TailProof(floor, "capacity ceiling 3 gamma/(2 pi) above K, g-free")


# -- CF-G --------------------------------------------------------------

def _cfg_slack_iv() -> Interval:
    # the half-length 1.05 of gamma = 2.1, given exactly: halving a point
    # interval would widen it by an ulp
    return collar.separation(Interval.point(1.05)).min_with(IWP) - _C73


# -- CF-H --------------------------------------------------------------

def _cfh_slack_iv(y: Interval) -> Interval:
    return collar.config2_crossing_width(y) - _C96


def _cfh_tail(_g_from: float) -> TailProof:
    # For gamma2 >= 60: sqrt(c^2 cW^2 - 1) <= c cW and 2c^2 - 1 >= c^2
    # give width >= arcsinh(cosh(15)/cosh W'), increasing beyond.
    w_lb = (Interval.point(15.0).cosh() / collar.COSH_WP).asinh()
    return TailProof((w_lb - _C96).lo,
                     "width floor for gamma2 >= 60 (covers every genus cap)")


# -- CF-I --------------------------------------------------------------
# 4 arccosh(1/(2 sin(pi (g+1)/12g))) < limit = 4 arccosh(1/(2 sin(pi/12))).

def _cfi_slack_iv(g: Interval) -> Interval:
    return bounds.BAVARD_LIMIT - bounds.bavard_bound(g)


def _cfi_tail(_g_from: float) -> TailProof:
    # Structural: theta(g) = (pi/12)(1 + 1/g) exceeds pi/12 for every
    # finite g and stays within (0, pi/2], where sin is increasing, so the
    # value stays strictly below its limit although the slack tends to 0.
    return TailProof(0.0, "theta(g) > pi/12 strictly for every finite g",
                     strict=True)


# -- CF-J --------------------------------------------------------------
# qwtwo(alpha1) > 0.66 for alpha1 >= 1.5; the alpha1 tail is CF-C's.

def _cfj_slack_iv(a: Interval) -> Interval:
    return collar.qwtwo(a) - collar.WIDTH_CAP


def _cfj_tail(_g_from: float) -> TailProof:
    return TailProof((_ALPHA1_TAIL_WIDTH - collar.WIDTH_CAP).lo,
                     f"width floor for alpha1 >= {_ALPHA1_CAP}")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

# Box endpoints are floats on the outer side of the stated real bounds.
_GAMMA_HALF_PI = Dim("gamma", 0.0, (IPI * 0.5).hi)

FAMILIES: tuple[CertFamily, ...] = (
    CertFamily(id="CF-A", tail=_cfa_tail,
               tasks=(Task("main", (GENUS, _GAMMA_HALF_PI), _cfa_slack_iv),)),
    CertFamily(id="CF-B", tail=_cfb_tail,
               tasks=(Task("main", (GENUS, _GAMMA_HALF_PI), _cfb_slack_iv),)),
    CertFamily(id="CF-C", tail=_cfc_tail, tasks=(Task(
        "main", (Dim("alpha1", Interval.ratio(11.0, 10.0).lo, _ALPHA1_CAP),),
        _cfc_slack_iv),)),
    CertFamily(id="CF-D", tail=_cfd_tail,
               tasks=(Task("main", (GENUS,), _cfd_slack_iv),)),
    CertFamily(id="CF-E", tail=_cfe_tail, tasks=(Task(
        "main", (GENUS, Dim("gamma2", _GAMMA2_LO, bounds.systole_gamma2)),
        _cfe_slack_iv),)),
    CertFamily(id="CF-F", tail=_cff_tail,
               tasks=_cff_tasks(bounds.thm_main_m1)),
    CertFamily(id="CF-G", tasks=(Task("point", (), _cfg_slack_iv),)),
    CertFamily(id="CF-H", tail=_cfh_tail, tasks=(Task(
        "main", (Dim("gamma2", _GAMMA2_LO, 60.0),), _cfh_slack_iv),)),
    CertFamily(id="CF-I", tail=_cfi_tail,
               tasks=(Task("main", (GENUS,), _cfi_slack_iv),)),
    CertFamily(id="CF-J", tail=_cfj_tail, tasks=(Task(
        "main", (Dim("alpha1", 1.5, _ALPHA1_CAP),), _cfj_slack_iv),)),
)

# Sharpened m1 variant: at gamma = 2 log(4g-2) with w = W the two sides
# agree exactly, so no strictly-positive certificate exists and the family
# is expected Undecided; opt-in only, never part of the default registry.
CF_F_PRIME = CertFamily(
    id="CF-F-prime", tasks=_cff_tasks(bounds.thm_bs_upper), exempt=True)

_ALL = {f.id: f for f in (*FAMILIES, CF_F_PRIME)}
_ALL["CF-F'"] = CF_F_PRIME


def lookup(identifier: str) -> CertFamily:
    try:
        return _ALL[identifier]
    except KeyError:
        raise DomainError(f"unknown certification family {identifier!r}") from None


__all__ = [
    "CF_F_PRIME",
    "CertFamily",
    "CertReport",
    "CELL_BUDGET",
    "DEFAULT_G_MAX",
    "Dim",
    "FAMILIES",
    "GENUS",
    "TailProof",
    "Task",
    "certify",
    "lookup",
]
