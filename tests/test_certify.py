"""Certification engine: family verdicts, tails, and engine behavior."""

import dataclasses
import functools
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import transcript
from oracles import encloses, mp
from schottky_gauge import bounds, certify, collar
from schottky_gauge.certify import (
    CF_F_PRIME,
    FAMILIES,
    CertFamily,
    Dim,
    DEFAULT_G_MAX,
    GENUS,
    TailProof,
    Task,
    certify as run_one,
    lookup,
)
from schottky_gauge.errors import DomainError
from schottky_gauge.interval import IPI, IndeterminateCell, Interval


@pytest.fixture(scope="module")
def reports():
    return {f.id: run_one(f) for f in FAMILIES}


class TestFamilies:
    def test_default_report_frozen(self, reports):
        # the library's reports against the recorded `certify --families
        # all --format json` rows: statuses and counts exactly,
        # min_slack_lo to 1e-12 relative
        exact = ("status", "tail_status", "cells_processed", "vacuous_cells",
                 "max_depth")
        argv = ["certify", "--families", "all", "--format", "json"]
        record, = (r for r in transcript.load() if r["argv"] == argv)
        frozen = json.loads(record["stdout"])
        assert list(reports) == [row["family"] for row in frozen]
        for row in frozen:
            rep = reports[row["family"]].as_dict()
            assert [rep[k] for k in exact] == [row[k] for k in exact], row
            assert rep["min_slack_lo"] == pytest.approx(
                row["min_slack_lo"], rel=1e-12, abs=0), row["family"]
        assert sum(r.cells_processed for r in reports.values()) == 14541

    def test_boxes_cover_the_stated_endpoints(self):
        # every box starts at a float at or below its stated real lower
        # bound and ends at or above its stated real upper bound
        starts = {"CF-C": Fraction(11, 10), "CF-E": Fraction(21, 10),
                  "CF-H": Fraction(21, 10), "CF-J": Fraction(3, 2)}
        for fam, stated in starts.items():
            axis = lookup(fam).tasks[0].dims[-1]
            assert Fraction(axis.lo) <= stated, fam
        for fam in ("CF-A", "CF-B"):
            gamma = lookup(fam).tasks[0].dims[1]
            assert gamma.lo == 0.0 and gamma.hi >= mp.pi / 2, fam

    def test_lookup_and_aliases(self):
        assert lookup("CF-A") is FAMILIES[0]
        assert lookup("CF-F'") is lookup("CF-F-prime") is CF_F_PRIME
        with pytest.raises(DomainError):
            lookup("CF-Z")

    def test_cf_f_prime_undecided_and_exempt(self):
        rep = run_one(CF_F_PRIME, g_max=1000.0)
        assert rep.status == "Undecided"
        assert CF_F_PRIME.exempt
        # the infimum is an exact equality at a domain corner: the best
        # slack lower bound must hover just below zero, never far below
        assert -0.01 < rep.min_slack_lo <= 0.0

    @pytest.mark.parametrize("family, g_max, task, cells", [
        ("CF-F'", 2.0000000000000004, "long-core", 108),
        ("CF-F'", 1000.0, "long-core", 144),
        ("CF-F'", 1e300, "long-core", 161),
        ("CF-I", 1e15, "main", 93),
        ("CF-I", 1e100, "main", 88),
    ], ids=["CF-F'-2.0000000000000004", "CF-F'-1000", "CF-F'-1e300",
            "CF-I-1e15", "CF-I-1e100"])
    def test_cf_f_prime_stops_at_width_floor(self, family, g_max, task, cells):
        # CF-F''s corner equality, and CF-I's slack, which falls like 1/g
        # below the ulp-level width of its enclosure from g near 3e14 on
        # although its strict tail holds, are met at the float width floor
        # in a few hundred cells at most, long before the cell budget
        rep = run_one(lookup(family), g_max=g_max)
        assert rep.status == "Undecided"
        assert rep.note == f"cell width floor reached in task {task}"
        assert rep.cells_processed == cells

    def test_g_max_one_ulp_above_two_splits_the_other_axis(self):
        # the genus axis [2, 2 + ulp] cannot be split, so the sweep splits
        # the other axis: no family spends its budget or stops at the
        # width floor; CF-E closes every box cell and is left Undecided by
        # its tail floor, which is negative from g = 2
        reports = {f.id: run_one(f, g_max=math.nextafter(2.0, 3.0))
                   for f in FAMILIES}
        assert max(r.cells_processed for r in reports.values()) < 100
        assert all("width floor" not in r.note for r in reports.values())
        cfe = reports["CF-E"]
        assert cfe.cells_processed > 1
        assert (cfe.tail_status, cfe.note) == (
            "Checked-to-bound", "tail floor not positive")
        assert [f for f, r in reports.items() if r.status != "Certified"] == [
            "CF-E"]

    def test_cfa_finite_at_huge_genus(self):
        # the half-angle form arccosh(2a^2 - 1) = 2 arccosh(a) never
        # squares the genus, so a cell near g = 1e200 has an enclosure
        slack = lookup("CF-A").tasks[0].slack_iv(
            Interval(1e200, 2e200), Interval(0.1, math.pi / 2))
        assert math.isfinite(slack.lo) and math.isfinite(slack.hi)


class TestEngine:
    def test_empty_domain_certifies_vacuously(self):
        fam = CertFamily(
            id="T-EMPTY",
            tasks=(Task(
                name="empty",
                dims=(Dim("x", 2.0, 1.0),),
                slack_iv=lambda x: Interval.point(-1.0)),),
        )
        rep = run_one(fam)
        assert rep.status == "Certified"
        assert rep.cells_processed == 0

    def test_violation_detected_with_witness(self):
        fam = CertFamily(
            id="T-NEG",
            tasks=(Task(
                name="neg",
                dims=(Dim("x", 0.0, 1.0),),
                slack_iv=lambda x: x - 2.0),),
        )
        rep = run_one(fam)
        assert rep.status == "Violated"
        assert rep.min_slack_hi < 0.0
        assert rep.witness is not None
        assert 0.0 <= rep.witness["x"] <= 1.0
        assert rep.witness["x"] - 2.0 < 0.0

    @pytest.mark.parametrize("at_point", [
        Interval(-1e-3, 1e-3),
        DomainError("no configuration at this point"),
        IndeterminateCell("no finite enclosure at this point"),
    ], ids=["straddles-zero", "domain-error", "indeterminate"])
    def test_violation_needs_negative_point_enclosure(self, at_point):
        # every proper cell looks violated, but the point enclosure proves
        # nothing: the engine must keep subdividing, never report Violated
        def slack(x):
            if x.hi - x.lo > 0.0:
                return Interval(-2.0, -1.0)
            if isinstance(at_point, Exception):
                raise at_point
            return at_point

        fam = CertFamily(
            id="T-STRADDLE",
            tasks=(Task(name="straddle", dims=(Dim("x", 0.0, 1.0),),
                        slack_iv=slack),),
        )
        rep = run_one(fam)
        assert rep.status == "Undecided"
        assert "width floor" in rep.note

    def test_coupled_axis_clipped_per_cell(self):
        # y <= g couples the axes and the slack is negative above
        # y = g + 1/2, so certifying needs every cell clipped at its own
        # largest genus; cells wholly above the ceiling count as vacuous
        fam = CertFamily(
            id="T-COUPLED",
            tasks=(Task(
                name="coupled",
                dims=(GENUS, Dim("y", 0.0, lambda g: g)),
                slack_iv=lambda g, y: g - y + 0.5),),
        )
        rep = run_one(fam, g_max=100.0)
        assert rep.status == "Certified"
        assert rep.vacuous_cells > 0

    def test_tail_starts_at_g_max(self):
        # 4 (g - 2.9)^2 - 1/4 is negative on (2.65, 3.15), so genus 3
        # violates; the box [2, 2.5] certifies, and the honest tail floor
        # is negative from every g_from below 3.15
        fam = CertFamily(
            id="T-TAIL",
            tasks=(Task(
                name="genus",
                dims=(GENUS,),
                slack_iv=lambda g: (g - 2.9).sq() * 4.0 - 0.25),),
            tail=lambda g_from: TailProof(
                4.0 * max(g_from - 2.9, 0.0) ** 2 - 0.25,
                "increasing beyond g = 2.9"),
        )
        rep = run_one(fam, g_max=2.5)
        assert rep.status == "Undecided"
        assert rep.tail_status == "Checked-to-bound"
        assert rep.note == "tail floor not positive"

    @pytest.mark.parametrize("floor, strict, status, tail", [
        (0.0, True, "Certified", "Proven"),
        (-1.0, True, "Undecided", "Checked-to-bound"),
        (0.0, False, "Undecided", "Checked-to-bound"),
    ], ids=["zero", "negative", "zero-not-strict"])
    def test_strict_tail_needs_nonnegative_floor(self, floor, strict, status, tail):
        # strict means the slack exceeds the floor at every finite genus,
        # which proves it positive only from a floor of 0 up; a floor that
        # is not strict must be positive
        fam = dataclasses.replace(lookup("CF-D"), tail=lambda g_from: TailProof(
            floor, "toy floor", strict=strict))
        rep = run_one(fam)
        assert (rep.status, rep.tail_status) == (status, tail)
        assert rep.note == ("" if status == "Certified" else "tail floor not positive")

    def test_narrow_positive_region_certifies(self):
        # the slack is resolved only on cells no wider than 1e-6 about
        # x = 1/3: the sweep splits on down to the float width floor, so it
        # certifies in about 20 halvings, never stopping at a coarser floor
        def slack(x):
            if x.lo <= 1.0 / 3.0 <= x.hi and x.hi - x.lo > 1e-6:
                return Interval(-1.0, 1.0)
            return Interval.point(1.0)

        fam = CertFamily(
            id="T-NARROW",
            tasks=(Task(name="narrow", dims=(Dim("x", 0.0, 1.0),),
                        slack_iv=slack),),
        )
        rep = run_one(fam)
        assert rep.status == "Certified"
        assert rep.cells_processed < 100

    @pytest.mark.parametrize("axis", [
        (1.0, math.nextafter(1.0, 2.0)), (math.nextafter(1.0, 0.0), 1.0),
    ], ids=["mid-on-lo", "mid-on-hi"])
    @pytest.mark.parametrize("genus", [False, True], ids=["linear", "log"])
    def test_unsplittable_axis_is_width_floor(self, monkeypatch, axis, genus):
        # an axis one ulp wide has no split point strictly inside: a half
        # equal to the cell would be pushed again until the budget ran out;
        # the log cases add the genus axis, one ulp wide at g_max one ulp
        # above 2, whose geometric mean has no split point inside either
        dims = (GENUS,) * genus + (Dim("x", *axis),)
        fam = CertFamily(
            id="T-ULP",
            tasks=(Task("ulp", dims, lambda *cell: Interval(-1.0, 1.0)),),
        )
        monkeypatch.setattr(certify, "CELL_BUDGET", 10**5)
        rep = run_one(fam, g_max=math.nextafter(2.0, 3.0))
        assert rep.note == "cell width floor reached in task ulp"
        assert rep.cells_processed <= 2

    def test_widest_splittable_axis_is_split(self):
        # x is one ulp wide and as wide as y relative to its span, so it
        # ties for widest but cannot split; y must be split instead until
        # its cells are 1/4 wide: 1 + 2 + 4 cells
        fam = CertFamily(
            id="T-ULP-PAIR",
            tasks=(Task("pair", (Dim("x", 1.0, math.nextafter(1.0, 2.0)),
                                 Dim("y", 0.0, 1.0)),
                        lambda x, y: Interval.point(1.0) if y.hi - y.lo <= 0.25
                        else Interval(-1.0, 1.0)),),
        )
        rep = run_one(fam)
        assert rep.status == "Certified"
        assert rep.cells_processed == 7
        assert rep.max_depth == 2

    @pytest.mark.parametrize("slack, status, note", [
        (Interval(-1.0, 1.0), "Undecided", "cell width floor reached"),
        (Interval(-2.0, -1.0), "Violated", "violation proven by point enclosure"),
    ], ids=["straddles-zero", "negative"])
    def test_task_without_axes(self, slack, status, note):
        # a task with no axes is one cell that cannot split: its form takes
        # no arguments, and its witness is the empty midpoint
        fam = CertFamily(id="T-POINT",
                         tasks=(Task("point", (), lambda: slack),))
        rep = run_one(fam)
        assert (rep.status, rep.note) == (status, f"{note} in task point")
        assert (rep.min_slack_lo, rep.min_slack_hi) == (slack.lo, slack.hi)
        assert rep.witness == {}
        assert rep.cells_processed == 1

    def test_budget_exhaustion_is_undecided(self, monkeypatch):
        monkeypatch.setattr(certify, "CELL_BUDGET", 5)
        rep = run_one(lookup("CF-A"))
        assert rep.status == "Undecided"
        assert "budget" in rep.note

    def test_budget_shared_by_tasks(self, monkeypatch):
        # the first task certifies in 7 cells (widths 1, 1/2, 1/4); the
        # second never does, so it gets only what the first left over
        fam = CertFamily(
            id="T-SHARED",
            tasks=(
                Task("first", (Dim("x", 0.0, 1.0),),
                     lambda x: Interval.point(1.0) if x.hi - x.lo <= 0.25
                     else Interval(-1.0, 1.0)),
                Task("second", (Dim("y", 0.0, 1.0),),
                     lambda y: Interval(-1.0, 1.0)),
            ),
        )
        monkeypatch.setattr(certify, "CELL_BUDGET", 10)
        rep = run_one(fam)
        assert rep.status == "Undecided"
        assert rep.cells_processed == 11
        assert rep.note == "cell budget exhausted in task second"

    def test_budget_of_one_cell(self, monkeypatch):
        # a budget of one cell is one cell: CF-G is a point task
        monkeypatch.setattr(certify, "CELL_BUDGET", 1)
        rep = run_one(lookup("CF-G"))
        assert (rep.status, rep.cells_processed) == ("Certified", 1)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["b-last", "b-first"])
    def test_min_slack_over_all_tasks(self, order):
        tasks = (
            Task("a", (Dim("x", 0.0, 1.0),), lambda x: Interval(2.0, 3.0)),
            Task("b", (Dim("y", 0.0, 4.0),), lambda y: Interval(1.0, 3.0)),
        )
        fam = CertFamily(id="T-MIN",
                         tasks=tuple(tasks[i] for i in order))
        rep = run_one(fam)
        assert rep.status == "Certified"
        assert rep.cells_processed == 2
        assert (rep.min_slack_lo, rep.min_slack_hi) == (1.0, 3.0)
        assert rep.witness == {"y": 2.0}

    def test_invalid_parameters(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                run_one(lookup("CF-G"), g_max=bad)
        with pytest.raises(DomainError):
            run_one(lookup("CF-G"), g_max=1.0)

    def test_determinism(self):
        a = run_one(lookup("CF-C"))
        b = run_one(lookup("CF-C"))
        assert a.as_dict() == b.as_dict()

    # sha256 of every cell a family's slack_iv is called on, in visit
    # order, one line of float.hex axis ends per call
    _SPLIT_TREES = {
        "CF-A":
            "89238e81fb96230344f79718107cf96311f36b59532ec23d247b661583ba18eb",
        "CF-B":
            "13330c0d2ab562d46af3108aa44c9203619daf531c8529f774665140a9e3e4d3",
        "CF-C":
            "267c6f1cc8ed7bf4901c3f9f7534374398d93aacfd659431ec8759711c793fab",
        "CF-D":
            "ac13c115551499e86bc082b6bbc089eff44d074adf3600fecce2df2bfe3ab770",
        "CF-E":
            "1791742d39d451bbc6ae82fe389eeae08f9eb60237109bcf39463d9a1b71b072",
        "CF-F":
            "692fae8d24f317de48627fc6faabc1028affee445e5667d5d1d5d6df80832317",
        "CF-G":
            "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "CF-H":
            "a37a08058fea67f574deb35a1cd952af617821d84a1bf69b4f946bb2c429e2de",
        "CF-I":
            "32e722d8c88640e8ad9e36dd37db24e78558ebcbb917c1032be0346117afdfbd",
        "CF-J":
            "784c0a5fb9777e4bd856bec6abafd0496a373dc5d2b06b504e5d39d3f3d465b2",
        "CF-F-prime":
            "f089e1781650004e4a0bf6391c1cf2a20bf79bd176bf8aa4796d995274ab240d",
    }

    def test_split_tree_pinned(self):
        # equal counts, witness and least slack can hide another tree or
        # another visit order; the cells themselves cannot
        digests = {}
        for fam in (*FAMILIES, CF_F_PRIME):
            h = hashlib.sha256()

            def spy(*cell, slack_iv):
                h.update(" ".join(x.hex() for c in cell
                                  for x in (c.lo, c.hi)).encode() + b"\n")
                return slack_iv(*cell)

            run_one(dataclasses.replace(fam, tasks=tuple(
                dataclasses.replace(t, slack_iv=functools.partial(
                    spy, slack_iv=t.slack_iv)) for t in fam.tasks)))
            digests[fam.id] = h.hexdigest()
        assert digests == self._SPLIT_TREES


# Source-form slack of every task at a point, each lemma written out as
# the paper states it, before any interval rewrite, in exact arithmetic.
_REFERENCE = {
    "CF-A/main": lambda g, y: 4 * oracles.log8(g) - 2 * mp.acosh(
        mp.sinh(y / 2) ** 2 * (mp.cosh(2 * oracles.area_width(g, y)) - 1) - 1),
    "CF-B/main": lambda g, y: oracles.systole_gamma2(g)
    - 2 * mp.acosh(mp.sinh(y / 4) * mp.sinh(oracles.area_width(g, y))),
    "CF-C/main": lambda a: oracles.dcap(oracles.qwtwo(a)) - mp.mpf(30) / 31,
    "CF-D/main": lambda g: oracles.thm_main_m2(g)
    - oracles.capacity(2 * mp.log(24 * g - 23) + mp.mpf("2.2"), oracles.WP),
    "CF-E/main": lambda g, y: oracles.thm_main_m2(g) - 4 * mp.acosh(
        mp.cosh(y / 4) * mp.cosh(oracles.WP)) / oracles.dcap(oracles.config2_width(y)),
    "CF-F/short-core": lambda y: oracles.thm_main_m1(2)
    - oracles.capacity(y, oracles.config1_width(y)),
    "CF-F/long-core": lambda g, y: oracles.thm_main_m1(g) - oracles.capacity(y, oracles.W),
    "CF-F-prime/short-core": lambda y: oracles.thm_bs_upper(2)
    - oracles.capacity(y, oracles.config1_width(y)),
    "CF-F-prime/long-core": lambda g, y: oracles.thm_bs_upper(g)
    - oracles.capacity(y, oracles.W),
    # the half-length of gamma = 2.1 is the float 1.05, as the form has it
    "CF-G/point": lambda: min(oracles.separation(mp.mpf(1.05)), oracles.WP)
    - mp.mpf("0.73"),
    "CF-H/main": lambda y: oracles.config2_crossing_width(y) - mp.mpf("0.96"),
    "CF-I/main": lambda g: oracles.BAVARD_LIMIT - oracles.bavard_bound(g),
    "CF-J/main": lambda a: oracles.qwtwo(a) - mp.mpf("0.66"),
}

_TASKS = [(f, t) for f in FAMILIES + (CF_F_PRIME,) for t in f.tasks]


def _sample(task, fractions):
    """A point of the task domain at g_max = DEFAULT_G_MAX; each fraction
    places one axis, the genus log-uniformly, and coupled axes stop at
    their ceiling for the sampled genus."""
    pt = {}
    for d, u in zip(task.dims, fractions):
        if d is GENUS:
            hi = DEFAULT_G_MAX
            v = d.lo * (hi / d.lo) ** u
        else:
            hi = d.hi(Interval.point(pt.get("g", DEFAULT_G_MAX))).lo \
                if callable(d.hi) else d.hi
            v = d.lo + u * (hi - d.lo)
        pt[d.name] = min(max(v, d.lo), hi)
    return pt


class TestSoundness:
    """The interval slack of each task must enclose its source formula,
    and the reported minimum slack must bound it from below."""

    @pytest.mark.parametrize("fam,task", _TASKS,
                             ids=[f"{f.id}/{t.name}" for f, t in _TASKS])
    @settings(max_examples=150, deadline=None)
    @given(fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    def test_point_enclosure_contains_source_formula(
            self, reports, fam, task, fractions):
        pt = _sample(task, fractions)
        try:
            ref = _REFERENCE[f"{fam.id}/{task.name}"](*map(mp.mpf, pt.values()))
        except ZeroDivisionError:
            assume(False)  # gamma = 0: outside the source formula's domain
        try:
            enc = task.slack_iv(*map(Interval.point, pt.values()))
        except IndeterminateCell:
            assume(False)  # no finite enclosure, so nothing to check
        assert encloses(enc, ref), (pt, ref, enc)
        if fam.id in reports:
            assert ref >= reports[fam.id].min_slack_lo - 1e-9

    @pytest.mark.parametrize("fam_id, ceiling", [
        ("CF-F", bounds.thm_main_m1), ("CF-F-prime", bounds.thm_bs_upper),
    ], ids=["CF-F", "CF-F-prime"])
    def test_short_core_lower_end_below_exact_difference(self, fam_id, ceiling):
        # on a cell [0, top] the capacity lies in [0, cap_hi], so the
        # enclosure's lower end must lie at or below the exact rational
        # rhs6.lo - cap_hi, not at its nearest float
        short = lookup(fam_id).tasks[0]
        rhs6 = ceiling(Interval.point(2.0))
        for n in range(494):
            top = Interval.point(collar.K * 0.97 ** n)
            b1_hi = collar.separation(top * 0.5)
            cap_hi = collar.capacity(top, Interval.point(b1_hi.lo)).hi
            enc = short.slack_iv(Interval(0.0, top.hi))
            assert Fraction(enc.lo) <= Fraction(rhs6.lo) - Fraction(cap_hi), n
            assert enc.hi >= rhs6.hi, n

    def test_cfi_limit_is_zero(self):
        # the slack tends to 0 as g -> inf; the certified floor must be
        # tiny yet positive
        rep = run_one(lookup("CF-I"))
        assert 0.0 < rep.min_slack_lo < 1e-4


# Tails checked by sampling: (family, task, range of the first axis). The
# genus tasks sample g beyond DEFAULT_G_MAX; the genus-free tails sample
# the one axis beyond the bisected box, up to where every form is finite.
_TAIL_RANGES = [
    ("CF-A", "main", DEFAULT_G_MAX, 1e15),
    ("CF-B", "main", DEFAULT_G_MAX, 1e15),
    ("CF-D", "main", DEFAULT_G_MAX, 1e15),
    ("CF-E", "main", DEFAULT_G_MAX, 1e15),
    ("CF-F", "long-core", DEFAULT_G_MAX, 1e15),
    ("CF-I", "main", DEFAULT_G_MAX, 1e15),
    ("CF-C", "main", 10.0, 1000.0),
    ("CF-H", "main", 60.0, 1000.0),
    ("CF-J", "main", 10.0, 1000.0),
]


@pytest.mark.parametrize("fam_id, task_name, lo, hi", _TAIL_RANGES,
                         ids=[f"{f}/{t}" for f, t, *_ in _TAIL_RANGES])
def test_tail_floor_below_sampled_slack(fam_id, task_name, lo, hi):
    # the floor each tail proof claims beyond the box must lie below the
    # slack's point enclosure at every sampled point there: the first axis
    # log-uniform on [lo, hi], any other axis uniform below its ceiling
    fam = lookup(fam_id)
    task = next(t for t in fam.tasks if t.name == task_name)
    proof = fam.tail(DEFAULT_G_MAX)
    rng = random.Random(fam_id)
    for _ in range(3000):
        pt = [lo * (hi / lo) ** rng.random()]
        for d in task.dims[1:]:
            top = d.hi(Interval.point(pt[0])).lo if callable(d.hi) else d.hi
            pt.append(d.lo + rng.random() * (top - d.lo))
        enc = task.slack_iv(*map(Interval.point, pt))
        assert enc.hi >= proof.infimum_lb, (pt, enc)
        if proof.strict:
            assert enc.hi > proof.infimum_lb, (pt, enc)


# the rational constants of the slacks, the Y-piece lemmas and the 3.1
# ceiling, each with its exact value
_RATIONALS = [
    (certify, "_C22", Fraction(11, 5)),
    (certify, "_C3_31", Fraction(30, 31)),
    (certify, "_C96", Fraction(24, 25)),
    (certify, "_C73", Fraction(73, 100)),
    (collar, "WIDTH_CAP", Fraction(33, 50)),
    (collar, "_COSH_WP_SQ", Fraction(9, 5)),
    (bounds, "_R31", Fraction(31, 10)),
]


@pytest.mark.parametrize(
    "module, name, exact", _RATIONALS,
    ids=[f"{m.__name__.rpartition('.')[2]}.{n}" for m, n, _ in _RATIONALS])
def test_rational_constant_encloses_exact_value(module, name, exact):
    # the enclosure must hold the rational itself, not only its nearest
    # float; _C3_31 divides by the float 3.1 and still holds 30/31
    const = getattr(module, name)
    assert Fraction(const.lo) <= exact <= Fraction(const.hi), const


def test_report_as_dict_roundtrip():
    rep = run_one(lookup("CF-G"))
    d = rep.as_dict()
    assert d["family"] == "CF-G"
    assert d["status"] == "Certified"
    assert d["min_slack_lo"] <= d["min_slack_hi"]
    assert isinstance(d["cells_processed"], int)


def test_report_fields_are_the_output_row():
    # the CLI prints as_dict() as it stands: its keys, in order, are the
    # certify output columns
    assert list(run_one(lookup("CF-G")).as_dict()) == [
        "family", "status", "min_slack_lo", "min_slack_hi", "witness",
        "cells_processed", "max_depth", "tail_status", "tail_note",
        "vacuous_cells", "g_max", "note"]


class TestAxisParts:
    """Each axis part of a slack is computed once per distinct axis
    interval, in an LRU keyed by the interval object that never grows past
    its size; a part is a pure function of the interval's ends, so an entry
    kept from an earlier call leaves every report as a cold call gives it."""

    _PARTS = (certify._cfa_genus, certify._cfa_gamma)

    @pytest.fixture(autouse=True)
    def _empty_parts(self):
        self._empty()

    @classmethod
    def _empty(cls):
        for part in cls._PARTS:
            part.cache_clear()

    @classmethod
    def _sizes(cls):
        return [p.cache_info().currsize for p in cls._PARTS]

    @staticmethod
    def _boom(g):
        raise RuntimeError("slack failed")

    @pytest.mark.parametrize("case", [
        "certified", "undecided", "box raises", "slack raises"])
    def test_warm_parts_give_the_cold_report(self, monkeypatch, case):
        # fill every part first, then leave in it whatever the call stores
        certify._cfa_genus(Interval(2.0, 3.0))
        certify._cfa_gamma(Interval(0.25, 0.5))
        cfa = lookup("CF-A")
        if case == "certified":
            assert run_one(cfa, g_max=100.0).status == "Certified"
        elif case == "undecided":
            with monkeypatch.context() as patch:
                patch.setattr(certify, "CELL_BUDGET", 50)
                assert run_one(cfa).status == "Undecided"
        elif case == "box raises":
            with pytest.raises(IndeterminateCell):
                run_one(lookup("CF-E"), g_max=1.7e308)
        else:
            fam = dataclasses.replace(cfa, tasks=(
                *cfa.tasks, Task("boom", (GENUS,), self._boom)))
            with pytest.raises(RuntimeError):
                run_one(fam, g_max=100.0)
        assert all(self._sizes())
        warm = run_one(cfa).as_dict()
        self._empty()
        assert warm == run_one(cfa).as_dict()

    def test_genus_part_once_per_distinct_interval(self, monkeypatch):
        # CF-A's genus part is the only caller of log8 in its sweep
        calls = []
        log8 = bounds.log8
        monkeypatch.setattr(bounds, "log8",
                            lambda g: calls.append((g.lo, g.hi)) or log8(g))
        counts = []
        for _ in range(2):
            self._empty()
            calls.clear()
            rep = run_one(lookup("CF-A"))
            assert rep.status == "Certified"
            assert len(set(calls)) == len(calls)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert 0 < counts[0] < rep.cells_processed / 10

    def test_parts_never_exceed_their_size(self, monkeypatch):
        # at g_max 1e300 the sweep meets more distinct genus intervals than
        # a part holds, so its LRU runs full and evicts
        sizes = []
        cfa = lookup("CF-A")
        task = cfa.tasks[0]

        def spy(g, y):
            try:
                return task.slack_iv(g, y)
            finally:
                sizes.append(max(self._sizes()))

        fam = dataclasses.replace(
            cfa, tasks=(dataclasses.replace(task, slack_iv=spy),))
        monkeypatch.setattr(certify, "CELL_BUDGET", 20000)
        rep = run_one(fam, g_max=1e300)
        assert rep.status == "Undecided"
        assert max(sizes) == certify._AXIS_PART_SIZE
        assert max(self._sizes()) == certify._AXIS_PART_SIZE

    def test_part_that_raises_raises_again(self, monkeypatch):
        # 8g - 7 overflows on the first cell, not on the second: an
        # exception is not stored, a value is; each cell is one object
        # passed twice, so a stored exception would be found again
        calls = []
        log8 = bounds.log8
        monkeypatch.setattr(bounds, "log8",
                            lambda g: calls.append(g.hi) or log8(g))
        huge, small, wide = (Interval(2.0, 3e307), Interval(2.0, 3.0),
                             Interval(0.0, 2000.0))
        for _ in range(2):
            with pytest.raises(DomainError):
                certify._cfa_genus(huge)
            certify._cfa_genus(small)
        assert calls == [3e307, 3.0, 3e307]
        for _ in range(2):
            with pytest.raises(DomainError):
                certify._cfa_gamma(wide)

    def test_equal_ends_give_equal_parts(self):
        # two objects with the same ends are two keys, whose parts are
        # equal to the bit
        def ends(part):
            return [(x.lo, x.hi) for x in part]

        a, b = Interval(2.0, 3.0), Interval(2.0, 3.0)
        assert ends(certify._cfa_genus(a)) == ends(certify._cfa_genus(b))
        a, b = Interval(0.25, 0.5), Interval(0.25, 0.5)
        assert ends([certify._cfa_gamma(a)]) == ends([certify._cfa_gamma(b)])
        assert self._sizes() == [2, 2]


def _cfa_written_out(g, y):
    return (bounds.log8(g) - (IPI * (g - 1.0) * (y * 0.5).sinhc()).acosh()) * 4.0


def test_cfa_slack_bit_identical_to_written_out_form():
    # 50 genus intervals times 40 gamma intervals, each pair evaluated
    # twice, so most parts come from the cache; g = 2, gamma near 0 and
    # gamma = pi/2 are among them.  Cells outside the domain follow, where
    # the written-out form raises: g at or below 1, where log(8g-7) or
    # the arccosh has no enclosure, a gamma whose sinhc overflows, and the
    # product overflowing while its lower end is below 1, which is an
    # IndeterminateCell, not a DomainError.  One cell puts the arccosh
    # argument's lower end at exactly 1, where the domain starts.
    rng = random.Random(19)
    top = (IPI * 0.5).hi
    gs = [Interval(2.0, 2.0), Interval(2.0, 2.5), Interval(2.0, DEFAULT_G_MAX),
          Interval(DEFAULT_G_MAX, DEFAULT_G_MAX)]
    while len(gs) < 50:
        lo = 2.0 * (DEFAULT_G_MAX / 2.0) ** rng.random()
        gs.append(Interval(lo, min(lo * (1.0 + rng.random() ** 4), DEFAULT_G_MAX)))
    ys = [Interval(0.0, 0.0), Interval(0.0, 5e-324), Interval(0.0, 1e-5),
          Interval(1e-9, 2e-9), Interval(top, top), Interval(1.5, top),
          Interval(0.0, top)]
    while len(ys) < 40:
        lo = top * rng.random()
        ys.append(Interval(lo, lo + (top - lo) * rng.random() ** 3))
    gs += [Interval(0.5, 1.0), Interval(1.0, 1.0), Interval(1.0, 1.5),
           Interval(0.9, 1.1), Interval(1.0, 3e307), Interval(1.0, 1e10),
           Interval(1.3183098861837907, 2.0)]
    ys += [Interval(1.0, 2000.0), Interval(0.0, 1500.0), Interval(-1.0, 1.0),
           Interval(0.0, 1400.0), Interval(1.664e-07, 1.5)]
    edge = Interval(1.3183098861837907, 2.0), Interval(1.664e-07, 1.5)
    assert (IPI * (edge[0] - 1.0) * (edge[1] * 0.5).sinhc()).lo == 1.0
    with pytest.raises(IndeterminateCell):
        _cfa_written_out(Interval(1.0, 1e10), Interval(0.0, 1400.0))
    slack = lookup("CF-A").tasks[0].slack_iv
    for _ in range(2):
        for g in gs:
            for y in ys:
                try:
                    want = _cfa_written_out(g, y)
                except DomainError as exc:
                    with pytest.raises(DomainError) as got:
                        slack(g, y)
                    assert type(got.value) is type(exc), (g, y)
                    continue
                got = slack(g, y)
                assert (got.lo, got.hi) == (want.lo, want.hi), (g, y)


def test_cfa_default_sweep_bit_identical_to_written_out_form():
    # the slack of every cell of the default CF-A sweep, as the engine
    # computed it; every cell has one
    cfa = lookup("CF-A")
    task = cfa.tasks[0]
    cells = []

    def spy(g, y):
        slack = task.slack_iv(g, y)
        cells.append((g, y, slack))
        return slack

    fam = dataclasses.replace(
        cfa, tasks=(dataclasses.replace(task, slack_iv=spy),))
    assert run_one(fam).cells_processed == len(cells) == 13965
    for g, y, got in cells:
        want = _cfa_written_out(g, y)
        assert (got.lo, got.hi) == (want.lo, want.hi), (g, y)


def _cfa_slack_u(u, y):
    """CF-A's slack in u = 1/g, finite at u = 0: with s = sinhc(gamma/2)
    and a = pi (1-u) s / u, log(8g-7) = log(8-7u) - log u and arccosh a =
    log a + log(1 + sqrt(1 - 1/a^2)), so the slack is 4 [log(8-7u) -
    log(pi (1-u) s) - log(1 + sqrt(1 - (u / (pi (1-u) s))^2))]; at u = 0
    it is 4 log(4 / (pi s))."""
    au = IPI * (1.0 - u) * (y * 0.5).sinhc()
    return ((8.0 - u * 7.0).log() - au.log()
            - (1.0 + (1.0 - (u / au).sq()).sqrt()).log()) * 4.0


class TestCfaGenusTail:
    """The engine checks CF-A's genus tail: the u-form above, swept by the
    unchanged ``certify`` on CF-A's gamma axis."""

    _GAMMA = lookup("CF-A").tasks[0].dims[1]
    # 4 log(4 / (pi sinhc(pi/4))): the u = 0 slack at gamma = pi/2, its least
    _FLOOR = 4 * mp.log(4 / (mp.pi * mp.sinh(mp.pi / 4) / (mp.pi / 4)))

    def _certify(self, u_max):
        task = Task("tail", (Dim("u", 0.0, u_max), self._GAMMA), _cfa_slack_u)
        return run_one(CertFamily(id="CF-A-u", tasks=(task,)))

    def test_beyond_the_default_g_max(self):
        """u in [0, 1e-6], every g >= 1e6: one cell, within 4e-6 of the
        hand floor and below it."""
        rep = self._certify(1e-6)
        assert (rep.status, rep.cells_processed) == ("Certified", 1)
        assert 0.0 < self._FLOOR - rep.min_slack_lo < 4e-6

    def test_every_genus(self):
        """u in [0, 1/2] is every g >= 2: 15 cells, against 13,965 for the
        genus sweep to 1e6."""
        rep = self._certify(0.5)
        assert (rep.status, rep.cells_processed) == ("Certified", 15)
        assert 0.09 < rep.min_slack_lo < 0.1

    @pytest.mark.parametrize("g", [2.0, 10.0, 1e3, 1e6])
    def test_u_form_meets_the_genus_form(self, g):
        """At u = 1/g the two forms enclose the same slack: both enclosures
        hold the 40-digit value, on a gamma grid over [0, pi/2]."""
        for i in range(41):
            y = (IPI * 0.5).hi * i / 40
            s = mp.sinh(mp.mpf(y) / 2) / (mp.mpf(y) / 2) if y else 1
            want = 4 * (mp.log(8 * g - 7) - mp.acosh(mp.pi * (g - 1) * s))
            by_u = _cfa_slack_u(Interval.ratio(1.0, g), Interval.point(y))
            by_g = certify._cfa_slack_iv(Interval.point(g), Interval.point(y))
            assert encloses(by_u, want) and encloses(by_g, want), (g, y)
