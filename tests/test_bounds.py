"""Named bound evaluators.  Frozen values come from an mpmath oracle, and
every interval form of a genus ceiling is checked against its source
formula in ``oracles`` by containment."""

import json
import math
import random

import numpy as np
import pytest

import oracles
from oracles import encloses, mp
from schottky_gauge import bounds, cli, interval, lattice
from schottky_gauge.bounds import Decomposition, Signature, Verdict
from schottky_gauge.errors import DomainError
from schottky_gauge.interval import IPI, Interval

REL = 1e-12
P = Interval.point
G2 = P(2.0)


def test_genus_guard():
    # the entry points that take an integer genus reject one below their
    # floor: 2, or 1 for the Minkowski product bound
    gram = lattice.validate(np.eye(2), lattice.Mode.PPAV)
    for call in (lambda: bounds.jacobian_exclusion(gram),
                 lambda: bounds.hermite_ppav_bounds(1),
                 lambda: bounds.minkowski_product_log_bound(0)):
        with pytest.raises(DomainError):
            call()
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--g", "1"])
    assert exc.value.code == 2


def test_hyperelliptic_constants():
    assert bounds.HYPERELLIPTIC.mid == pytest.approx(2.4382923105989274, rel=REL)
    assert bounds.BAVARD_LIMIT.mid == pytest.approx(5.1067474735213817, rel=REL)
    # the coarse disk-packing constant 4 arccosh 2, four collar widths W
    naive = interval.IW * 4.0
    assert naive.mid == pytest.approx(5.2678315876992668, rel=REL)
    assert encloses(naive, 4.0 * math.acosh(2.0))


def test_bavard_constant_is_arccosh_form():
    # 2 log(3 + 2 sqrt 3 + 2 sqrt(5 + 3 sqrt 3)) = 4 arccosh(1/(2 sin(pi/12)))
    log_form = 2.0 * math.log(3.0 + 2.0 * math.sqrt(3.0)
                              + 2.0 * math.sqrt(5.0 + 3.0 * math.sqrt(3.0)))
    assert encloses(bounds.BAVARD_LIMIT, log_form)
    assert encloses(bounds.BAVARD_LIMIT, 2 * mp.log(
        3 + 2 * mp.sqrt(3) + 2 * mp.sqrt(5 + 3 * mp.sqrt(3))))


def test_bavard_bound_values_and_monotonicity():
    assert bounds.bavard_bound(G2).mid == pytest.approx(3.0571418389619963, rel=REL)
    prev = 0.0
    for g in (2, 3, 5, 10, 100, 10**5):
        cur = bounds.bavard_bound(P(float(g)))
        assert prev < cur.lo and cur.hi < bounds.BAVARD_LIMIT.lo
        prev = cur.hi


# -- genus ceilings against the oracle of each source formula -------------

# each form's and constant's source formula is its namesake in ``oracles``
_FORMS = ("log8", "thm_main_m1", "thm_main_m2", "thm_bs_upper",
          "systole_gamma1", "systole_gamma2", "bavard_bound")
_CONSTANTS = ("BAVARD_LIMIT", "HYPERELLIPTIC")


def test_every_public_form_has_an_oracle():
    # public Interval constants and functions returning an Interval that
    # bounds defines, not those it imports from the interval layer
    forms = {name for name, value in vars(bounds).items()
             if not name.startswith("_") and name not in vars(interval)
             and (isinstance(value, Interval)
                  or getattr(value, "__annotations__", {}).get("return")
                  == "Interval")}
    assert forms == {*_FORMS, *_CONSTANTS}


_rng = random.Random("genus ceilings")
_GENERA = ([2.0 * 5e5 ** _rng.random() for _ in range(300)]
           + [float(g) for g in range(2, 11)] + [1e20])


@pytest.mark.parametrize("name", _FORMS)
def test_point_enclosure_contains_source_formula(name):
    form, source = getattr(bounds, name), getattr(oracles, name)
    for g in _GENERA:
        enc = form(P(g))
        assert encloses(enc, source(mp.mpf(g))), (g, enc)


@pytest.mark.parametrize("name", _CONSTANTS)
def test_constant_encloses_source_formula(name):
    assert encloses(getattr(bounds, name), getattr(oracles, name))


@pytest.mark.parametrize("g", [2, 3, 5, 10])
def test_exclude_thresholds_are_bounds_rows(capsys, tmp_path, g):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"dim": 2 * g, "mode": "ppav",
                                "entries": np.eye(2 * g).ravel().tolist()}))
    assert cli.main(["exclude", str(path), "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert cli.main(["bounds", "--g", str(g), "--format", "json"]) == 0
    ceilings = {r["name"]: r["value"] for r in json.loads(capsys.readouterr().out)}
    assert row["thm_bs_threshold"] == ceilings["thm_bs_upper"]
    assert row["thm_main_m2_threshold"] == ceilings["thm_main_m2"]
    assert row["hyperelliptic_threshold"] == ceilings["hyperelliptic"]
    assert row["margin_m1_vs_main"] == ceilings["thm_main_m1"] - row["m1_sq"]


def _log_blichfeldt(g: int) -> Interval:
    """log of Blichfeldt's bound (2/pi) ((g+1)!)^(1/g) on the Hermite
    constant gamma_2g; the factorial is an exact float for these g."""
    return (P(float(math.factorial(g + 1))).log() / float(g)
            + P(2.0).log() - IPI.log())


# g: (Blichfeldt below the hyperelliptic constant, below (3/pi) log(4g-2)).
# m1^2 <= gamma_2g <= Blichfeldt on every det-1 form of dimension 2g, so
# where it is below a ceiling that ceiling's test of m1 cannot fire.
_REACH = {2: (True, True), 3: (True, True), 4: (True, True),
          5: (True, True), 6: (False, True), 7: (False, True),
          8: (False, True), 9: (False, False)}


@pytest.mark.parametrize("g", sorted(_REACH))
def test_blichfeldt_reach_table(g):
    below_hyp, below_bs = _REACH[g]
    b = _log_blichfeldt(g)
    for ceiling, below in ((bounds.HYPERELLIPTIC, below_hyp),
                           (bounds.thm_bs_upper(P(float(g))), below_bs)):
        c = ceiling.log()
        assert b.hi < c.lo if below else b.lo > c.hi


@pytest.mark.parametrize("g,value", [
    (5, 2.373), (6, 2.636), (8, 3.154), (9, 3.410)])
def test_blichfeldt_values(g, value):
    # the figures quoted in the README, to three decimals
    assert math.exp(_log_blichfeldt(g).mid) == pytest.approx(value, abs=5e-4)
    want = 2 / mp.pi * mp.factorial(g + 1) ** (mp.mpf(1) / g)
    assert encloses(_log_blichfeldt(g), mp.log(want))


def test_banaszczyk_reach_table():
    # A period-matrix Gram G has GJG = J, so its lattice is isometric to its
    # dual, and Banaszczyk's transference bound gives m2^2 <= 2g.  That lies
    # below the m2 ceiling 3.1 log(8g-7) exactly up to g = 5 (10 < 10.839;
    # 12 > 11.512 at g = 6), so the m2 test cannot fire on such a form there.
    for g in range(2, 10):
        ceiling = bounds.thm_main_m2(P(float(g)))
        assert 2 * g < ceiling.lo if g <= 5 else 2 * g > ceiling.hi


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_riemann_matrix_grams_stay_inconclusive(g):
    """Positive control: the det-1 Gram of a seeded Riemann matrix
    X + iY, G = [[Y^-1, Y^-1 X], [X Y^-1, Y + X Y^-1 X]], is symplectic,
    within Banaszczyk's m2^2 <= 2g, and gets no verdict."""
    zero, one = np.zeros((g, g)), np.eye(g)
    j = np.block([[zero, one], [-one, zero]])
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.5, 0.5, (g, g))
        x = (x + x.T) / 2
        a = rng.uniform(-1.0, 1.0, (g, g))
        y = a @ a.T + 0.5 * one
        yi = np.linalg.inv(y)
        gram = np.block([[yi, yi @ x], [x @ yi, y + x @ yi @ x]])
        assert np.abs(gram @ j @ gram - j).max() < 1e-12
        verdict = bounds.jacobian_exclusion(
            lattice.validate(gram, lattice.Mode.PPAV))
        assert verdict.verdict is Verdict.INCONCLUSIVE
        assert verdict.m2_sq <= 2 * g


def test_minkowski_product_log_bound():
    # Minkowski's second theorem in dimension 2g: log((4/pi)^(2g) (g!)^2)
    assert bounds.minkowski_product_log_bound(2) == pytest.approx(
        2.352552262201852, rel=REL)
    for g in range(1, 11):
        want = 2 * g * mp.log(4 / mp.pi) + 2 * mp.log(mp.factorial(g))
        assert bounds.minkowski_product_log_bound(g) == pytest.approx(
            float(want), rel=REL)


@pytest.mark.parametrize("d", range(1, 25))
def test_minkowski_log_constant(d):
    """log((4/pi) Gamma(d/2+1)^(2/d)) to a 40-digit oracle; at d = 1 it is
    log((4/pi)(pi/4)) = 0, so the tolerance has an absolute floor."""
    want = mp.log(4 / mp.pi) + mp.loggamma(mp.mpf(d) / 2 + 1) * 2 / d
    assert lattice.minkowski_log_constant(d) == pytest.approx(
        float(want), rel=REL, abs=1e-15)


def test_minkowski_bounds_read_the_lattice_constant():
    """The product ceiling and the Hermite bracket's upper end are the one
    constant of ``lattice``, bit for bit."""
    for g in range(2, 11):
        c = lattice.minkowski_log_constant(2 * g)
        assert bounds.minkowski_product_log_bound(g) == 2.0 * g * c
        assert bounds.hermite_ppav_bounds(g)[1] == math.exp(c)


def test_hermite_asymptote():
    # (g!)^(1/g) ~ g/e, so lower ~ g/(pi e) and upper ~ 4g/(pi e)
    g = 400
    lo, hi = bounds.hermite_ppav_bounds(g)
    target = g / (math.pi * math.e)
    assert 0.95 * target < lo < 1.1 * target
    assert 3.8 * target < hi < 4.4 * target


class TestCorollary:
    def test_single_piece(self):
        d = Decomposition(t=1.0, pieces=(Signature(2, 1),))
        (piece,) = bounds.corollary_report(d)
        assert piece["bound"] == pytest.approx(7.1382352850589647, rel=REL)

    def test_report_fields(self):
        d = Decomposition(t=1.0, pieces=(Signature(2, 1),))
        (piece,) = bounds.corollary_report(d)
        assert piece["M"] == pytest.approx(0.4621171572600098, rel=REL)
        assert piece["denominator"] == pytest.approx(2.1808304953223343, rel=REL)
        assert piece["log_argument_discrepancy"] is True
        assert piece["bound_plus3_variant"] == pytest.approx(
            9.4090737009156809, rel=REL)

    def test_mixing_saturates_at_half(self):
        """min{tanh(t/2), 1/2} is 1/2 for every large t, also where
        sinh(t/2)^2 (t > 710.4) or sinh(t/2) (t > 1420) overflows."""
        for t in (50.0, 800.0, 1500.0):
            assert bounds.corollary_mixing(t) == 0.5

    def test_invalid_decomposition(self):
        with pytest.raises(DomainError):
            Decomposition(t=0.0, pieces=(Signature(2, 1),))
        with pytest.raises(DomainError):
            Decomposition(t=1.0, pieces=())
        with pytest.raises(DomainError):
            Decomposition(t=1.0, pieces=(Signature(0, 3),))


class TestSignature:
    def test_non_hyperbolic_rejected(self):
        with pytest.raises(DomainError):
            Signature(0, 1)
        with pytest.raises(DomainError):
            Signature(1, 0)
        Signature(1, 1)
        Signature(0, 3)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            Signature(2.5, 1)
        with pytest.raises(DomainError):
            Signature(2, 1.5)
        with pytest.raises(DomainError):
            Signature(2, False)


@pytest.mark.parametrize("kwargs", [{"t": math.nan}, {"t": math.inf}], ids=str)
def test_decomposition_rejects_non_finite_t(kwargs):
    with pytest.raises(DomainError):
        Decomposition(**{"t": 1.0, "pieces": (Signature(2, 1),), **kwargs})


class TestExclusion:
    def test_identity_inconclusive(self):
        gram = lattice.validate(np.eye(4), lattice.Mode.PPAV)
        verdict = bounds.jacobian_exclusion(gram)
        assert verdict.verdict is Verdict.INCONCLUSIVE
        assert verdict.m1_sq == pytest.approx(1.0, rel=1e-9)
        assert verdict.margin_m1_vs_bs == pytest.approx(
            0.7110042581561341, rel=1e-9)

    def test_plain_mode_rejected(self):
        gram = lattice.validate(np.eye(4), lattice.Mode.PLAIN)
        with pytest.raises(DomainError):
            bounds.jacobian_exclusion(gram)

    def test_balanced_stretch_stays_inconclusive(self):
        c = 4.0
        gram = lattice.validate(
            np.diag([c, c, 1 / c, 1 / c]), lattice.Mode.PPAV)
        verdict = bounds.jacobian_exclusion(gram)
        assert verdict.m1_sq == pytest.approx(0.25, rel=1e-9)
        assert verdict.verdict is Verdict.INCONCLUSIVE

    def test_unbalanced_minima_not_jacobian(self):
        # det-1 lattice diag(eps, b, b, b) with b = eps^(-1/3): the second
        # minimum b = 21.54 far exceeds the 3.1 log 9 = 6.81 ceiling
        eps = 1e-4
        b = eps ** (-1.0 / 3.0)
        gram = lattice.validate(np.diag([eps, b, b, b]), lattice.Mode.PPAV)
        verdict = bounds.jacobian_exclusion(gram)
        assert verdict.m2_sq == pytest.approx(b, rel=1e-9)
        assert verdict.verdict is Verdict.NOT_JACOBIAN

    def test_m2_at_its_ceiling_is_inconclusive(self):
        # the m2 test is strict: m2^2 equal to the printed ceiling
        # 3.1 log 9, bit for bit, excludes nothing
        b = bounds.thm_main_m2(G2).mid
        gram = lattice.validate(np.diag([b ** -3, b, b, b]), lattice.Mode.PPAV)
        verdict = bounds.jacobian_exclusion(gram)
        assert (verdict.m2_sq, verdict.margin_m2_vs_main) == (b, 0.0)
        assert verdict.verdict is Verdict.INCONCLUSIVE

    def test_hyperelliptic_band_classification(self, monkeypatch):
        # m1^2 between the hyperelliptic constant (2.4383) and the genus-12
        # Theorem-1 ceiling (3.656): excluded as a hyperelliptic Jacobian
        # only.  Lattices realizing this band are not diagonal, so the
        # minima are stubbed and just the classification logic is checked.
        gram = lattice.validate(np.eye(24), lattice.Mode.PPAV)
        fake = lattice.SuccessiveMinima(
            values=(2.6, 2.6),
            witnesses=(lattice.ShortVector((1,) + (0,) * 23, 2.6),
                       lattice.ShortVector((0, 1) + (0,) * 22, 2.6)))
        monkeypatch.setattr(lattice, "successive_minima", lambda g, k: fake)
        verdict = bounds.jacobian_exclusion(gram)
        assert verdict.verdict is Verdict.NOT_HYPERELLIPTIC_JACOBIAN
