"""Named bound evaluators.  Frozen values come from a 40-digit mpmath oracle."""

import math

import numpy as np
import pytest

from schottky_gauge import bounds, lattice
from schottky_gauge.bounds import Decomposition, Signature, Verdict
from schottky_gauge.errors import DomainError

REL = 1e-12


def test_thm_bs_upper():
    assert bounds.thm_bs_upper(2) == pytest.approx(1.7110042581561341, rel=REL)


def test_thm_main_bounds():
    m1, m2 = bounds.thm_main_bounds(2)
    assert m1 == pytest.approx(1.7917594692280550, rel=REL)
    assert m2 == pytest.approx(6.8113961897422801, rel=REL)


def test_systole_bounds():
    s1, s2 = bounds.systole_bounds(2)
    assert s1 == pytest.approx(3.5835189384561100, rel=REL)
    assert s2 == pytest.approx(6.5916737320086581, rel=REL)


def test_genus_guard():
    for fn in (bounds.thm_bs_upper, bounds.systole_bounds, bounds.bavard_bound):
        with pytest.raises(DomainError):
            fn(1)


def test_hyperelliptic_constants():
    assert bounds.hyperelliptic_bound() == pytest.approx(
        2.4382923105989274, rel=REL)
    assert bounds.bavard_constant() == pytest.approx(5.1067474735213817, rel=REL)
    assert bounds.naive_disk_bound() == pytest.approx(5.2678315876992668, rel=REL)


def test_bavard_constant_is_arccosh_form():
    # 2 log(3 + 2 sqrt 3 + 2 sqrt(5 + 3 sqrt 3)) = 4 arccosh(1/(2 sin(pi/12)))
    alt = 4.0 * math.acosh(1.0 / (2.0 * math.sin(math.pi / 12.0)))
    assert bounds.bavard_constant() == pytest.approx(alt, rel=REL)


def test_bavard_bound_values_and_monotonicity():
    assert bounds.bavard_bound(2) == pytest.approx(3.0571418389619963, rel=REL)
    prev = 0.0
    for g in (2, 3, 5, 10, 100, 10**5):
        cur = bounds.bavard_bound(g)
        assert prev < cur < bounds.bavard_constant()
        prev = cur


def test_minkowski_product_log_bound():
    assert bounds.minkowski_product_log_bound(2) == pytest.approx(
        1.8694233116608715, rel=REL)


def test_hermite_ppav_bounds():
    lo, hi = bounds.hermite_ppav_bounds(2)
    assert lo == pytest.approx(0.6366197723675813, rel=REL)
    assert hi == pytest.approx(1.8006326323142121, rel=REL)
    assert lo < hi


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
        (piece,) = bounds.corollary_report(d)["pieces"]
        assert piece["bound"] == pytest.approx(7.1382352850589647, rel=REL)

    def test_report_fields(self):
        d = Decomposition(t=1.0, pieces=(Signature(2, 1),))
        rep = bounds.corollary_report(d)
        assert rep["M"] == pytest.approx(0.4621171572600098, rel=REL)
        assert rep["denominator"] == pytest.approx(2.1808304953223343, rel=REL)
        piece = rep["pieces"][0]
        assert piece["log_argument_discrepancy"] is True
        assert piece["bound_plus3_variant"] == pytest.approx(
            9.4090737009156809, rel=REL)

    def test_mixing_saturates_at_half(self):
        assert bounds.corollary_mixing(50.0) == 0.5

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
        assert verdict.margins["margin_m1_vs_bs"] == pytest.approx(
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

    def test_hyperelliptic_band_classification(self, monkeypatch):
        # m1^2 between the hyperelliptic constant (2.4383) and the genus-12
        # Theorem-1 ceiling (3.656): excluded as a hyperelliptic Jacobian
        # only.  Lattices realizing this band are not diagonal, so the
        # minima are stubbed and just the classification logic is checked.
        gram = lattice.validate(np.eye(24), lattice.Mode.PPAV)
        fake = lattice.SuccessiveMinima(
            k=2, values=(2.6, 2.6),
            witnesses=(lattice.ShortVector((1,) + (0,) * 23, 2.6),
                       lattice.ShortVector((0, 1) + (0,) * 22, 2.6)))
        monkeypatch.setattr(lattice, "successive_minima", lambda g, k: fake)
        verdict = bounds.jacobian_exclusion(gram)
        assert verdict.verdict is Verdict.NOT_HYPERELLIPTIC_JACOBIAN
