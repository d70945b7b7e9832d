"""Collar geometry: capacities, width floors, Y-piece and Q-piece bounds.

Expected constants were frozen from a 40-digit mpmath oracle.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schottky_gauge import collar
from schottky_gauge.errors import DomainError

REL = 1e-12


class TestConstants:
    def test_w(self):
        assert collar.W == pytest.approx(1.3169578969248167, rel=REL)

    def test_w_prime(self):
        assert collar.W_PRIME == pytest.approx(0.8047189562170502, rel=REL)

    def test_k_between_thresholds(self):
        # K is where the config-1 width floor reaches W
        w_at_k = collar.collar_width_lower_bound(collar.K)
        assert w_at_k == pytest.approx(collar.W, abs=5e-4)


class TestCapacity:
    def test_value(self):
        assert collar.capacity(1.0, 1.0) == pytest.approx(
            0.5775209333193743, rel=REL)

    def test_wide_collar_limit(self):
        # as w -> inf the denominator tends to pi
        assert collar.capacity(1.0, 100.0) == pytest.approx(1.0 / math.pi, rel=1e-9)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.01, 1.0))
    def test_monotone_increasing_in_l_decreasing_in_w(self, l, w, d):
        assert collar.capacity(l + d, w) > collar.capacity(l, w)
        assert collar.capacity(l, w + d) < collar.capacity(l, w)

    def test_capacity_at_width_arccosh2(self):
        assert collar.capacity(1.0, collar.W) == pytest.approx(
            3.0 / (2.0 * math.pi), rel=REL)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.5, 3.0))
    def test_linear_in_length(self, l, w, c):
        assert collar.capacity(c * l, w) == pytest.approx(
            c * collar.capacity(l, w), rel=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            collar.capacity(0.0, 1.0)


class TestYPieces:
    def test_y1_nu_value(self):
        assert collar.y1_nu(2.0, 1.0) == pytest.approx(
            3.3898023251834055, rel=REL)

    def test_y1_nu_degenerate(self):
        with pytest.raises(DomainError):
            collar.y1_nu(0.1, 0.1)

    def test_y1_nu_boundary_point(self):
        # sinh(g/2) = 1 and cosh(2w) = 3 make the arccosh argument exactly 1
        gamma = 2.0 * math.asinh(1.0)
        w = math.acosh(3.0) / 2.0
        assert collar.y1_nu(gamma, w) == pytest.approx(0.0, abs=1e-6)

    @given(st.floats(0.5, 4.0), st.floats(0.5, 3.0))
    def test_y1_nu_below_homotopy_bound(self, gamma, w):
        try:
            nu = collar.y1_nu(gamma, w)
        except DomainError:
            return
        assert nu < 2.0 * gamma + 4.0 * w

    def test_y1_eta_bound(self):
        assert collar.y1_eta_bound(2.0, 1.0) == pytest.approx(3.0, rel=REL)

    def test_y2_nu1_value(self):
        assert collar.y2_nu1_exact(4.0, 1.0) == pytest.approx(
            1.6949011625917027, rel=REL)

    def test_y2_nu1_degenerate(self):
        with pytest.raises(DomainError):
            collar.y2_nu1_exact(0.1, 0.1)


class TestWidthBounds:
    def test_config1_branch_values(self):
        # at 1.79 the separation branch still dominates
        b1 = math.asinh(1.0 / math.sinh(0.895))
        assert b1 == pytest.approx(0.8678772179882830, rel=REL)
        b2 = math.acosh(math.cosh(0.895) / math.cosh(0.4475))
        assert b2 == pytest.approx(0.7516273938983504, rel=REL)
        got = collar.collar_width_lower_bound(1.79)
        assert got == pytest.approx(b1, rel=REL)

    @given(st.floats(0.05, 8.0))
    def test_config1_floor_at_least_w_prime(self, gamma):
        w = collar.collar_width_lower_bound(gamma)
        assert w >= collar.W_PRIME - 1e-12

    def test_area_upper(self):
        got = collar.collar_width_area_upper(2.0 * math.log(6.0), 2)
        assert got == pytest.approx(1.3275617276181847, rel=REL)

    def test_area_upper_genus_check(self):
        with pytest.raises(DomainError):
            collar.collar_width_area_upper(1.0, 1)

    def test_separation_values(self):
        assert collar.collar_separation(2.1) == pytest.approx(
            0.7307456296975859, rel=REL)
        assert collar.collar_separation(1.1) == pytest.approx(
            1.3157569368549652, rel=REL)

    def test_separation_finite_where_sinh_is(self):
        # sinh(710) is finite in binary64, so the separation, about
        # 2 exp(-710), is a positive subnormal, not an overflow
        sep = collar.collar_separation(1420.0)
        assert math.isfinite(sep) and sep > 0.0


class TestCrossingBounds:
    def test_qwtwo_values(self):
        assert collar.qwtwo(1.1) == pytest.approx(0.5109540546070099, rel=REL)
        assert collar.qwtwo(1.5) == pytest.approx(0.6629846265629283, rel=REL)

    def test_qwtwo_is_crossing_bound_specialization(self):
        a = 1.7
        assert collar.qwtwo(a) == pytest.approx(
            collar.crossing_width_bound(a, collar.W_PRIME, a / 4.0), rel=1e-12)

    def test_crossing_width_r1_domain(self):
        with pytest.raises(DomainError):
            collar.crossing_width_bound(1.0, 0.5, 0.3)

    @given(st.floats(0.5, 6.0), st.floats(0.0, 0.12))
    def test_crossing_width_decreasing_in_r1(self, a, dr):
        w0 = collar.crossing_width_bound(a, 0.8, 0.0)
        w1 = collar.crossing_width_bound(a, 0.8, a / 4.0 * dr / 0.12 if dr else 0.0)
        assert w1 <= w0 + 1e-12


class TestQPiece:
    def test_values_at_boundary_six(self):
        a1, a2 = collar.qpiece_basis_bounds(6.0)
        assert a1 == pytest.approx(2.6829616679034604, rel=REL)
        # at the worst-case alpha1 the second bound collapses to the first
        assert a2 == pytest.approx(a1, rel=REL)

    def test_known_alpha1_variant(self):
        a1, _ = collar.qpiece_basis_bounds(6.0)
        tighter = collar.qpiece_basis_bounds_at(6.0, a1 * 0.9)
        assert tighter > 0.0


class TestCaseWidths:
    def test_case2c2_value(self):
        assert collar.case2c2_width_bound(2.1) == pytest.approx(
            0.3075549859075049, rel=REL)

    def test_case2c2_arccosh_argument(self):
        arg = math.cosh(1.05) / (math.cosh(0.525) * math.cosh(collar.W_PRIME))
        assert arg == pytest.approx(1.0476690154999689, rel=REL)

    def test_case2c2_stated_domain(self):
        with pytest.raises(DomainError):
            collar.case2c2_width_bound(2.0)

    def test_case2c2_cap(self):
        assert collar.case2c2_width_bound(50.0) == 0.66

    def test_case2c2b_value(self):
        assert collar.case2c2b_width_bound(2.1) == pytest.approx(
            1.1284743121684478, rel=REL)

    def test_case2c2b_stated_domain(self):
        with pytest.raises(DomainError):
            collar.case2c2b_width_bound(1.9)
