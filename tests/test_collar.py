"""Collar lemmas: every interval form against a 50-digit mpmath oracle of
its source formula (``oracles``), and the geometric properties the lemmas
state.

An enclosure is checked by containment: the exact value of the source
formula at the float inputs must lie between its ends.
"""

import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from oracles import WP, encloses, mp
from schottky_gauge import certify, cli, collar
from schottky_gauge.errors import DomainError
from schottky_gauge.interval import IW, IWP, IndeterminateCell, Interval

P = Interval.point


def _uniform(lo, hi):
    return lambda rng: rng.uniform(lo, hi)


def _log_uniform(lo, hi):
    return lambda rng: lo * (hi / lo) ** rng.random()


# form name -> samplers of its arguments; its source formula is the
# function of the same name in ``oracles``
_SAMPLERS = {
    "dcap": (_log_uniform(1e-3, 50.0),),
    "capacity": (_log_uniform(1e-3, 1e3), _log_uniform(1e-3, 50.0)),
    "separation": (_log_uniform(1e-300, 700.0),),
    "half_over_quarter": (_uniform(0.0, 2800.0),),
    "config1_width": (_log_uniform(1e-3, 1400.0),),
    "area_width": (_log_uniform(2.0, 1e6), _log_uniform(1e-3, 100.0)),
    "pentagon": (_uniform(1.0, 20.0), _uniform(1.0, 20.0)),
    "crossing_den": (_uniform(0.0, 1400.0),),
    "qwtwo": (_log_uniform(1e-2, 1400.0),),
    "config2_width": (_uniform(2.1, 1000.0),),
    "config2_crossing_width": (_uniform(2.1, 1400.0),),
}


def test_every_public_form_has_an_oracle():
    forms = {name for name, value in vars(collar).items()
             if callable(value) and not name.startswith("_")
             and getattr(value, "__module__", None) == collar.__name__}
    assert forms == set(_SAMPLERS)


@pytest.mark.parametrize("name", list(_SAMPLERS))
def test_point_enclosure_contains_source_formula(name):
    samplers, source = _SAMPLERS[name], getattr(oracles, name)
    form = getattr(collar, name)
    rng = random.Random(name)
    for _ in range(300):
        args = [draw(rng) for draw in samplers]
        enc = form(*map(P, args))
        assert encloses(enc, source(*map(mp.mpf, args))), (args, enc)


def test_half_over_quarter_finite_where_cosh_half_overflows():
    # cosh(1400) overflows binary64; 2c - 1/c with c = cosh(700) does not
    enc = collar.half_over_quarter(P(2800.0))
    assert math.isfinite(enc.hi)
    assert encloses(enc, oracles.half_over_quarter(mp.mpf(2800)))


def test_collar_imports_no_math():
    # every value comes from the interval layer, never straight from libm
    tree = ast.parse(Path(collar.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert "math" not in imported


# -- constants -----------------------------------------------------------

class TestConstants:
    def test_w(self):
        assert encloses(IW, mp.acosh(2))

    def test_w_prime(self):
        assert encloses(IWP, WP)
        assert encloses(collar.COSH_WP, mp.cosh(WP))

    def test_k_between_thresholds(self):
        # K is where the config-1 width floor reaches W
        w_at_k = collar.config1_width(P(collar.K))
        assert w_at_k.mid == pytest.approx(IW.mid, abs=5e-4)


class TestCapacity:
    def test_value(self):
        enc = collar.capacity(P(1.0), P(1.0))
        assert encloses(enc, 1 / oracles.dcap(mp.mpf(1)))
        assert enc.hi - enc.lo < 1e-14

    def test_wide_collar_limit(self):
        # as w -> inf the denominator tends to pi
        assert collar.capacity(P(1.0), P(100.0)).mid == pytest.approx(
            1.0 / math.pi, rel=1e-9)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.01, 1.0))
    def test_monotone_increasing_in_l_decreasing_in_w(self, l, w, d):
        assert collar.capacity(P(l + d), P(w)).lo > collar.capacity(P(l), P(w)).hi
        assert collar.capacity(P(l), P(w + d)).hi < collar.capacity(P(l), P(w)).lo

    def test_capacity_at_width_arccosh2(self):
        assert encloses(collar.capacity(P(1.0), IW), 3 / (2 * mp.pi))

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.5, 3.0))
    def test_linear_in_length(self, l, w, c):
        assert collar.capacity(P(c * l), P(w)).mid == pytest.approx(
            c * collar.capacity(P(l), P(w)).mid, rel=1e-9)

    def test_rejects_nonpositive(self):
        # a collar of width 0 has denominator 0: no finite capacity
        with pytest.raises(DomainError):
            collar.capacity(P(1.0), P(0.0))


class TestYPieces:
    def test_y1_nu_value(self):
        # nu = 2 arccosh(sinh^2(g/2)(cosh 2w - 1) - 1) at g = 2, w = 1
        nu = collar.pentagon(P(1.0), P(1.0)) * 4.0
        s = mp.sinh(1) ** 2 * (mp.cosh(2) - 1) - 1
        assert encloses(nu, 2 * mp.acosh(s))

    def test_y1_nu_degenerate(self):
        with pytest.raises(DomainError) as exc:
            collar.pentagon(P(0.05), P(0.1))
        assert not isinstance(exc.value, IndeterminateCell)

    def test_y1_nu_boundary_point(self, capsys):
        # sinh(g/2) = 1 and sinh(w) = 1 up to rounding: the enclosure of
        # the arccosh argument reaches below 1, so no Y-piece is proven
        gamma = 2.0 * math.asinh(1.0)
        w = math.acosh(3.0) / 2.0
        with pytest.raises(DomainError) as exc:
            collar.pentagon(P(gamma / 2.0), P(w))
        assert not isinstance(exc.value, IndeterminateCell)
        assert cli.main(["ypiece", "--gamma", repr(gamma), "--w", repr(w),
                         "--config", "1"]) == 0
        assert capsys.readouterr().out == "degenerate\n"

    @given(st.floats(0.5, 4.0), st.floats(0.5, 3.0))
    def test_y1_nu_below_homotopy_bound(self, gamma, w):
        try:
            nu = collar.pentagon(P(gamma / 2.0), P(w)) * 4.0
        except DomainError:
            return
        assert nu.hi < 2.0 * gamma + 4.0 * w

    def test_y1_eta_bound(self, capsys):
        assert cli.main(["ypiece", "--gamma", "2", "--w", "1", "--config", "1",
                         "--format", "csv"]) == 0
        assert "eta_bound,3\n" in capsys.readouterr().out

    def test_y2_nu1_value(self):
        # nu1 = 2 arccosh(sinh(g/4) sinh w) at g = 4, w = 1
        nu1 = collar.pentagon(P(1.0), P(1.0)) * 2.0
        assert encloses(nu1, 2 * mp.acosh(mp.sinh(1) ** 2))

    def test_y2_nu1_degenerate(self):
        with pytest.raises(DomainError):
            collar.pentagon(P(0.025), P(0.1))


class TestWidthBounds:
    def test_config1_branch_values(self):
        # at 1.79 the separation branch still dominates
        y = mp.mpf(1.79)
        b1, b2 = oracles.separation(y / 2), mp.acosh(oracles.half_over_quarter(y))
        assert b1 > b2
        got = collar.config1_width(P(1.79))
        assert encloses(got, b1)
        assert got.lo == collar.separation(P(1.79) * 0.5).lo

    @given(st.floats(0.05, 8.0))
    def test_config1_floor_at_least_w_prime(self, gamma):
        assert collar.config1_width(P(gamma)).hi >= IWP.lo

    def test_area_upper(self):
        y = 2.0 * math.log(6.0)
        assert encloses(collar.area_width(P(2.0), P(y)),
                         mp.asinh(2 * mp.pi / mp.mpf(y)))

    def test_area_upper_genus_check(self):
        # the genus floor g >= 2 of the area ceiling is the parser's
        with pytest.raises(SystemExit) as exc:
            cli.main(["collar", "--gamma", "1", "--g", "1"])
        assert exc.value.code == 2

    def test_separation_values(self):
        for half in (1.05, 0.55):
            assert encloses(collar.separation(P(half)),
                             oracles.separation(mp.mpf(half)))

    def test_separation_finite_where_sinh_is(self):
        # sinh(710) is finite in binary64, so the separation, about
        # 2 exp(-710), is a positive subnormal; sinh(750) overflows
        sep = collar.separation(P(710.0))
        assert math.isfinite(sep.hi) and sep.hi > 0.0
        with pytest.raises(IndeterminateCell):
            collar.separation(P(750.0))


class TestCrossingBounds:
    @given(st.floats(0.5, 6.0), st.floats(0.01, 0.12))
    def test_crossing_width_decreasing_in_r1(self, a, dr):
        # the crossing width num / crossing_den(x) is taken at the offset
        # r1 = x/4; its denominator increases with r1, so the width falls
        r1 = a / 4.0
        assert (collar.crossing_den(P(4.0 * (r1 + dr))).lo
                > collar.crossing_den(P(4.0 * r1)).hi)


    def test_qwtwo_values(self):
        for a in (1.1, 1.5):
            mp_a = mp.mpf(a)
            assert encloses(collar.qwtwo(P(a)), oracles.crossing_width(mp_a, WP, mp_a / 4))

    def test_qwtwo_is_crossing_bound_specialization(self):
        # sinh W' = 2/sqrt 5 and cosh^2 W' = 9/5 exactly
        assert mp.sinh(WP) == pytest.approx(2 / mp.sqrt(5), rel=1e-35)
        assert mp.cosh(WP) ** 2 == pytest.approx(mp.mpf(9) / 5, rel=1e-35)
        a = mp.mpf(1.7)
        assert encloses(collar.qwtwo(P(1.7)), oracles.crossing_width(a, WP, a / 4))


class TestCaseWidths:
    def test_case2c2_value(self):
        y = mp.mpf(2.1)
        want = mp.acosh(oracles.half_over_quarter(y) / mp.cosh(WP))
        assert want < mp.mpf("0.66")
        assert encloses(collar.config2_width(P(2.1)), want)

    def test_case2c2_arccosh_argument(self):
        arg = collar.half_over_quarter(P(2.1)) / collar.COSH_WP
        assert arg.lo > 1.0
        y = mp.mpf(2.1)
        assert encloses(arg, oracles.half_over_quarter(y) / mp.cosh(WP))

    def test_case2c2_stated_domain(self):
        # on the stated domain y >= 2.1 (CF-E's box starts at the float
        # below 2.1) the arccosh argument exceeds 1, so the clamp never acts
        lo = certify.lookup("CF-E").tasks[0].dims[1].lo
        arg = collar.half_over_quarter(Interval(lo, 1000.0)) / collar.COSH_WP
        assert lo <= 2.1 and arg.lo > 1.0

    def test_case2c2_cap(self):
        got = collar.config2_width(P(50.0))
        assert (got.lo, got.hi) == (collar.WIDTH_CAP.lo, collar.WIDTH_CAP.hi)

    def test_case2c2b_value(self):
        y = mp.mpf(2.1)
        assert encloses(collar.config2_crossing_width(P(2.1)),
                         mp.asinh(mp.cosh(y / 2) / oracles.crossing_den(y)))

    def test_case2c2b_stated_domain(self):
        # above 0.96 on the stated domain y >= 2.1
        rng = random.Random("case2c2b")
        lo = certify.lookup("CF-H").tasks[0].dims[0].lo
        for y in [lo] + [rng.uniform(lo, 1000.0) for _ in range(300)]:
            assert collar.config2_crossing_width(P(y)).lo > 0.96, y
