"""Lattice engine: validation, reduction, enumeration, successive minima.

The brute-force oracle (``oracles``) double-checks every operation that
admits exhaustive search.
"""

import builtins
import json
import math
import random
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    brute_force_below,
    brute_force_minima,
    check_minkowski,
    random_unimodular,
    rational_pivots,
    skew,
)
from schottky_gauge import bounds, lattice
from schottky_gauge.errors import (
    BudgetExceeded,
    DeterminantNotOne,
    DomainError,
    MalformedGram,
    NotPositiveDefinite,
    NumericalBreakdown,
    NotSymmetric,
    OddDimension,
)

HEX = (2.0 / math.sqrt(3.0)) * np.array([[1.0, 0.5], [0.5, 1.0]])
HEX_MIN = 1.1547005383792515  # 2/sqrt(3)
NON_FINITE = [[1, math.nan, math.nan, 1], [math.nan, 0, 0, 1],
              [math.inf, 0, 0, 1], [1e308, 0, 0, 1e308]]


class TestValidate:
    def test_identity_plain(self):
        g = lattice.validate(np.eye(2), lattice.Mode.PLAIN)
        assert g.dim == 2

    def test_odd_dimension_ppav(self):
        with pytest.raises(OddDimension):
            lattice.validate(np.eye(3), lattice.Mode.PPAV)

    def test_asymmetric_rejected(self):
        for raw in ([[1.0, 0.1], [0.0, 1.0]], [[2.0, 1.0 + 1e-10], [1.0, 2.0]]):
            with pytest.raises(NotSymmetric):
                lattice.validate(raw, lattice.Mode.PLAIN)

    def test_asymmetry_at_the_tolerance_accepted(self):
        # 1e-12 off is exactly the tolerance, times max(1, largest |entry|) = 1;
        # the next float up is over it
        lattice.validate([[1.0, 0.0], [1e-12, 1.0]], lattice.Mode.PLAIN)
        with pytest.raises(NotSymmetric):
            lattice.validate([[1.0, 0.0], [math.nextafter(1e-12, 1.0), 1.0]],
                             lattice.Mode.PLAIN)

    def test_tiny_asymmetry_symmetrized(self):
        a = np.eye(2)
        a[0, 1] = 1e-14
        g = lattice.validate(a, lattice.Mode.PLAIN)
        assert g.entries[0][1] == g.entries[1][0]

    def test_determinant_check(self):
        with pytest.raises(DeterminantNotOne):
            lattice.validate(2.0 * np.eye(2), lattice.Mode.PPAV)
        lattice.validate(np.diag([2.0, 0.5]), lattice.Mode.PPAV)

    @pytest.mark.parametrize("entries", NON_FINITE, ids=str)
    def test_non_finite_rejected(self, entries):
        # 1e308 + 1e308 overflows in the symmetrization: no warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite):
                lattice.validate(np.reshape(entries, (2, 2)), lattice.Mode.PLAIN)

    def test_tiny_entries_accepted(self):
        g = lattice.validate([[1e-300, 0.0], [0.0, 1e-300]], lattice.Mode.PLAIN)
        assert lattice.successive_minima(g, 2).values == (1e-300, 1e-300)


def _reduced_gram(red):
    """R^T R of a form's factor: its Gram matrix in its own basis."""
    r = np.array(red.factor)
    return r.T @ r


class TestReduce:
    def test_identity_fixed(self):
        g = lattice.validate(np.eye(4), lattice.Mode.PLAIN)
        red = lattice.reduce(g)
        assert np.allclose(_reduced_gram(red), np.eye(4))
        assert abs(round(np.linalg.det(red.basis))) == 1

    def test_det_preserved_2d(self):
        g = lattice.validate([[4.0, 2.0], [2.0, 4.0]], lattice.Mode.PLAIN)
        red = lattice.reduce(g)
        rtr, t = _reduced_gram(red), np.array(red.basis)
        assert rtr[0][0] <= 4.0 + 1e-9
        assert np.linalg.det(rtr) == pytest.approx(12.0, rel=1e-9)
        assert np.allclose(t @ np.array(g.entries) @ t.T, rtr, rtol=1e-9)

    def test_det_preserved_random_6d(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            b = rng.normal(size=(6, 6))
            raw = b @ b.T + 0.5 * np.eye(6)
            g = lattice.validate(raw, lattice.Mode.PLAIN)
            red = lattice.reduce(g)
            assert np.linalg.det(_reduced_gram(red)) == pytest.approx(
                np.linalg.det(g.entries), rel=1e-9)
            assert abs(round(np.linalg.det(red.basis))) == 1

    def test_sorted_pivot_start(self):
        """diag(1, s) with s = (255/256)^2 = 0.9922 is LLL-reduced as given
        (s >= 0.99 * 1), so from the given order T = I; the sorted-pivot
        start takes the shorter vector first."""
        s = (255 / 256) ** 2
        red = lattice.reduce(lattice.validate(np.diag([1.0, s])))
        assert red.basis == ((0, 1), (1, 0))
        assert red.factor == ((255 / 256, 0.0), (0.0, 1.0))

    def test_swap_budget_boundary(self, monkeypatch):
        """The 3x3 identity under 12 seeded row operations takes exactly 7
        LLL swaps: it reduces at a budget of 7 and breaks down at 6."""
        form = skew(np.eye(3, dtype=int).tolist(), random.Random(41))
        g = lattice.validate(np.array(form, dtype=float), lattice.Mode.PLAIN)
        monkeypatch.setattr(lattice, "_LLL_MAX_SWAPS", 7)
        assert np.allclose(_reduced_gram(lattice.reduce(g)), np.eye(3))
        monkeypatch.setattr(lattice, "_LLL_MAX_SWAPS", 6)
        with pytest.raises(NumericalBreakdown, match="swap budget"):
            lattice.reduce(g)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_lll_conditions_on_skewed_forms(self, d):
        """Size reduction and the Lovasz condition (delta = 0.99), read off
        the reduced form's factor R: mu[i, j] = R[j, i] / R[j, j] and the
        squared Gram-Schmidt norms are R[j, j]^2."""
        rng = np.random.default_rng(100 + d)
        for _ in range(30):
            b = rng.normal(size=(d, d))
            t = random_unimodular(rng, d)
            raw = t.T @ (b @ b.T + 0.3 * np.eye(d)) @ t
            r = np.array(lattice.reduce(
                lattice.validate(raw, lattice.Mode.PLAIN)).factor)
            diag = np.diag(r)
            for i in range(1, d):
                assert np.all(np.abs(r[:i, i] / diag[:i]) <= 0.5 + 1e-9)
                assert (diag[i] ** 2 + r[i - 1, i] ** 2
                        >= 0.99 * diag[i - 1] ** 2 * (1 - 1e-9))


class TestEnumerate:
    def test_identity_radius_one(self):
        g = lattice.validate(np.eye(2), lattice.Mode.PLAIN)
        vecs = lattice.enumerate_below(g, 1.0)
        assert {v.coeffs for v in vecs} == {(1, 0), (0, 1)}

    def test_hexagonal(self):
        g = lattice.validate(HEX, lattice.Mode.PLAIN)
        vecs = lattice.enumerate_below(g, 1.2)
        assert len(vecs) == 3
        for v in vecs:
            assert v.norm_sq == pytest.approx(HEX_MIN, rel=1e-9)

    def test_identity4_radius_two(self):
        g = lattice.validate(np.eye(4), lattice.Mode.PLAIN)
        vecs = lattice.enumerate_below(g, 2.0)
        ones = [v for v in vecs if abs(v.norm_sq - 1.0) < 1e-9]
        twos = [v for v in vecs if abs(v.norm_sq - 2.0) < 1e-9]
        assert len(ones) == 4
        assert len(twos) == 12
        assert len(vecs) == 16

    # the largest float is finite, but its slack-widened radius is not
    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0,
                                        float(np.finfo(float).max)])
    def test_radius_not_positive_and_finite(self, radius):
        g = lattice.validate(np.eye(2), lattice.Mode.PLAIN)
        with pytest.raises(DomainError):
            lattice.enumerate_below(g, radius)

    def test_budget(self, monkeypatch):
        g = lattice.validate(np.eye(6), lattice.Mode.PLAIN)
        monkeypatch.setattr(lattice, "NODE_BUDGET", 10)
        with pytest.raises(BudgetExceeded, match="exceeded 10 nodes"):
            lattice.enumerate_below(g, 50.0)

    @pytest.mark.parametrize("d, nodes", [(2, 4), (3, 8)])
    def test_budget_counts_half_tree_nodes(self, monkeypatch, d, nodes):
        """The identity at radius 1 holds the d unit vectors. The half tree
        tries x[d-1] in {0, 1}, then each lower coordinate in {0, 1} on the
        zero path ({1} at x[0]) and {0} off it: 2 + 1 + 1 nodes at d = 2,
        2 + 2 + 1 + 1 + 1 + 1 at d = 3 (the full ± tree tries 8 and 15)."""
        g = lattice.validate(np.eye(d), lattice.Mode.PLAIN)
        monkeypatch.setattr(lattice, "NODE_BUDGET", nodes)
        vecs = lattice.enumerate_below(g, 1.0)
        assert len(vecs) == d
        monkeypatch.setattr(lattice, "NODE_BUDGET", nodes - 1)
        with pytest.raises(BudgetExceeded):
            lattice.enumerate_below(g, 1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            b = rng.normal(size=(d, d))
            raw = b @ b.T + 0.3 * np.eye(d)
            g = lattice.validate(raw, lattice.Mode.PLAIN)
            m1 = lattice.successive_minima(g, 1).values[0]
            radius = 3.0 * m1
            got = {v.coeffs: v.norm_sq for v in lattice.enumerate_below(g, radius)}
            want = brute_force_below(g.entries, radius)
            assert set(got) == set(want)
            for c in got:
                assert got[c] == pytest.approx(want[c], rel=1e-9)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_unreduced_input_matches_brute_force(self, d):
        """enumerate_below searches the form it is given, without reducing;
        the radius is the shortest basis vector of the unskewed form."""
        rng = np.random.default_rng(300 + d)
        for _ in range(5):
            b = rng.normal(size=(d, d))
            base = b @ b.T + 0.3 * np.eye(d)
            t = random_unimodular(rng, d)
            g = lattice.validate(t.T @ base @ t, lattice.Mode.PLAIN)
            radius = float(np.min(np.diag(base)))
            got = {v.coeffs: v.norm_sq for v in lattice.enumerate_below(g, radius)}
            want = brute_force_below(g.entries, radius)
            assert set(got) == set(want)
            for c in got:
                assert got[c] == pytest.approx(want[c], rel=1e-9)


def _spy_enumerate(monkeypatch):
    """Records (radius, candidate count) of every enumerate_below call."""
    calls = []
    real = lattice.enumerate_below

    def spy(gram, radius_sq, *args, **kwargs):
        vecs = real(gram, radius_sq, *args, **kwargs)
        calls.append((radius_sq, len(vecs)))
        return vecs

    monkeypatch.setattr(lattice, "enumerate_below", spy)
    return calls


def _kth_reduced_diagonal(g, k):
    """b_k^2: the k-th smallest squared column norm of the reduced factor."""
    cols = zip(*lattice.reduce(g).factor)
    return sorted(sum(x * x for x in col) for col in cols)[k - 1]


def _compensated_sum(items, start=0):
    """``sum`` as Python 3.12 and later compute it: ints exactly, floats
    with Neumaier's compensation, so its result differs from a plain
    left-to-right fold in the last bits."""
    items = list(items)
    if all(isinstance(v, int) for v in items):
        return builtins.sum(items, start)
    s, c = float(start), 0.0
    for x in map(float, items):
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c if c else s


class TestSuccessiveMinima:
    def test_identity_all_one(self):
        g = lattice.validate(np.eye(6), lattice.Mode.PLAIN)
        m = lattice.successive_minima(g, 6)
        assert m.values == (1.0,) * 6

    def test_diagonal(self):
        g = lattice.validate(np.diag([0.25, 4.0]), lattice.Mode.PLAIN)
        m = lattice.successive_minima(g, 2)
        assert m.values[0] == pytest.approx(0.25, rel=1e-12)
        assert m.values[1] == pytest.approx(4.0, rel=1e-12)

    def test_hexagonal_witnesses(self):
        g = lattice.validate(HEX, lattice.Mode.PLAIN)
        m = lattice.successive_minima(g, 2)
        assert m.values[0] == pytest.approx(HEX_MIN, rel=1e-9)
        assert m.values[1] == pytest.approx(HEX_MIN, rel=1e-9)
        w = np.array([v.coeffs for v in m.witnesses])
        assert np.linalg.matrix_rank(w) == 2

    def test_values_sorted_and_witness_norms(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(5, 5))
        g = lattice.validate(b @ b.T + 0.4 * np.eye(5), lattice.Mode.PLAIN)
        m = lattice.successive_minima(g, 5)
        assert list(m.values) == sorted(m.values)
        for v in m.witnesses:
            assert v.norm_sq == pytest.approx(g.norm_sq(v.coeffs), rel=1e-9)

    def test_k_range(self):
        g = lattice.validate(np.eye(2), lattice.Mode.PLAIN)
        with pytest.raises(DomainError):
            lattice.successive_minima(g, 3)

    def test_one_round_at_reduced_basis_radius(self, monkeypatch):
        """det-1 B B^T + 0.3 I forms (the exclusion workload's generator) at
        d = 10..20: one enumeration, at most b_k^2, with few candidates."""
        calls = _spy_enumerate(monkeypatch)
        rng = np.random.default_rng(29)
        for i in range(20):
            d = 10 + i % 11
            g = lattice.validate(_random_det_one(rng, d), lattice.Mode.PLAIN)
            calls.clear()
            lattice.successive_minima(g, 2)
            assert len(calls) == 1
            radius, count = calls[0]
            assert radius <= _kth_reduced_diagonal(g, 2)
            assert count <= 50

    def test_doubling_capped_at_reduced_basis_radius(self, monkeypatch):
        """lambda_4 lies above the Minkowski radius, so the radius doubles;
        the oracle runs on the unskewed form (minima are invariant)."""
        rng = np.random.default_rng(31)
        base = np.diag([0.1, 0.1, 10.0, 10.0])
        base[0, 1] = base[1, 0] = 0.03
        t = random_unimodular(rng, 4)
        g = lattice.validate(t.T @ base @ t, lattice.Mode.PLAIN)
        want = brute_force_minima(base, 4)
        assert lattice.minkowski_radius(g) < want[3]
        calls = _spy_enumerate(monkeypatch)
        got = lattice.successive_minima(g, 4).values
        assert len(calls) > 1
        assert all(r <= _kth_reduced_diagonal(g, 4) for r, _ in calls)
        for a, w in zip(got, want):
            assert a == pytest.approx(w, rel=1e-9)

    def test_same_minima_under_compensated_sum(self, monkeypatch):
        """Every float sum in the lattice is a fixed left-to-right fold, so the
        interpreter's ``sum`` (compensated from Python 3.12 on) moves no
        minimum and no witness: seeded skewed forms of d = 2..8 and the E8
        fixture, with ``sum`` replaced by the compensated one."""
        rng = np.random.default_rng(47)
        raws = []
        for i in range(140):
            d = 2 + i % 7
            b = rng.normal(size=(d, d))
            t = random_unimodular(rng, d)
            raws.append(t.T @ (b @ b.T + 0.3 * np.eye(d)) @ t)
        path = Path(__file__).parent / "data" / "e8_skew48_seed39.json"

        def minima():  # factor, reduce and search under the current sum
            grams = [*map(lattice.validate, raws), lattice.load_gram(str(path))]
            return [(m.values, [w.coeffs for w in m.witnesses]) for m in
                    (lattice.successive_minima(g, g.dim) for g in grams)]

        want = minima()
        monkeypatch.setattr(lattice, "sum", _compensated_sum, raising=False)
        assert minima() == want


class TestMinkowski:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_radius_of_scaled_identity(self, d):
        """3 I_d has det 3^d: the radius is 3 (4/pi) Gamma(d/2+1)^(2/d)."""
        g = lattice.validate(3.0 * np.eye(d), lattice.Mode.PLAIN)
        want = 3.0 * 4.0 / math.pi * math.gamma(d / 2.0 + 1.0) ** (2.0 / d)
        assert lattice.minkowski_radius(g) == pytest.approx(want, rel=1e-13)

    def test_radius_of_hexagonal_form(self):
        """The det-1 hexagonal form: (4/pi) Gamma(2) = 4/pi, above its
        minimum 2/sqrt(3)."""
        radius = lattice.minkowski_radius(lattice.validate(HEX))
        assert radius == pytest.approx(4.0 / math.pi, rel=1e-13)
        assert radius > HEX_MIN

    def test_identity_g2(self):
        g = lattice.validate(np.eye(4), lattice.Mode.PPAV)
        m = lattice.successive_minima(g, 4)
        rep = check_minkowski(g, m)
        assert rep["passed"]
        assert rep["sum_log_minima_sq"] == pytest.approx(0.0, abs=1e-12)
        assert rep["slack"] == pytest.approx(2.352552262201852, rel=1e-9)

    def test_hexagonal_pair(self):
        g4 = np.zeros((4, 4))
        g4[:2, :2] = HEX
        g4[2:, 2:] = HEX
        g = lattice.validate(g4, lattice.Mode.PPAV)
        m = lattice.successive_minima(g, 4)
        rep = check_minkowski(g, m)
        assert rep["passed"]
        assert rep["sum_log_minima_sq"] == pytest.approx(
            4.0 * math.log(HEX_MIN), rel=1e-9)

    def test_at_the_ceiling_passes(self):
        """Minima whose log product is the ceiling c itself, bit for bit:
        (1, 1, 1, e^c), and log(e^c) rounds back to c.  The bound is not
        strict, so the check passes with zero slack."""
        g = lattice.validate(np.eye(4), lattice.Mode.PPAV)
        c = bounds.minkowski_product_log_bound(2)
        values = (1.0, 1.0, 1.0, math.exp(c))
        m = lattice.SuccessiveMinima(values, tuple(
            lattice.ShortVector(tuple(int(i == j) for j in range(4)), v)
            for i, v in enumerate(values)))
        rep = check_minkowski(g, m)
        assert (rep["passed"], rep["slack"]) == (True, 0.0)


class TestFileFormats:
    def test_json_roundtrip(self, tmp_path):
        g = lattice.validate(HEX, lattice.Mode.PLAIN)
        text = json.dumps({"dim": g.dim, "mode": g.mode.value,
                           "entries": [v for row in g.entries for v in row]})
        back = lattice.parse_gram_text(text)
        assert np.allclose(back.entries, g.entries, rtol=1e-15)

    def test_plain_text(self, tmp_path):
        p = tmp_path / "gram.txt"
        p.write_text("2  1 0  0 1\n")
        g = lattice.load_gram(str(p))
        assert g.dim == 2

    def test_json_file(self, tmp_path):
        p = tmp_path / "gram.json"
        p.write_text(json.dumps({
            "dim": 2,
            "entries": [1.0, 0.0, 0.0, 1.0],
            "mode": "ppav",
        }))
        g = lattice.load_gram(str(p))
        assert g.mode is lattice.Mode.PPAV

    def test_malformed(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 1 0 0\n")
        with pytest.raises(MalformedGram):
            lattice.load_gram(str(p))

    @pytest.mark.parametrize("entries", [
        "[2.0, 1.0, 1.0, 2.0]", "[2, 1, 1, 2]", "[2.0, 1, 1, 2.0]"])
    def test_json_entries_floats_ints_and_mixed(self, entries):
        g = lattice.parse_gram_text('{"dim": 2, "entries": %s}' % entries)
        assert g.entries == ((2.0, 1.0), (1.0, 2.0))
        assert all(type(v) is float for row in g.entries for v in row)

    @pytest.mark.parametrize("entries, message", [
        ("[1.0, true, 0.0, 1.0]", "expected a number, got True"),
        ('[1.0, "0", 0.0, 1.0]', "expected a number, got '0'"),
        ("[1.0, 1" + "0" * 400 + ", 0.0, 1.0]", "int too large to convert to float"),
        ('"1001"', "expected a number, got '1'"),
        ("5", "'int' object is not iterable"),
    ], ids=["bool", "string", "huge-int", "string-entries", "number-entries"])
    def test_json_entries_rejected_with_message(self, entries, message):
        """A non-float entry goes through ``json_float``, which names the
        first bad entry."""
        with pytest.raises(MalformedGram, match=re.escape(message)):
            lattice.parse_gram_text('{"dim": 2, "entries": %s}' % entries)


class TestProperties:
    def test_hermite_upper_bound_on_ppav(self):
        rng = np.random.default_rng(17)
        from schottky_gauge import bounds
        for _ in range(20):
            raw = _random_det_one(rng, 4)
            g = lattice.validate(raw, lattice.Mode.PPAV)
            m1 = lattice.successive_minima(g, 1).values[0]
            assert m1 <= bounds.hermite_ppav_bounds(2)[1] * (1 + 1e-9)


def _admitted(vecs):
    ech = lattice._Echelon()
    return [ech.admits(v) for v in vecs]


class TestEchelon:
    """The exact independence test that picks successive-minima witnesses."""

    def test_scaled_duplicate_is_dependent(self):
        assert _admitted([(1, 2, 3), (2, 4, 6), (-3, -6, -9)]) == [True, False, False]

    def test_sum_of_stored_rows_is_dependent(self):
        assert _admitted([(1, 0, 2), (0, 3, 1), (1, 3, 3)]) == [True, True, False]

    def test_new_pivot_positions(self):
        # pivots 1 and 2 are stored first; (1, 0, 0) brings pivot 0, and
        # (2, 1, 4) reduces to a row whose first nonzero index is no
        # stored pivot until then
        got = _admitted([(0, 1, 0), (0, 0, 5), (2, 1, 4), (1, 0, 0), (3, -2, 7)])
        assert got == [True, True, True, False, False]
        got = _admitted([(0, 2, 1), (0, 4, 3), (5, 6, 7)])
        assert got == [True, True, True]

    def test_independent_beyond_float_precision(self):
        # equal as float64, independent over the integers
        assert float(10**17) == float(10**17 + 1)
        assert _admitted([(1, 10**17), (1, 10**17 + 1)]) == [True, True]
        assert _admitted([(1, 10**17), (3, 3 * 10**17)]) == [True, False]

    def test_matches_rational_rank(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            vecs = [tuple(int(v) for v in rng.integers(-3, 4, size=d))
                    for _ in range(int(rng.integers(1, d + 3)))]
            vecs = [v for v in vecs if any(v)]
            got = _admitted(vecs)
            for i, ok in enumerate(got):
                kept = [v for v, k in zip(vecs[:i], got) if k]
                assert ok == (len(rational_pivots(kept + [vecs[i]])) > len(kept))

    def test_entries_stay_small(self):
        # full-rank small-integer rows in dimension 16: undivided
        # fraction-free elimination squares the entry size with every row
        # (tens of thousands of bits here)
        rng = np.random.default_rng(43)
        ech = lattice._Echelon()
        for _ in range(16):
            ech.admits(tuple(int(v) for v in rng.integers(-5, 6, size=16)))
        assert len(ech.rows) == 16
        assert max(abs(v).bit_length() for _, row in ech.rows for v in row) < 128


def _random_det_one(rng, d):
    b = rng.normal(size=(d, d))
    raw = b @ b.T + 0.3 * np.eye(d)
    det = np.linalg.det(raw)
    return raw / det ** (1.0 / d)

