"""Lattice engine: validation, reduction, enumeration, successive minima.

The brute-force oracle (``lattice_oracle``) double-checks every operation
that admits exhaustive search.
"""

import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lattice_oracle import brute_force_below, brute_force_minima
from schottky_gauge import bounds, lattice
from schottky_gauge.errors import (
    BudgetExceeded,
    DeterminantNotOne,
    DomainError,
    IncompleteMinima,
    MalformedGram,
    NotPositiveDefinite,
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

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            lattice.validate([[1.0, 2.0], [2.0, 1.0]], lattice.Mode.PLAIN)

    def test_odd_dimension_ppav(self):
        with pytest.raises(OddDimension):
            lattice.validate(np.eye(3), lattice.Mode.PPAV)

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            lattice.validate([[1.0, 0.1], [0.0, 1.0]], lattice.Mode.PLAIN)

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


class TestReduce:
    def test_identity_fixed(self):
        g = lattice.validate(np.eye(4), lattice.Mode.PLAIN)
        red, t = lattice.reduce(g)
        assert np.allclose(red.entries, np.eye(4))
        assert abs(round(np.linalg.det(t))) == 1

    def test_det_preserved_2d(self):
        g = lattice.validate([[4.0, 2.0], [2.0, 4.0]], lattice.Mode.PLAIN)
        red, t = lattice.reduce(g)
        assert red.entries[0][0] <= 4.0 + 1e-9
        assert np.linalg.det(red.entries) == pytest.approx(12.0, rel=1e-9)
        assert np.allclose(np.array(t) @ np.array(g.entries) @ np.array(t).T, red.entries, rtol=1e-9)

    def test_det_preserved_random_6d(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            b = rng.normal(size=(6, 6))
            raw = b @ b.T + 0.5 * np.eye(6)
            g = lattice.validate(raw, lattice.Mode.PLAIN)
            red, t = lattice.reduce(g)
            assert np.linalg.det(red.entries) == pytest.approx(
                np.linalg.det(g.entries), rel=1e-9)
            assert abs(round(np.linalg.det(t))) == 1

    def test_sorted_pivot_start(self):
        """diag(1, s) with s = (255/256)^2 = 0.9922 is LLL-reduced as given
        (s >= 0.99 * 1), so from the given order T = I; the sorted-pivot
        start takes the shorter vector first."""
        s = (255 / 256) ** 2
        red, t = lattice.reduce(lattice.validate(np.diag([1.0, s])))
        assert t == ((0, 1), (1, 0))
        assert red.entries == ((s, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_lll_conditions_on_skewed_forms(self, d):
        """Size reduction and the Lovasz condition (delta = 0.99), read off
        the Cholesky factor L of the reduced form: mu[i, j] = L[i, j] / L[j, j]
        and the squared Gram-Schmidt norms are L[j, j]^2."""
        rng = np.random.default_rng(100 + d)
        for _ in range(30):
            b = rng.normal(size=(d, d))
            t = _random_unimodular(rng, d)
            raw = t.T @ (b @ b.T + 0.3 * np.eye(d)) @ t
            red, _ = lattice.reduce(lattice.validate(raw, lattice.Mode.PLAIN))
            l = np.linalg.cholesky(red.entries)
            diag = np.diag(l)
            for i in range(1, d):
                assert np.all(np.abs(l[i, :i] / diag[:i]) <= 0.5 + 1e-9)
                assert (diag[i] ** 2 + l[i, i - 1] ** 2
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

    def test_budget(self):
        g = lattice.validate(np.eye(6), lattice.Mode.PLAIN)
        with pytest.raises(BudgetExceeded):
            lattice.enumerate_below(g, 50.0, budget=10)

    @pytest.mark.parametrize("d, nodes", [(2, 4), (3, 8)])
    def test_budget_counts_half_tree_nodes(self, d, nodes):
        """The identity at radius 1 holds the d unit vectors. The half tree
        tries x[d-1] in {0, 1}, then each lower coordinate in {0, 1} on the
        zero path ({1} at x[0]) and {0} off it: 2 + 1 + 1 nodes at d = 2,
        2 + 2 + 1 + 1 + 1 + 1 at d = 3 (the full ± tree tries 8 and 15)."""
        g = lattice.validate(np.eye(d), lattice.Mode.PLAIN)
        vecs = lattice.enumerate_below(g, 1.0, budget=nodes)
        assert len(vecs) == d
        with pytest.raises(BudgetExceeded):
            lattice.enumerate_below(g, 1.0, budget=nodes - 1)

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
            t = _random_unimodular(rng, d)
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
    return float(np.sort(np.diag(lattice.reduce(g)[0].entries))[k - 1])


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
        t = _random_unimodular(rng, 4)
        g = lattice.validate(t.T @ base @ t, lattice.Mode.PLAIN)
        want = brute_force_minima(base, 4)
        assert lattice.minkowski_radius(g) < want[3]
        calls = _spy_enumerate(monkeypatch)
        got = lattice.successive_minima(g, 4).values
        assert len(calls) > 1
        assert all(r <= _kth_reduced_diagonal(g, 4) for r, _ in calls)
        for a, w in zip(got, want):
            assert a == pytest.approx(w, rel=1e-9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            d = int(rng.integers(2, 6))
            b = rng.normal(size=(d, d))
            g = lattice.validate(b @ b.T + 0.3 * np.eye(d), lattice.Mode.PLAIN)
            got = lattice.successive_minima(g, d).values
            want = brute_force_minima(g.entries, d)
            for a, w in zip(got, want):
                assert a == pytest.approx(w, rel=1e-9)


class TestMinkowski:
    def test_identity_g2(self):
        g = lattice.validate(np.eye(4), lattice.Mode.PPAV)
        m = lattice.successive_minima(g, 4)
        rep = bounds.check_minkowski(g, m)
        assert rep["passed"]
        assert rep["sum_log_minima_sq"] == pytest.approx(0.0, abs=1e-12)
        assert rep["slack"] == pytest.approx(1.8694233116608715, rel=1e-9)

    def test_hexagonal_pair(self):
        g4 = np.zeros((4, 4))
        g4[:2, :2] = HEX
        g4[2:, 2:] = HEX
        g = lattice.validate(g4, lattice.Mode.PPAV)
        m = lattice.successive_minima(g, 4)
        rep = bounds.check_minkowski(g, m)
        assert rep["passed"]
        assert rep["sum_log_minima_sq"] == pytest.approx(
            4.0 * math.log(HEX_MIN), rel=1e-9)

    def test_requires_all_minima(self):
        g = lattice.validate(np.eye(4), lattice.Mode.PPAV)
        m = lattice.successive_minima(g, 2)
        with pytest.raises(IncompleteMinima):
            bounds.check_minkowski(g, m)

    def test_requires_ppav(self):
        g = lattice.validate(np.eye(4), lattice.Mode.PLAIN)
        m = lattice.successive_minima(g, 4)
        with pytest.raises(DomainError):
            bounds.check_minkowski(g, m)


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
        """Entries that are not all floats take the per-entry path, which
        names the first bad entry."""
        with pytest.raises(MalformedGram, match=re.escape(message)):
            lattice.parse_gram_text('{"dim": 2, "entries": %s}' % entries)


class TestProperties:
    def test_transform_invariance(self):
        rng = np.random.default_rng(5)
        base = np.array([[2.0, 0.4, 0.1], [0.4, 1.5, 0.2], [0.1, 0.2, 3.0]])
        g = lattice.validate(base, lattice.Mode.PLAIN)
        ref = lattice.successive_minima(g, 3).values
        for _ in range(25):
            t = _random_unimodular(rng, 3)
            gt = lattice.validate(t.T @ base @ t, lattice.Mode.PLAIN)
            got = lattice.successive_minima(gt, 3).values
            for a, b in zip(got, ref):
                assert a == pytest.approx(b, rel=1e-9)

    def test_scaling_covariance(self):
        g = lattice.validate(HEX, lattice.Mode.PLAIN)
        ref = lattice.successive_minima(g, 2).values
        for c in (0.25, 2.0, 9.0):
            gc = lattice.validate(c * HEX, lattice.Mode.PLAIN)
            got = lattice.successive_minima(gc, 2).values
            for a, b in zip(got, ref):
                assert a == pytest.approx(c * b, rel=1e-9)

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


def _fraction_rank(vecs):
    """Exact rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(c) for c in v] for v in vecs]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


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
                assert ok == (_fraction_rank(kept + [vecs[i]]) > len(kept))

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


def _random_unimodular(rng, d):
    t = np.eye(d, dtype=np.int64)
    for _ in range(12):
        i, j = rng.integers(0, d, size=2)
        if i == j:
            continue
        t[i] += int(rng.integers(-2, 3)) * t[j]
    return t


def _random_det_one(rng, d):
    b = rng.normal(size=(d, d))
    raw = b @ b.T + 0.3 * np.eye(d)
    det = np.linalg.det(raw)
    return raw / det ** (1.0 / d)
