"""Top-level acceptance suite.

Each test covers one numbered criterion and prints a single summary line.
Randomized criteria use fixed seeds so the suite is reproducible.
"""

import math
import time

import numpy as np
import pytest

from oracles import brute_force_minima, check_minkowski, encloses, random_unimodular
from schottky_gauge import bounds, certify, collar, lattice
from schottky_gauge.errors import DomainError, DeterminantNotOne
from schottky_gauge.interval import IW, IWP, Interval

P = Interval.point


def test_criterion_1_constants():
    t0 = time.monotonic()
    assert IW.mid == pytest.approx(1.3169578969, abs=1e-9)
    assert IWP.mid == pytest.approx(0.8047189562, abs=1e-9)
    coeff_w = 3.0 / (2.0 * math.pi)
    cap_w = collar.capacity(P(1.0), IW)
    assert cap_w.mid == pytest.approx(coeff_w, abs=1e-9)
    assert coeff_w == pytest.approx(0.4774648292, abs=1e-9)
    assert cap_w.hi <= 0.5
    cap_wp = collar.capacity(P(1.0), IWP)
    assert cap_wp.mid == pytest.approx(0.6851871321216385, abs=1e-9)
    assert cap_wp.hi <= 0.7
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"\nACCEPTANCE 1: PASS — W, W', capacity coefficients to 1e-9 "
          f"({dt:.3f}s)")


def test_criterion_2_hyperelliptic_constants():
    t0 = time.monotonic()
    # 2.43829...: agrees with 2.4382 in the first four decimal places
    assert bounds.HYPERELLIPTIC.mid == pytest.approx(2.4382, abs=1e-4)
    assert bounds.BAVARD_LIMIT.mid == pytest.approx(5.1067, abs=5e-5)
    naive = IW * 4.0  # the coarse disk-packing constant 4 arccosh 2
    assert naive.mid == pytest.approx(5.2678, abs=5e-5)
    assert naive.mid == pytest.approx(4.0 * math.acosh(2.0), rel=1e-12)
    assert encloses(naive, 4.0 * math.acosh(2.0))
    dt = time.monotonic() - t0
    assert dt < 1.0
    print(f"\nACCEPTANCE 2: PASS — hyperelliptic / limit / naive constants "
          f"({dt:.3f}s)")


def test_criterion_3_core_certifications():
    t0 = time.monotonic()
    for fam_id in ("CF-A", "CF-B"):
        rep = certify.certify(certify.lookup(fam_id))
        assert rep.status == "Certified", fam_id
        assert rep.min_slack_lo > 0.0
        assert rep.tail_status == "Proven"
        assert rep.g_max == 10**6
    dt = time.monotonic() - t0
    assert dt < 600.0
    print(f"\nACCEPTANCE 3: PASS — CF-A/CF-B certified to g_max=1e6 with "
          f"proven tails ({dt:.1f}s)")


def test_criterion_4_case_constants():
    t0 = time.monotonic()
    g_rep = certify.certify(certify.lookup("CF-G"))
    assert g_rep.status == "Certified"
    # margin of the 0.73075 separation value over the 0.73 constant
    assert 0.0 < g_rep.min_slack_lo < 0.005
    assert g_rep.min_slack_lo == pytest.approx(0.00074563, abs=1e-8)
    for fam_id in ("CF-J", "CF-H"):
        rep = certify.certify(certify.lookup(fam_id))
        assert rep.status == "Certified", fam_id
        assert rep.min_slack_lo > 0.0
    dt = time.monotonic() - t0
    assert dt < 60.0
    print(f"\nACCEPTANCE 4: PASS — CF-G/CF-J/CF-H margins strictly positive "
          f"({dt:.1f}s)")


def test_criterion_5_composite_certifications():
    t0 = time.monotonic()
    for fam_id in ("CF-C", "CF-D", "CF-E", "CF-F"):
        rep = certify.certify(certify.lookup(fam_id))
        assert rep.status == "Certified", fam_id
        assert rep.min_slack_lo > 0.0
        assert rep.tail_status == "Proven"
    dt = time.monotonic() - t0
    assert dt < 900.0
    print(f"\nACCEPTANCE 5: PASS — CF-C/D/E/F certified with proven tails "
          f"({dt:.1f}s)")


def test_criterion_6_lattice_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        b = rng.normal(size=(d, d))
        raw = b @ b.T + 0.3 * np.eye(d)
        gram = lattice.validate(raw, lattice.Mode.PLAIN)
        got = lattice.successive_minima(gram, d)
        want = brute_force_minima(gram.entries, d)
        for a, w in zip(got.values, want):
            assert a == pytest.approx(w, rel=1e-9)
        witness_norms = sorted(v.norm_sq for v in got.witnesses)
        assert witness_norms == pytest.approx(sorted(want), rel=1e-9)
    hexagonal = (2.0 / math.sqrt(3.0)) * np.array([[1.0, 0.5], [0.5, 1.0]])
    gram = lattice.validate(hexagonal, lattice.Mode.PLAIN)
    m = lattice.successive_minima(gram, 2)
    for v in m.values:
        assert v == pytest.approx(1.1547005383793, abs=1e-9)
    dt = time.monotonic() - t0
    assert dt < 120.0
    print(f"\nACCEPTANCE 6: PASS — 50 random Gram matrices match brute force; "
          f"hexagonal minima 2/sqrt(3) ({dt:.1f}s)")


def test_criterion_7_minkowski_compliance():
    t0 = time.monotonic()
    rng = np.random.default_rng(777)
    count = 0
    for d in (4, 6, 8):
        for _ in range(34 if d < 8 else 32):
            b = rng.normal(size=(d, d))
            raw = b @ b.T + 0.3 * np.eye(d)
            raw /= np.linalg.det(raw) ** (1.0 / d)
            gram = lattice.validate(raw, lattice.Mode.PPAV)
            minima = lattice.successive_minima(gram, d)
            rep = check_minkowski(gram, minima)
            assert rep["passed"]
            assert rep["slack"] >= 0.0
            count += 1
    assert count == 100
    dt = time.monotonic() - t0
    assert dt < 600.0
    print(f"\nACCEPTANCE 7: PASS — Minkowski slack nonnegative on 100 random "
          f"det-1 lattices ({dt:.1f}s)")


def test_criterion_8_exclusion_pipeline():
    t0 = time.monotonic()
    gram = lattice.validate(np.eye(4), lattice.Mode.PPAV)
    verdict = bounds.jacobian_exclusion(gram)
    assert verdict.verdict is bounds.Verdict.INCONCLUSIVE
    assert verdict.margin_m1_vs_bs == pytest.approx(
        0.7110042581561341, rel=1e-9)

    hexagonal = (2.0 / math.sqrt(3.0)) * np.array([[1.0, 0.5], [0.5, 1.0]])
    block = np.zeros((4, 4))
    block[:2, :2] = hexagonal
    block[2:, 2:] = hexagonal
    gram = lattice.validate(block, lattice.Mode.PPAV)
    verdict = bounds.jacobian_exclusion(gram)
    assert verdict.verdict is bounds.Verdict.INCONCLUSIVE
    assert verdict.m1_sq == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-9)

    with pytest.raises(DeterminantNotOne):
        lattice.validate(2.0 * np.eye(4), lattice.Mode.PPAV)
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"\nACCEPTANCE 8: PASS — exclusion pipeline margins and rejection "
          f"({dt:.2f}s)")


class TestCriterion9Properties:
    N = 10**4

    def test_hexagon_y1_identity(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < self.N:
            gamma = float(rng.uniform(0.2, 4.0))
            w = float(rng.uniform(0.3, 3.0))
            try:
                nu = collar.pentagon(P(gamma / 2.0), P(w)) * 4.0
            except DomainError:
                continue
            # the Y-piece as a symmetric right-angled hexagon with sides
            # gamma/2, 2w, gamma/2
            a = gamma / 2.0
            rhs = (math.sinh(a) ** 2 * math.cosh(2.0 * w)
                   - math.cosh(a) ** 2)
            hexv = 2.0 * math.acosh(rhs)
            assert nu.mid == pytest.approx(hexv, rel=1e-11)
            checked += 1
        print(f"\nACCEPTANCE 9a: PASS — hexagon/Y1 identity, {checked} cases")

    def test_capacity_monotonicity_and_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(self.N):
            l = float(rng.uniform(0.1, 10.0))
            w = float(rng.uniform(0.1, 10.0))
            d = float(rng.uniform(0.01, 1.0))
            c = float(rng.uniform(0.5, 3.0))
            cap = collar.capacity(P(l), P(w))
            assert collar.capacity(P(l + d), P(w)).lo > cap.hi
            assert collar.capacity(P(l), P(w + d)).hi < cap.lo
            assert collar.capacity(P(c * l), P(w)).mid == pytest.approx(
                c * cap.mid, rel=1e-9)
        print(f"\nACCEPTANCE 9b: PASS — capacity monotone/linear, {self.N} cases")

    def test_transform_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(self.N):
            d = int(rng.integers(2, 5))
            b = rng.normal(size=(d, d))
            raw = b @ b.T + 0.4 * np.eye(d)
            gram = lattice.validate(raw, lattice.Mode.PLAIN)
            ref = lattice.successive_minima(gram, d).values
            t = random_unimodular(rng, d, 6)
            gram_t = lattice.validate(t.T @ raw @ t, lattice.Mode.PLAIN)
            got = lattice.successive_minima(gram_t, d).values
            for a, w in zip(got, ref):
                assert a == pytest.approx(w, rel=1e-9)
        print(f"\nACCEPTANCE 9c: PASS — transform invariance, {self.N} cases")

    def test_scaling_covariance(self):
        rng = np.random.default_rng(4)
        for _ in range(self.N):
            d = int(rng.integers(2, 5))
            b = rng.normal(size=(d, d))
            raw = b @ b.T + 0.4 * np.eye(d)
            c = float(rng.uniform(0.1, 10.0))
            g1 = lattice.validate(raw, lattice.Mode.PLAIN)
            g2 = lattice.validate(c * raw, lattice.Mode.PLAIN)
            v1 = lattice.successive_minima(g1, d).values
            v2 = lattice.successive_minima(g2, d).values
            for a, w in zip(v2, v1):
                assert a == pytest.approx(c * w, rel=1e-9)
        print(f"\nACCEPTANCE 9d: PASS — scaling covariance, {self.N} cases")


def test_criterion_10_scope_note():
    """Existence claims (lattices with second minimum of order g, and the
    matching logarithmic lower bound) require constructions beyond desk
    scale and are deliberately out of scope; the suites above carry the
    acceptance decision."""
    print("\nACCEPTANCE 10: NOTED — existence claims excluded by design")
