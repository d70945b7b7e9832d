"""Extremal lattices through the exclusion pipeline: E8 and BW16; and
Minkowski's second theorem on the det-1 root lattices A2, D4 and E8.

Both are built from exact integer data (Conway & Sloane, *Sphere Packings,
Lattices and Groups*, ch. 4-5) and scaled to determinant 1. They are dense
and full of ties, which is what a reducer or an enumerator can get wrong
and what random forms never exercise.

The verdict reads only the lattice: it is computed from the first two
successive minima of the Gram matrix. Whether these lattices carry a
principal polarization, or are period lattices of any Jacobian, is not
claimed here.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import check_minkowski, skew
from schottky_gauge import bounds, lattice
from schottky_gauge.bounds import Verdict
from schottky_gauge.errors import DeterminantNotOne, NotPositiveDefinite
from schottky_gauge.interval import Interval

# E8 skewed by ``skew`` with 48 steps from random.Random(39): entries up to
# 3.1e7, exact det 1, float Cholesky det 0.99945
E8_SKEW_FILE = Path(__file__).parent / "data" / "e8_skew48_seed39.json"


def _cartan(n, edges):
    """The Cartan matrix of a simply-laced Dynkin diagram: 2 on the
    diagonal, -1 on each edge; its root lattice has minimum 2."""
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def _e8_cartan():
    """Cartan matrix of E8: a chain 0-1-...-6 with node 7 on node 4
    (arms of lengths 4, 2 and 1 from the branch node); det 1, minimum 2."""
    return _cartan(8, [(i, i + 1) for i in range(6)] + [(4, 7)])


def _integer_basis(gens):
    """A basis of the integer row span of ``gens``: per column, Euclid's
    algorithm on the rows leaves one row with a nonzero entry there."""
    rows = [list(v) for v in gens]
    basis = []
    for col in range(len(rows[0])):
        while True:
            live = [r for r in rows if r[col]]
            if len(live) <= 1:
                break
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r[:] = [a - q * b for a, b in zip(r, p)]
        if live:
            basis.append(live[0])
            rows.remove(live[0])
    return basis


def _bw16_gram():
    """Construction B on the Reed-Muller code RM(1,4): the x in Z^16 with
    x mod 2 a codeword and sum(x) = 0 mod 4. Spanned by 2 D16 and the
    codewords themselves (weights 8 and 16); Gram det 2^24, minimum 8."""
    code = [[1] * 16] + [[(p >> i) & 1 for p in range(16)] for i in range(4)]
    d16 = [[2 * ((j == i) - (j == i + 1)) for j in range(16)] for i in range(15)]
    d16.append([4] + [0] * 15)
    b = _integer_basis(d16 + code)
    assert len(b) == 16
    return [[sum(x * y for x, y in zip(u, v)) for v in b] for u in b]


def _det_one(gram, det):
    """The form scaled to determinant 1, validated in PPAV mode (scaling
    by det^(-1/d) rounds every entry when d-th root is irrational)."""
    s = det ** (1.0 / len(gram))
    return lattice.validate([[v / s for v in row] for row in gram],
                            lattice.Mode.PPAV)


# name: integer Gram builder, its determinant, its minimum (m1^2 = m2^2),
# the verdict at det 1, half the kissing number
CASES = {
    "E8": (_e8_cartan, 1, 2, Verdict.INCONCLUSIVE, 120),
    "BW16": (_bw16_gram, 2**24, 8, Verdict.NOT_HYPERELLIPTIC_JACOBIAN, 2160),
}


def _det_one_minimum(name):
    build, det, minimum, _, _ = CASES[name]
    return minimum / det ** (1.0 / len(build()))


@pytest.mark.parametrize("name", CASES)
def test_verdict_and_minima(name):
    build, det, _, verdict, _ = CASES[name]
    v = bounds.jacobian_exclusion(_det_one(build(), det))
    assert v.verdict is verdict
    assert v.m1_sq == pytest.approx(_det_one_minimum(name), rel=1e-9)
    assert v.m2_sq == pytest.approx(_det_one_minimum(name), rel=1e-9)


def test_bw16_lies_in_the_hyperelliptic_band():
    # between the hyperelliptic constant and the genus-8 Buser-Sarnak
    # ceiling (3/pi) log 30, far below the 3.1 log 57 ceiling on m2^2
    m = _det_one_minimum("BW16")
    assert m == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
    g8 = Interval.point(8.0)
    assert bounds.HYPERELLIPTIC.mid < m < bounds.thm_bs_upper(g8).mid
    assert m < bounds.thm_main_m2(g8).mid


@pytest.mark.parametrize("name", CASES)
def test_half_kissing_number_on_reduced_form(name):
    build, det, _, _, half_kissing = CASES[name]
    minimum = _det_one_minimum(name)
    reduced = lattice.reduce(_det_one(build(), det))
    vecs = lattice.enumerate_below(reduced, minimum)
    assert len(vecs) == half_kissing
    assert all(v.norm_sq == pytest.approx(minimum, rel=1e-9) for v in vecs)


@pytest.mark.parametrize("name", CASES)
def test_invariant_under_unimodular_skews(name):
    """On the skewed integer form the minima are exact: every entry and
    every x.G.x is an integer far below 2^53. At det 1 the entries are
    rounded, and float x.G.x on a skewed form loses digits to
    cancellation (up to ~3e-9 relative here), so those minima are held
    to 1e-8; exact norms are ROADMAP item 4."""
    build, det, minimum, verdict, half_kissing = CASES[name]
    rng = random.Random(8 if name == "E8" else 16)
    for _ in range(3):
        skewed = skew(build(), rng)
        plain = lattice.validate(skewed)
        assert lattice.successive_minima(plain, 2).values == (minimum, minimum)
        reduced = lattice.reduce(plain)
        assert len(lattice.enumerate_below(reduced, minimum)) == half_kissing
        v = bounds.jacobian_exclusion(_det_one(skewed, det))
        assert v.verdict is verdict
        assert v.m1_sq == pytest.approx(_det_one_minimum(name), rel=1e-8)
        assert v.m2_sq == pytest.approx(_det_one_minimum(name), rel=1e-8)


def _float_det(gram):
    return math.prod(row[i] for i, row in enumerate(gram.factor)) ** 2


def test_e8_skew_file_is_float_rejected_and_exactly_det_one():
    gram = lattice.load_gram(str(E8_SKEW_FILE))
    assert gram.mode is lattice.Mode.PPAV
    skewed = skew(_e8_cartan(), random.Random(39), 48)
    assert [list(row) for row in gram.entries] == skewed
    assert abs(_float_det(gram) - 1.0) > 1e-4
    assert lattice._exact_det(gram.entries) == 1
    v = bounds.jacobian_exclusion(gram)
    assert v.verdict is Verdict.INCONCLUSIVE
    assert (v.m1_sq, v.m2_sq) == (2.0, 2.0)


def test_float_rejected_e8_skews_validate():
    """48 row operations push the entries of E8's exactly det-1 Cartan
    matrix up to 10^7, and the float Cholesky det then misses 1 by more
    than the 1e-6 tolerance on many seeds. validate decides those by the
    exact det of the entries, so every seed validates in PPAV mode."""
    float_misses = 0
    for seed in range(40):
        skewed = skew(_e8_cartan(), random.Random(seed), 48)
        gram = lattice.validate(skewed, lattice.Mode.PPAV)
        float_misses += abs(_float_det(gram) - 1.0) > 1e-6
        v = bounds.jacobian_exclusion(gram)
        assert v.verdict is Verdict.INCONCLUSIVE
        assert (v.m1_sq, v.m2_sq) == (2.0, 2.0)
    assert float_misses > 0


def test_exact_det_not_one_still_raises():
    # every entry times 1 + 2^-16 is exact in floats (entries < 2^25), so
    # the exact det is (1 + 2^-16)^8, 1.2e-4 above 1
    gram = lattice.load_gram(str(E8_SKEW_FILE))
    s = 1.0 + 2.0 ** -16
    scaled = [[v * s for v in row] for row in gram.entries]
    assert lattice._exact_det(scaled) == Fraction(s) ** 8
    with pytest.raises(DeterminantNotOne):
        lattice.validate(scaled, lattice.Mode.PPAV)


def test_exact_path_rejects_form_float_cholesky_accepts():
    # [[2, b], [b, c]] + I_2: the float factor succeeds, but 2c - b^2, the
    # exact second leading minor, is negative, so the form is indefinite
    b, c = 2.2465396758287683, 2.5234702575364136
    form = [[2.0, b, 0.0, 0.0], [b, c, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    assert 2 * Fraction(c) - Fraction(b) ** 2 < 0
    lattice._cholesky(form)
    with pytest.raises(NotPositiveDefinite):
        lattice._exact_det(form)
    with pytest.raises(NotPositiveDefinite):
        lattice.validate(form, lattice.Mode.PPAV)


# name: Cartan matrix, its determinant. Each root lattice is spanned by
# roots, so all d of its minima are 2, and 2 / det^(1/d) at det 1.
ROOT_LATTICES = {
    "A2": (_cartan(2, [(0, 1)]), 3),
    "D4": (_cartan(4, [(0, 1), (1, 2), (1, 3)]), 4),
    "E8": (_e8_cartan(), 1),
}


@pytest.mark.parametrize("name", ROOT_LATTICES)
def test_minkowski_second_theorem_holds(name):
    """Minkowski's second theorem in dimension 2g: a det-1 lattice's 2g
    squared minima have product at most (4/pi)^(2g) (g!)^2. A2 at det 1
    is the hexagonal lattice (g = 1), whose product 4/3 exceeds 4/pi, the
    ceiling with the exponent g in place of 2g; D4 at det 1 is D4/sqrt 2."""
    cartan, det = ROOT_LATTICES[name]
    d = len(cartan)
    gram = _det_one(cartan, det)
    rep = check_minkowski(gram, lattice.successive_minima(gram, d))
    total = d * math.log(2.0 / det ** (1.0 / d))
    assert rep["sum_log_minima_sq"] == pytest.approx(total, rel=1e-9)
    assert rep["log_bound"] == pytest.approx(
        d * math.log(4.0 / math.pi) + 2.0 * math.lgamma(d // 2 + 1), rel=1e-12)
    assert rep["passed"] and rep["slack"] > 0.0
