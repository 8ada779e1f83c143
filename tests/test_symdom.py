import json
import math
import pickle
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_frozen_value, perfbench_gen
from rigidity import data, symdom
from rigidity.exactpoly import BivariatePolynomial, GaussianRational, RationalPoly, rational_roots
from rigidity.symdom import (
    BoundaryHit,
    BranchPointOnCircle,
    DegenerateAtZero,
    OnOrOutsideBoundary,
    PolynomialMatrixPath,
    PuiseuxError,
    charpoly_path,
    kobayashi_distance_origin,
    monodromy_branch_index,
    monodromy_index,
    newton_puiseux_index,
    operator_norm,
    smoothness_report,
    smoothness_report_from_charpoly,
)


def biv(*rows):
    return BivariatePolynomial(
        [RationalPoly([GaussianRational(str(x)) for x in row]) for row in rows]
    )


def values_at(P, t):
    """The complex values of the y-coefficients of P at t, highest power of
    y first, as np.roots takes them."""
    return [c.eval_complex(t) for c in reversed(P.coeffs)]


SQRT_BRANCH = biv([0, -1], [], [1])                      # y^2 - t
SHIFTED = biv(["1/16"], ["-1/2", -1], [1])               # y^2 - (1/2 + t) y + 1/16
DIAG_PATH = PolynomialMatrixPath([
    [RationalPoly(["1/2", "1/4"]), RationalPoly.zero()],
    [RationalPoly.zero(), RationalPoly(["1/4"])],
])
ANALYTIC = charpoly_path(DIAG_PATH)                      # (y - (1/2 + t/4)^2)(y - 1/16)


# ---------------------------------------------------------------------------
# norms and distance
# ---------------------------------------------------------------------------

def test_operator_norm_examples():
    assert operator_norm(np.diag([0.5, 0.3])) == 0.5
    assert operator_norm(np.zeros((2, 2))) == 0.0
    assert abs(operator_norm(0.7 * np.array([[0, 1], [0, 0]])) - 0.7) < 1e-14


def test_operator_norm_bounds():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        norm = operator_norm(m)
        col = max(np.linalg.norm(m[:, j]) for j in range(4))
        fro = np.linalg.norm(m)
        assert col <= norm + 1e-12
        assert norm <= fro + 1e-12


def test_kobayashi_distance_closed_form():
    assert abs(kobayashi_distance_origin(np.diag([0.5, 0.1])) - 0.5 * math.log(3)) < 1e-12
    assert kobayashi_distance_origin(np.zeros((2, 2))) == 0.0


def test_kobayashi_bidisk_sup_metric():
    for a in np.linspace(0.0, 0.95, 10):
        for b in np.linspace(0.0, 0.95, 10):
            lhs = kobayashi_distance_origin(np.diag([a, b]))
            rhs = max(math.atanh(a), math.atanh(b))
            assert abs(lhs - rhs) < 1e-12


def test_kobayashi_monotone_in_norm():
    values = [kobayashi_distance_origin(np.diag([r, 0.0])) for r in np.linspace(0, 0.95, 25)]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_boundary_rejected():
    with pytest.raises(OnOrOutsideBoundary):
        kobayashi_distance_origin(np.diag([1.0, 0.2]))
    # inside the closed ball, but within the margin of its boundary
    near = np.diag([1.0 - 1e-14, 0.0])
    assert operator_norm(near) < 1.0
    with pytest.raises(OnOrOutsideBoundary):
        kobayashi_distance_origin(near)


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def test_charpoly_diagonal_path():
    sq = RationalPoly(["1/2", "1/4"]) * RationalPoly(["1/2", "1/4"])
    expected = BivariatePolynomial([
        sq * GaussianRational("1/16"),
        (sq + RationalPoly(["1/16"])) * -1,
        RationalPoly.one(),
    ])
    assert ANALYTIC == expected


def test_charpoly_shear_path():
    path = PolynomialMatrixPath([
        [RationalPoly(["1/2"]), RationalPoly([0, 1])],
        [RationalPoly.zero(), RationalPoly(["1/2"])],
    ])
    P = charpoly_path(path)
    expected = BivariatePolynomial([
        RationalPoly(["1/16"]),
        RationalPoly(["-1/2", 0, -1]),
        RationalPoly.one(),
    ])
    assert P == expected
    disc = P.discriminant()
    # vanishes to order 2: t^2 (t^2 + 1) up to a constant
    assert disc.valuation == 2
    assert disc.monic() == RationalPoly([0, 0, 1, 0, 1])


def test_charpoly_antidiagonal_path():
    path = PolynomialMatrixPath([
        [RationalPoly.zero(), RationalPoly(["1/2"])],
        [RationalPoly([0, "1/2"]), RationalPoly.zero()],
    ])
    P = charpoly_path(path)
    expected = BivariatePolynomial([
        RationalPoly([0, 0, "1/16"]),
        RationalPoly(["-1/4", 0, "-1/4"]),
        RationalPoly.one(),
    ])
    assert P == expected


def test_charpoly_conjugation_handles_complex_entries():
    # V = [[0, 1/2 + i t]]: V*V = diag-free 1x... gram = |1/2 + i t|^2 = 1/4 + t^2
    path = PolynomialMatrixPath([[RationalPoly.zero(),
                                  RationalPoly([GaussianRational("1/2"), GaussianRational(0, 1)])]])
    P = charpoly_path(path)
    assert P.degree_y == 2
    assert P.coeffs[1] == RationalPoly(["-1/4", 0, -1])
    assert P.coeffs[0].is_zero


def test_charpoly_numeric_agreement_with_singular_values():
    t0 = 0.25
    for path in (DIAG_PATH,
                 PolynomialMatrixPath([[RationalPoly(["1/2"]), RationalPoly([0, 1])],
                                       [RationalPoly.zero(), RationalPoly(["1/2"])]])):
        P = charpoly_path(path)
        roots = sorted(r.real for r in np.roots(values_at(P, t0)))
        svals = sorted(np.linalg.svd(path.evaluate(t0), compute_uv=False) ** 2)
        assert np.allclose(roots, svals, atol=1e-10)


def _conjugate(poly):
    return RationalPoly([GaussianRational(c.re, -c.im) for c in poly.coeffs])


def _gram_entries(path):
    """Exact entries of V(t)* V(t); conjugating coefficients realizes the
    adjoint for real t."""
    g = []
    for i in range(path.cols):
        row = []
        for j in range(path.cols):
            acc = RationalPoly.zero()
            for r in range(path.rows):
                acc = acc + _conjugate(path.entries[r][i]) * path.entries[r][j]
            row.append(acc)
        g.append(row)
    return g


def _poly_mat_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), RationalPoly.zero())
         for j in range(n)]
        for i in range(n)
    ]


def _newton_charpoly(traces):
    """det(y I - G) from the power traces tr G, ..., tr G^m by Newton's
    identities over the Gaussian rationals."""
    m = len(traces)
    elem = [RationalPoly.one()]
    for k in range(1, m + 1):
        acc = RationalPoly.zero()
        for i in range(1, k + 1):
            acc = acc + elem[k - i] * traces[i - 1] * (-1) ** (i + 1)
        elem.append(acc * Fraction(1, k))
    return BivariatePolynomial([elem[m - k] * (-1) ** (m - k) for k in range(m + 1)])


def fraction_charpoly(path):
    """The reference for charpoly_path: Newton's identities on the power
    traces of the Gram matrix, the last trace paired off from G^(m-1) and G,
    every entry a sum of RationalPoly products."""
    gram = _gram_entries(path)
    m = len(gram)
    powers = [gram]
    for _ in range(m - 2):
        powers.append(_poly_mat_mul(powers[-1], gram))
    traces = [sum((p[i][i] for i in range(m)), RationalPoly.zero()) for p in powers]
    if m > 1:
        traces.append(sum((powers[-1][i][j] * gram[j][i]
                           for i in range(m) for j in range(m)), RationalPoly.zero()))
    return _newton_charpoly(traces)


def full_power_charpoly(path):
    """Newton's identities on the traces of every full power G, ..., G^m of
    the Gram matrix: the reference for charpoly_path, which pairs the last
    power's trace off from G^(m-1) and G."""
    gram = _gram_entries(path)
    m = len(gram)
    powers = [gram]
    for _ in range(m - 1):
        powers.append(_poly_mat_mul(powers[-1], gram))
    traces = [sum((p[i][i] for i in range(m)), RationalPoly.zero()) for p in powers]
    return _newton_charpoly(traces)


def test_charpoly_equals_full_power_traces():
    rnd = random.Random(61)
    paths = [DIAG_PATH] + [data.matrix_path(name) for name in
                           ("diagonal_radial", "escape_diagonal", "shear_mix")]
    for size in (1, 2, 3, 4):
        entries = [[RationalPoly([GaussianRational(Fraction(rnd.randint(-3, 3), 8 * size),
                                                   Fraction(rnd.randint(-3, 3), 8 * size))
                                  for _ in range(3)])
                    for _ in range(size)] for _ in range(size)]
        paths.append(PolynomialMatrixPath(entries))
    for path in paths:
        assert charpoly_path(path) == full_power_charpoly(path)


# |coefficient| <= 1/8 keeps every path with at most 5 rows and 5 columns
# inside the ball at t = 0: its Frobenius norm is below sqrt(50 / 64)
_small = st.fractions(min_value=Fraction(-1, 8), max_value=Fraction(1, 8),
                      max_denominator=64)
_real_entries = st.builds(GaussianRational, _small)
_gaussian_entries = st.builds(GaussianRational, _small, _small)


@st.composite
def _small_paths(draw):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    scalars = draw(st.sampled_from([_real_entries, _gaussian_entries]))
    entry = st.one_of(st.just(RationalPoly.zero()),
                      st.lists(scalars, max_size=3).map(RationalPoly))
    entries = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    if draw(st.booleans()):
        zero_col = draw(st.integers(min_value=0, max_value=cols - 1))
        for row in entries:
            row[zero_col] = RationalPoly.zero()
    return PolynomialMatrixPath(entries)


def _dense_path(size, seed):
    """size x size path of degree 2 with Gaussian entries of denominators 20-40."""
    rnd = random.Random(seed)
    return PolynomialMatrixPath([
        [RationalPoly([GaussianRational(Fraction(rnd.randint(-2, 2), rnd.randint(20, 40)),
                                        Fraction(rnd.randint(-2, 2), rnd.randint(20, 40)))
                       for _ in range(3)])
         for _ in range(size)] for _ in range(size)])


@settings(max_examples=40, deadline=None)
@given(_small_paths())
@example(_dense_path(5, 7))
def test_charpoly_matches_fraction_oracle(path):
    P = charpoly_path(path)
    assert P == fraction_charpoly(path)
    assert P.degree_y == path.cols and P.is_monic
    assert all(c.im == 0 for poly in P.coeffs for c in poly.coeffs)


def test_path_membership_checked_at_zero():
    with pytest.raises(OnOrOutsideBoundary):
        PolynomialMatrixPath([[RationalPoly([1, 1])]])


def test_path_json_round_trip():
    raw = [[[["1/2", "0"], ["1/4", "0"]], [["0", "0"]]],
           [[["0", "0"]], [["1/4", "0"]]]]
    path = PolynomialMatrixPath.from_json(raw)
    assert charpoly_path(path) == ANALYTIC


def test_charpoly_json_reader():
    raw = [[["0", "0"], ["-1", "0"]], [], [["1", "0"]]]
    assert BivariatePolynomial.from_json(raw) == SQRT_BRANCH


# A bare JSON number is read from its digits, as its string spelling is;
# json.load alone rounds the first to 1/4 and the other two to 0.
@pytest.mark.parametrize("literal", ["0.25000000000000000001", "1e-400", "-1e-400"])
def test_bare_numbers_are_read_exactly(tmp_path, literal):
    file = tmp_path / "input.json"
    read = {}
    for spelling in (literal, f'"{literal}"'):
        file.write_text(f'[[[[{spelling}, 0], ["1/4", "0"]]]]')
        entry = PolynomialMatrixPath.from_json(data.read_json(file)).entries[0][0]
        file.write_text(f'[[["-1/4", "0"], [{spelling}, 0]], [], [["1", "0"]]]')
        read[spelling] = entry, BivariatePolynomial.from_json(data.read_json(file))
    assert read[literal] == read[f'"{literal}"']
    entry, charpoly = read[literal]
    assert entry == RationalPoly([Fraction(literal), Fraction(1, 4)])
    assert charpoly.coeffs[0] == RationalPoly([Fraction(-1, 4), Fraction(literal)])


# ---------------------------------------------------------------------------
# newton polygon branch analysis
# ---------------------------------------------------------------------------

def test_puiseux_square_root_branch():
    rep = newton_puiseux_index(SQRT_BRANCH)
    assert rep.K == 2
    assert rep.leading_exponent == Fraction(1, 2)
    assert abs(rep.leading_coefficient - 1.0) < 1e-9


def test_puiseux_shifted_double_root():
    rep = newton_puiseux_index(SHIFTED)
    assert rep.K == 2
    assert rep.leading_exponent == Fraction(1, 2)
    assert abs(rep.leading_coefficient - 0.5) < 1e-9


def test_puiseux_analytic_branch():
    rep = newton_puiseux_index(ANALYTIC)
    assert rep.K == 1
    assert rep.leading_exponent == 1
    assert abs(rep.leading_coefficient - 0.25) < 1e-9


def test_puiseux_constant_top_branch():
    rep = newton_puiseux_index(biv([2], [-3], [1]))  # (y - 1)(y - 2)
    assert rep.K == 1
    assert rep.leading_exponent == 0
    assert rep.leading_coefficient == 0


def test_puiseux_deeper_recursion():
    # (y - t)^2 - t^3: leading term t, splitting at order t^{3/2}
    rep = newton_puiseux_index(biv([0, 0, 1, -1], [0, -2], [1]))
    assert rep.K == 2
    assert rep.leading_exponent == 1
    assert abs(rep.leading_coefficient - 1.0) < 1e-9


def test_puiseux_deeper_recursion_through_negative_coefficient():
    # (y - 5/8 + t/4)^2 - t^3/16: the double edge root at the first level is
    # -1/4, and the exact substitution must keep that sign to reach the
    # t^{3/2} split at the second level
    P = biv(["25/64", "-5/16", "1/16", "-1/16"], ["-5/4", "1/2"], [1])
    rep = newton_puiseux_index(P)
    assert rep.K == 2
    assert rep.leading_exponent == 1
    assert abs(rep.leading_coefficient + 0.25) < 1e-9
    assert monodromy_branch_index(P, 0.01) == 2


def test_puiseux_triple_edge_root_matched_on_squarefree_part():
    # ((y - 5/8 - t/8)^3 - t^4/16)(y - 3/8 - t/16): np.roots places the triple
    # edge root 1/8 of the first level 1.2e-6 away, too far to match it
    # exactly, while the squarefree part of the edge polynomial holds it as a
    # simple root
    P = product_of_factors([("5/8", Fraction(1, 8), 1, 3, Fraction(1, 16), 4),
                            ("3/8", Fraction(1, 16), 1, 1, 0, 1)])
    assert newton_puiseux_index(P).K == 3
    assert monodromy_branch_index(P, 0.005) == 3
    assert smoothness_report_from_charpoly(P, 0.1).K == 3


def test_puiseux_identical_branches_report_common_index():
    rep = newton_puiseux_index(biv([0, 0, 1], [], [0, -2], [], [1]))  # (y^2 - t)^2
    assert rep.K == 2
    assert rep.leading_exponent == Fraction(1, 2)


def test_puiseux_zero_branch_selection():
    rep = newton_puiseux_index(biv([], [0, -1], [1]))  # y (y - t): top is +t
    assert rep.K == 1 and abs(rep.leading_coefficient - 1.0) < 1e-9
    rep = newton_puiseux_index(biv([], [0, 1], [1]))   # y (y + t): top is 0
    assert rep.K == 1 and rep.leading_coefficient == 0


def test_puiseux_degenerate_rejected():
    with pytest.raises(DegenerateAtZero):
        newton_puiseux_index(biv([0, 1], [0, 1]))  # t y + t
    with pytest.raises(ValueError):
        newton_puiseux_index(biv([1], [0, 1], [2]))  # not monic
    with pytest.raises(PuiseuxError):
        newton_puiseux_index(biv([-2], [0], [1]))  # y^2 = 2: irrational top
    # (y - 1/2)(y - 1/4) + i t
    P = BivariatePolynomial([RationalPoly(["1/8", GaussianRational(0, 1)]),
                             RationalPoly(["-3/4"]), RationalPoly.one()])
    with pytest.raises(PuiseuxError, match=re.escape(
            "the coefficient RationalPoly(1/8 + (0+1i)*t^1) of y^0 is not real")):
        newton_puiseux_index(P)
    # ((y - 5/8 - t/8)^2 + 10^-400 t^2)(y - 3/8): the top pair 5/8 + t/8 +-
    # 10^-200 i t is not real, which the exact count of the edge roots tells
    eps = Fraction(1, 10**400)
    P = biv([Fraction(-75, 512), Fraction(-15, 256), -Fraction(3, 512) - 3 * eps / 8],
            [Fraction(55, 64), Fraction(1, 4), Fraction(1, 64) + eps], ["-13/8", "-1/4"], [1])
    with pytest.raises(PuiseuxError, match="no real branch tends to the top eigenvalue"):
        newton_puiseux_index(P)


def test_puiseux_tiny_square_root_branch():
    # y^2 - 10^-400 t: the edge polynomial z - 10^-400 is linear, so its
    # root is exact, and the top branch 10^-200 t^(1/2) is found although
    # 10^-400 underflows to 0 as a float
    rep = newton_puiseux_index(biv([0, "-1e-400"], [], [1]))
    assert (rep.K, rep.leading_exponent) == (2, Fraction(1, 2))
    assert rep.leading_coefficient == 1e-200
    # below the float range the polygon still answers: 10^-400 t^(1/2) has
    # distance index 4, and the top branch 10^-400 t of y (y - 10^-400 t) is
    # positive, above the zero branch, with distance index 2
    rep = newton_puiseux_index(biv([0, "-1e-800"], [], [1]))
    assert (rep.K, rep.leading_exponent, rep.distance_index) == (2, Fraction(1, 2), 4)
    rep = newton_puiseux_index(biv([], [0, "-1e-400"], [1]))
    assert (rep.K, rep.leading_exponent, rep.distance_index) == (1, 1, 2)
    assert rep.leading_coefficient.real > 0
    # (y - 10^-400 t)^2 - t^3: the double edge root 10^-400 is the root of
    # the linear squarefree part, exact without a trial division of 10^400
    eps = Fraction(1, 10**400)
    rep = newton_puiseux_index(biv([0, 0, eps**2, -1], [0, -2 * eps], [1]))
    assert (rep.K, rep.leading_exponent, rep.distance_index) == (2, 1, 2)


def test_puiseux_top_root_at_zero_by_descartes_count():
    # (y - 1)(y^2 - 2) - t: P(0, 1 + y) / y = y^2 + 2y - 1 has one sign
    # change, so a root lies above lambda_0 = 1, and it is irrational
    with pytest.raises(PuiseuxError, match="top eigenvalue at t = 0 is irrational: a root "
                                           "lies above the largest rational one, 1;"):
        newton_puiseux_index(biv([2, -1], [-2], [-1], [1]))
    # (y - 1/2 - t)(y^2 - 2y + 2): P(0, 1/2 + y) / y = y^2 - y + 5/4 has two
    # sign changes, and its roots 1/2 +- i are proved non-real
    rep = newton_puiseux_index(biv([-1, -2], [3, 2], ["-5/2", -1], [1]))
    assert (rep.K, rep.leading_exponent, rep.top_at_zero) == (1, 1, Fraction(1, 2))
    assert abs(rep.leading_coefficient - 1.0) < 1e-9


_TINY = Fraction(1, 10**400)


def _above_top_rational_root(P):
    """P(0, lambda_0 + y) / y**k, lambda_0 the largest rational root of P(0, .)."""
    above = P.shift_y(max(rational_roots(P.at_t_zero()))).at_t_zero()
    return above.shift_down(above.valuation)


def _from_roots(*roots):
    """The monic product of y - r over the roots given."""
    poly = RationalPoly.one()
    for r in roots:
        poly = poly * RationalPoly([-Fraction(r), 1])
    return poly


@pytest.mark.parametrize("poly, expected", [
    *((_above_top_rational_root(data.charpoly(name)), False) for name in data.charpoly_names()),
    (_from_roots(-1, "-5/2"), False),                      # no sign change
    (_from_roots(1, -2, "-1/3"), True),                    # one sign change
    (RationalPoly(["5/4", -1, 1]), False),                 # 1/2 +- i: two changes, no root
    (_from_roots("1/2", 3), True),                         # two changes, two roots
    (_from_roots("1/3", "1/3", -1), True),                 # double root: squarefree part
    (RationalPoly([2, -4, 1]), True),                      # 2 +- sqrt(2)
    (RationalPoly([4, -2, 0, 1]), False),                  # (y + 2)(y^2 - 2y + 2)
    (RationalPoly([1 + _TINY, -2, 1]), False),             # 1 +- 10^-200 i
    (RationalPoly([1 - _TINY, -2, 1]), True),              # 1 +- 10^-200
], ids=[*data.charpoly_names(), "no_sign_change", "odd_count", "complex_pair",
        "two_positive", "double_positive", "irrational_pair", "descartes_overcount",
        "tiny_complex_pair", "tiny_real_pair"])
def test_has_positive_root_above_the_top_rational_root(poly, expected):
    # the check that no eigenvalue at t = 0 lies above lambda_0: an even
    # Descartes count >= 2 is settled on the exactly isolated real roots
    assert poly.has_positive_root() is expected


def test_puiseux_multiple_edge_root_decided_on_its_interval():
    # (y - t/8)^2 (y^2 - 2t^2) + t^5: the top edge root sqrt(2) of
    # (z - 1/8)^2 (z^2 - 2) is simple, next to the double root 1/8
    P = biv([0, 0, 0, 0, "-1/32", 1], [0, 0, 0, "1/2"], [0, 0, "-127/64"], [0, "-1/4"], [1])
    rep = newton_puiseux_index(P)
    assert (rep.K, rep.leading_exponent) == (1, 1)
    assert abs(rep.leading_coefficient - math.sqrt(2)) < 1e-9
    # (y^2 - 2t^2)^2 + t^5: the top edge root sqrt(2) of (z^2 - 2)^2 is double
    with pytest.raises(PuiseuxError, match="multiple edge root is irrational"):
        newton_puiseux_index(biv([0, 0, 0, 0, 4, 1], [], [0, 0, -4], [], [1]))
    # ((y - 1/2 - t/8)^2 - t^3)(y - 1/2 - (1/8 + d) t), d = +-10^-400: the
    # double edge root 1/8 and the simple 1/8 + d give one float c, so only
    # their exact order tells whether the t^(3/2) branch is on top; either
    # way the branch leads with a coefficient that rounds to 1/8
    for d, K in ((_TINY, 1), (-_TINY, 2)):
        P = product_of_factors([("1/2", Fraction(1, 8), 1, 2, Fraction(1), 3),
                                ("1/2", Fraction(1, 8) + d, 1, 1, 0, 1)])
        rep = newton_puiseux_index(P)
        assert (rep.K, rep.leading_exponent, rep.leading_coefficient) == (K, 1, 0.125 + 0j)


def _branch_report():
    return symdom.PuiseuxBranchReport(2, "1/2", 1 + 0j, 0)


# each value is built twice; the repr and hash are those of the frozen
# dataclasses these classes were, which hashed the tuple of their fields.
# Both pickle at protocol 0 too, the charpoly of a SmoothnessReport by its
# __reduce__
REPORTS = {
    "PuiseuxBranchReport": (
        _branch_report, lambda: symdom.PuiseuxBranchReport(2, 1, 1 + 0j, 0),
        "PuiseuxBranchReport(K=2, leading_exponent=Fraction(1, 2), "
        "leading_coefficient=(1+0j), top_at_zero=Fraction(0, 1))", 7152507758869708141,
        (0, pickle.DEFAULT_PROTOCOL)),
    "SmoothnessReport": (
        lambda: symdom.SmoothnessReport(1.5e-08, 0.0625, 0.1, _branch_report(),
                                        data.charpoly("sqrt_branch")),
        lambda: symdom.SmoothnessReport(1.5e-08, 0.0625, 0.2, _branch_report(),
                                        data.charpoly("sqrt_branch")),
        "SmoothnessReport(fit_residual=1.5e-08, naive_residual=0.0625, epsilon=0.1, "
        "branch=PuiseuxBranchReport(K=2, leading_exponent=Fraction(1, 2), "
        "leading_coefficient=(1+0j), top_at_zero=Fraction(0, 1)), "
        "charpoly=BivariatePolynomial((RationalPoly(-1*t^1))*y^0 + (RationalPoly(1))*y^2))",
        4233834404094795573, (0, pickle.DEFAULT_PROTOCOL)),
}


@pytest.mark.parametrize("make, other, text, digest, protocols", REPORTS.values(), ids=REPORTS)
def test_reports_are_frozen_slotted_values(make, other, text, digest, protocols):
    assert_frozen_value(make, other, text, digest, protocols)


def test_branch_report_coerces_and_validates():
    rep = symdom.PuiseuxBranchReport(4, "3/4", -1j, "1/2")
    assert rep.leading_exponent == Fraction(3, 4) and rep.top_at_zero == Fraction(1, 2)
    assert type(rep.top_at_zero) is Fraction and rep.distance_index == 4
    assert (_branch_report().distance_index, REPORTS["SmoothnessReport"][0]().K) == (4, 4)
    with pytest.raises(ValueError, match="branching index must be positive"):
        symdom.PuiseuxBranchReport(0, 0, 0j, 0)
    for K, mu in ((3, "1/2"), (2, -1)):
        with pytest.raises(ValueError, match="leading exponent denominator must divide K"):
            symdom.PuiseuxBranchReport(K, mu, 1 + 0j, 0)


def term_gt(a, b):
    """Whether leading term a = (mu_a, c_a) dominates b at small t > 0: the
    pairwise rule that newton_puiseux_index applied before its sort key.

    mu = None stands for the exactly-zero branch (value identically 0); a
    smaller exponent dominates when its coefficient is positive.
    """
    (mu_a, c_a), (mu_b, c_b) = a, b
    if mu_a is None and mu_b is None:
        return False
    if mu_a is None:
        return c_b < 0
    if mu_b is None:
        return c_a > 0
    if mu_a == mu_b:
        return c_a > c_b
    if mu_a < mu_b:
        return c_a > 0
    return c_b < 0


_terms = st.tuples(
    st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12),
    st.floats(min_value=-4, max_value=4, allow_nan=False).filter(lambda c: c != 0),
)


@settings(max_examples=300, deadline=None)
@given(_terms, _terms, st.booleans())
@example((Fraction(1, 2), 1.0), (Fraction(1, 2), 2.0), True)
@example((Fraction(1, 2), -1.0), (Fraction(1, 3), 1.0), False)
@example((Fraction(1, 2), -1.0), (Fraction(1, 2), -1.0), True)
def test_dominance_key_agrees_with_pairwise_rule(a, b, same_exponent):
    # edge roots are nonzero, so candidate coefficients never vanish
    if same_exponent:
        b = (a[0], b[1])
    key_a, key_b = symdom._dominance_key(a), symdom._dominance_key(b)
    assert (key_a > key_b) == term_gt(a, b)
    assert (key_b > key_a) == term_gt(b, a)
    # the exactly-zero branch wins against a term iff its c <= 0
    assert (not term_gt(a, (None, 0.0))) == (a[1] <= 0)


# ---------------------------------------------------------------------------
# monodromy oracle
# ---------------------------------------------------------------------------

def test_monodromy_examples():
    assert monodromy_branch_index(SQRT_BRANCH, 0.01) == 2
    assert monodromy_branch_index(biv([2], [-3], [1]), 0.1) == 1
    assert monodromy_branch_index(SHIFTED, 0.01) == 2
    assert monodromy_branch_index(ANALYTIC, 0.01) == 1


def test_monodromy_rejects_enclosed_branch_point():
    # y^2 - (t - 1/200) has its only branch point at t = 1/200, inside r=0.01
    with pytest.raises(BranchPointOnCircle):
        monodromy_branch_index(biv(["1/200", -1], [], [1]), 0.01)


def test_monodromy_rejects_repeated_factor():
    with pytest.raises(BranchPointOnCircle):
        monodromy_branch_index(biv([0, 0, 1], [0, -2], [1]), 0.01)  # (y - t)^2


def test_monodromy_rejects_shared_nearest_root(monkeypatch):
    # (y - 100 t)(y - 1) at radius 0.009, inside its branch point t = 1/100:
    # in three steps the root 100 t swings from 0.9 to 0.9 e^{2 pi i / 3},
    # so both roots at step 1 are nearest to the fixed root 1.  The
    # certified tracker instead bisects the steps of its first grid, in
    # which the root moves 0.35, more than the gap 0.1 to the root 1
    solved = recording(monkeypatch, "_roots_at")
    P = biv([0, 100], [-1, -100], [1])
    assert monodromy_branch_index(P, 0.009) == 1
    assert 16 < sum(len(args[1]) for args, _ in solved) <= 256
    with pytest.raises(BranchPointOnCircle, match="nearest root at step 1"):
        loop_track_top_branch(P, 0.009, 3)


def test_monodromy_starts_at_the_largest_real_root():
    # (y - 5/8 + 7t/16)((y - 5/8 + t/4)**2 + 3t/16): at t = radius the pair
    # 5/8 - t/4 +- i sqrt(3t/16) has the largest real part, but the top
    # branch is the real root 5/8 - 7t/16, analytic in t
    P = biv(["-125/512", "255/1024", "-3/32", "7/256"], ["75/64", "-63/64", "9/32"],
            ["-15/8", "15/16"], [1])
    assert newton_puiseux_index(P).K == 1
    assert monodromy_branch_index(P, 0.005) == loop_track_top_branch(P, 0.005, 512) == 1


def test_monodromy_refuses_a_top_branch_it_cannot_prove_real(monkeypatch):
    with pytest.raises(BranchPointOnCircle, match="no root at t = radius is proved real"):
        monodromy_branch_index(biv([1], [], [1]), 0.01)                 # y^2 + 1
    # a non-real coefficient is refused before any point of the circle is solved
    solved = recording(monkeypatch, "_roots_at")
    nonreal = BivariatePolynomial([RationalPoly([GaussianRational(0, "1/4"), -1]),
                                   RationalPoly.zero(), RationalPoly.one()])
    with pytest.raises(BranchPointOnCircle, match="non-real coefficient"):
        monodromy_branch_index(nonreal, 0.01)                           # y^2 - t + i/4
    assert not solved


def test_nearest_match_is_the_optimal_assignment():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(3)
    for m in range(2, 7):
        for _ in range(200):
            roots = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            fresh = rng.permutation(roots + 0.02 * (rng.standard_normal(m)
                                                    + 1j * rng.standard_normal(m)))
            dist = np.abs(roots[:, None] - fresh[None, :])
            try:
                match = nearest_match(roots, fresh, "")
            except BranchPointOnCircle:
                assert len(set(dist.argmin(axis=1))) < m
                continue
            rows, cols = optimize.linear_sum_assignment(dist)
            assert list(rows) == list(range(m))
            assert list(match) == list(cols)


def recording(monkeypatch, name):
    """Replace symdom.<name> by a wrapper that records (args, result)."""
    calls = []
    original = getattr(symdom, name)

    def wrapper(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(symdom, name, wrapper)
    return calls


def assert_rows_equal_np_roots(coeff_rows, root_rows):
    # bit for bit; np.roots may return real zeros, and fewer roots than the
    # row width, which the kernel pads with NaN
    for coeffs, roots in zip(coeff_rows, root_rows):
        expected = np.asarray(np.roots(coeffs), dtype=complex)
        assert roots[:len(expected)].tobytes() == expected.tobytes()
        assert np.isnan(roots[len(expected):]).all()


def test_sampling_root_inputs_equal_fresh_values(monkeypatch):
    # the report's 64 distance samples solve the same floats as evaluating
    # P(t, .) afresh at each sample point
    values = recording(monkeypatch, "_values_at")
    roots = recording(monkeypatch, "_roots_at")
    polys = [data.charpoly(name) for name in data.charpoly_names()]
    polys += [SHIFTED, biv(["1/15", "1/35"], ["-8/15", "-1/7"], [1])]
    for P in polys:
        smoothness_report_from_charpoly(P, 0.1)
        ts = np.linspace(0.0, 0.1, symdom.SMOOTHNESS_SAMPLES)
        coeff_rows = values[-1][1]
        assert values[-1][0][1].tolist() == ts.tolist()
        assert coeff_rows.tolist() == [values_at(P, float(t)) for t in ts]
        assert_rows_equal_np_roots(coeff_rows, roots[-1][1])


COLLISION_TOL = 1e-8  # tracked roots closer than this count as merged


def nearest_match(roots, fresh, where):
    """Index of the nearest fresh root for each root; raises
    BranchPointOnCircle unless that map is a bijection."""
    match = np.argmin(np.abs(roots[:, None] - fresh[None, :]), axis=1)
    if len(set(match.tolist())) < len(match):
        raise BranchPointOnCircle(f"two roots share their nearest root {where}")
    return match


def loop_track_top_branch(P, radius, steps):
    """The fixed-grid reference for the certified tracker: one np.roots call,
    one nearest match and one pairwise collision check per step of a grid
    of the given number of steps on |t| = radius.  It refuses rather than
    guesses when a match is no bijection or two roots come within
    COLLISION_TOL.  The top branch starts at the largest root that np.roots
    of the real coefficients at t = radius returns with imaginary part 0."""
    def roots_at(t):
        return np.roots(values_at(P, t))

    start = roots_at(radius)
    m = len(start)
    if m == 1:
        return 1
    real = np.roots(np.real(values_at(P, radius)))
    real = real[real.imag == 0].real
    if not real.size:
        raise BranchPointOnCircle("no real root at t = radius")
    selected = int(np.argmin(np.abs(start - real.max())))
    current = start.copy()
    for j in range(1, steps + 1):
        t = radius * np.exp(2j * np.pi * j / steps)
        fresh = roots_at(t)
        new = fresh[nearest_match(current, fresh, f"at step {j}")]
        # collision guard: the matching is meaningless if roots merge
        for a in range(m):
            for b in range(a + 1, m):
                if abs(new[a] - new[b]) < COLLISION_TOL:
                    raise BranchPointOnCircle(
                        f"root collision within {COLLISION_TOL} at step {j}"
                    )
        current = new
    perm = nearest_match(current, start, "when closing the loop")
    length = 1
    k = perm[selected]
    while k != selected:
        k = perm[k]
        length += 1
    return length


@pytest.fixture(scope="module")
def oracle_polys():
    """Bundled charpolys, the test polynomials, and two generator rounds each
    of the benchmark's charpoly and path workloads."""
    gen = perfbench_gen()
    polys = [data.charpoly(name) for name in data.charpoly_names()]
    polys += [SQRT_BRANCH, SHIFTED, ANALYTIC, biv([2], [-3], [1]),
              biv([0, 0, 0, 1], [], [], [1]),                  # y^3 + t^3
              biv(["1/3"], ["-1/7", "-2/3"], [1]),
              biv(["1/15", "1/35"], ["-8/15", "-1/7"], [1]),
              biv(["1/200", -1], [], [1]),                     # branch point 1/200
              biv([0, 100], [-1, -100], [1]),                  # branch point 1/100
              biv([0, 0, 1], [0, -2], [1])]                    # (y - t)^2
    rnd = random.Random(11)
    for _ in range(2):
        polys += [item[1] for item in gen.charpoly_round(rnd)]
        polys += [charpoly_path(item[1]) for item in gen.path_round(rnd)]
    return polys


def test_roots_at_equals_np_roots_on_every_row(oracle_polys):
    circle = 0.005 * np.exp(2j * np.pi * np.arange(513) / 512)
    samples = np.linspace(0.0, 0.1, symdom.SMOOTHNESS_SAMPLES)
    for P in oracle_polys:
        for ts in (circle, samples):
            rows = [values_at(P, t) for t in ts.tolist()]
            assert_rows_equal_np_roots(rows, symdom._roots_at(P, ts))


def test_singular_path_rows_equal_np_roots():
    # V(t) has a zero column, so P(t, y) is divisible by y: every row has a
    # zero constant value, which np.roots strips before solving
    path = PolynomialMatrixPath([[RationalPoly(["1/2", "1/4"]), RationalPoly.zero()],
                                 [RationalPoly(["1/8", "1/3"]), RationalPoly.zero()]])
    P = charpoly_path(path)
    assert P.coeffs[0].is_zero
    for ts in (0.005 * np.exp(2j * np.pi * np.arange(513) / 512),
               np.linspace(0.0, 0.1, symdom.SMOOTHNESS_SAMPLES)):
        rows = [values_at(P, t) for t in ts.tolist()]
        assert_rows_equal_np_roots(rows, symdom._roots_at(P, ts))
    assert symdom._track_certified(P, 0.005) == 1
    for steps in (3, 8, 64, 512):
        assert loop_track_top_branch(P, 0.005, steps) == 1
    assert smoothness_report(path, 0.1).K == 1


def test_tracker_rejects_a_step_with_fewer_roots():
    # (t - 1/100) y^2 + y + 1/4: the leading coefficient vanishes at the
    # start t = 1/100, where one root escapes to infinity
    P = biv(["1/4"], [1], ["-1/100", 1])
    assert np.isnan(symdom._roots_at(P, [0.01])).sum() == 1
    with pytest.raises(BranchPointOnCircle, match="cannot separate the roots at step 0 of 16"):
        symdom._track_certified(P, 0.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
def test_non_finite_epsilon_and_radius_rejected(bad):
    with pytest.raises(ValueError, match="epsilon"):
        smoothness_report(DIAG_PATH, bad)
    with pytest.raises(ValueError, match="epsilon"):
        smoothness_report_from_charpoly(SHIFTED, bad)
    with pytest.raises(ValueError, match="epsilon"):
        monodromy_index(SHIFTED, bad)
    with pytest.raises(ValueError, match="radius"):
        monodromy_branch_index(SHIFTED, bad)


def tracking_radius(monkeypatch):
    """monodromy_index with the tracker replaced by the radius it is handed."""
    monkeypatch.setattr(symdom, "_track_certified", lambda P, radius: radius)
    return monodromy_index


def test_monodromy_radius(monkeypatch):
    monodromy_radius = tracking_radius(monkeypatch)
    assert monodromy_radius(SQRT_BRANCH, 0.1) == 0.01
    assert monodromy_radius(SQRT_BRANCH, 0.02) == 0.005
    # y^2 - (t - 1/200): the branch point at 1/200 halves the radius
    assert abs(monodromy_radius(biv(["1/200", -1], [], [1]), 0.1) - 0.0025) < 1e-15


def test_monodromy_index_equals_branch_index_at_its_radius(monkeypatch):
    radii = []
    original = symdom._track_certified

    def recording(P, radius):
        radii.append(radius)
        return original(P, radius)

    monkeypatch.setattr(symdom, "_track_certified", recording)
    polys = [data.charpoly(name) for name in data.charpoly_names()]
    polys += [SQRT_BRANCH, SHIFTED, ANALYTIC, biv([2], [-3], [1]),
              biv([0, 0, 0, 1], [], [], [1]),                  # y^3 + t^3
              biv(["1/200", -1], [], [1]),                     # branch point 1/200
              biv([0, 100], [-1, -100], [1])]                  # branch point 1/100
    # the roots of y^2 - (t - 1/200) are not real at either radius, so
    # both calls refuse it with the same message
    for P in polys:
        for epsilon in (0.1, 0.02):
            k = tracker_outcome(monodromy_index, P, epsilon)
            assert k == tracker_outcome(monodromy_branch_index, P, radii[-1])


def test_monodromy_index_rejects():
    with pytest.raises(ValueError, match="epsilon"):
        monodromy_index(SQRT_BRANCH, 0.0)
    with pytest.raises(BranchPointOnCircle):
        monodromy_index(biv([0, 0, 1], [0, -2], [1]), 0.1)  # (y - t)^2


def test_oracle_agreement_on_bundled_polynomials():
    for name in data.charpoly_names():
        P = data.charpoly(name)
        assert newton_puiseux_index(P).K == monodromy_branch_index(P, 0.005)


def test_oracle_agreement_on_random_quadratics():
    # monic quadratics in y with small integer t-coefficients; radius kept
    # inside the nearest branch point, skipping degenerate draws
    rnd = random.Random(77)
    checked = 0
    while checked < 10:
        b = RationalPoly([rnd.randint(-2, 2), rnd.randint(-2, 2)])
        c = RationalPoly([rnd.randint(-2, 2), rnd.randint(-2, 2), rnd.randint(-2, 2)])
        P = BivariatePolynomial([c, b, RationalPoly.one()])
        try:
            k_polygon = newton_puiseux_index(P).K
            k_loop = monodromy_branch_index(P, 0.003)
        except (PuiseuxError, BranchPointOnCircle, DegenerateAtZero):
            continue
        assert k_polygon == k_loop
        checked += 1


# ---------------------------------------------------------------------------
# certified tracker
# ---------------------------------------------------------------------------

def tracker_outcome(track, *args):
    """K from a tracker, or the message of its BranchPointOnCircle."""
    try:
        return track(*args)
    except BranchPointOnCircle as exc:
        return str(exc)


def test_certified_tracker_equals_fixed_grid(oracle_polys):
    # the certified grid against the 512-step reference at the same radius
    compared = 0
    for P in oracle_polys:
        certified = tracker_outcome(monodromy_branch_index, P, 0.005)
        fixed = tracker_outcome(loop_track_top_branch, P, 0.005, 512)
        if isinstance(certified, int) and isinstance(fixed, int):
            assert certified == fixed
            compared += 1
    assert compared >= len(oracle_polys) - 3


def test_certified_matches_are_optimal_and_inside_their_disks(monkeypatch, oracle_polys):
    # every accepted step: its match is the optimal assignment of the
    # predicted centres z + z' s to the fresh roots, and each fresh root's
    # inclusion disk lies inside its predicted disk of radius rho
    optimize = pytest.importorskip("scipy.optimize")
    original = symdom._certify_steps
    accepted_steps = []

    def checked(points, first, last, step):
        accepted, match = original(points, first, last, step)
        s = (points.t[last] - points.t[first])[:, None]
        centres = points.roots[first] + points.slope[first] * s
        for ok, row, centre, fresh, radii, rho in zip(
                accepted, match, centres, points.roots[last], points.radii[last],
                points.rho[first]):
            if ok:
                dist = np.abs(centre[:, None] - fresh[None, :])
                assert list(row) == list(optimize.linear_sum_assignment(dist)[1])
                assert (dist[np.arange(len(row)), row] + radii[row] < rho).all()
                accepted_steps.append(row)
        return accepted, match

    monkeypatch.setattr(symdom, "_certify_steps", checked)
    tracked = sum(isinstance(tracker_outcome(monodromy_branch_index, P, 0.005), int)
                  for P in oracle_polys)
    assert tracked >= len(oracle_polys) - 3
    assert len(accepted_steps) >= symdom.CERTIFIED_STEPS * tracked


def test_certified_tracker_at_tiny_radii():
    # y^2 - t keeps its roots +-sqrt(t) apart in floating point down to the
    # radius the CLI takes for epsilon = 1e-300
    assert symdom._track_certified(SQRT_BRANCH, 2.5e-301) == 2
    # at radius 1e-20 the roots 1/4 +- sqrt(t)/2 of shifted_double_root are
    # 1e-10 apart, but rounding the coefficients moves them by as much: the
    # tracker must not merge them into one branch
    P = data.charpoly("shifted_double_root")
    for radius in (1e-20, 1e-12, 1e-8):
        try:
            assert monodromy_branch_index(P, radius) == 2
        except BranchPointOnCircle as exc:
            assert re.search(r"step \d+ of \d+", str(exc))


LAMBDAS = ("5/8", "3/8", "1/8", "-1/4")


def factor_terms(lam, b, s, q, a, p):
    """(y - lam - b t**s)**q - a t**p as {(t power, y power): Fraction}, with
    a > 0 for even q so that the factor has real roots for small t > 0."""
    a = abs(a) if q % 2 == 0 else a
    base = {(0, 1): Fraction(1), (0, 0): -Fraction(lam)}
    base[(s, 0)] = base.get((s, 0), 0) - b
    out = {(0, 0): Fraction(1)}
    for _ in range(q):
        out = terms_product(out, base)
    out[(p, 0)] = out.get((p, 0), 0) - a
    return out


def terms_product(x, y):
    out = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return out


def product_of_factors(factors):
    """The product of factor_terms(*factor) over factors as a BivariatePolynomial."""
    terms = {(0, 0): Fraction(1)}
    for factor in factors:
        terms = terms_product(terms, factor_terms(*factor))
    deg_t = max(i for i, _ in terms)
    return BivariatePolynomial([
        RationalPoly([terms.get((i, j), 0) for i in range(deg_t + 1)])
        for j in range(max(j for _, j in terms) + 1)])


_factors = st.tuples(
    st.sampled_from(LAMBDAS),
    st.sampled_from([Fraction(k, 8) for k in range(-2, 3)]),   # b
    st.integers(1, 2),                                          # s
    st.integers(1, 3),                                          # q
    st.sampled_from([Fraction(k, 16) for k in (-3, -2, -1, 1, 2, 3)]),  # a
    st.integers(1, 4),                                          # p
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_factors, min_size=1, max_size=3, unique_by=lambda f: f[0]).filter(
    lambda fs: 2 <= sum(f[3] for f in fs) <= 5))
@example([("5/8", Fraction(1, 8), 1, 2, Fraction(1, 16), 3),
          ("3/8", Fraction(0), 1, 2, Fraction(1, 8), 1)])
@example([("5/8", Fraction(0), 1, 3, Fraction(1, 16), 2),
          ("1/8", Fraction(1, 4), 2, 1, Fraction(-1, 8), 1)])
@example([("3/8", Fraction(-1, 8), 1, 2, Fraction(1, 8), 3),
          ("5/8", Fraction(1, 8), 1, 3, Fraction(-1, 16), 4)])
def test_certified_tracker_on_products_of_branch_factors(factors):
    # products of (y - lam - b t**s)**q - a t**p of y-degree 2 to 5 with
    # distinct lam, so that the top eigenvalue is real for small t > 0, as
    # for the charpoly of a Hermitian path: where no oracle raises, the
    # certified K is the 512-step reference K and the polygon K
    P = product_of_factors(factors)
    try:
        radius = min(0.005, 0.5 * symdom._nearest_branch_point(P))
        polygon = newton_puiseux_index(P).K
        fixed = loop_track_top_branch(P, radius, 512)
        certified = monodromy_branch_index(P, radius)
    except (PuiseuxError, BranchPointOnCircle, DegenerateAtZero):
        return
    assert certified == fixed == polygon


@settings(max_examples=150, deadline=None)
@given(st.lists(_factors, min_size=1, max_size=3, unique_by=lambda f: f[0]).filter(
    lambda fs: 2 <= sum(f[3] for f in fs) <= 5), st.sampled_from([1, _TINY]))
@example([("5/8", Fraction(0), 1, 2, Fraction(1, 16), 1), ("3/8", Fraction(0), 1, 1, 0, 1)],
         _TINY)
@example([("5/8", Fraction(1, 8), 1, 3, Fraction(1, 16), 3), ("1/8", Fraction(0), 1, 1, 0, 1)],
         _TINY)
def test_polygon_index_of_products_of_branch_factors(factors, scale):
    # the top eigenvalue is the branch lam + b t**s + (a t**p)**(1/q) + ... of
    # the factor with the largest lam, and its q conjugates form gcd(q, p)
    # cycles, so K = q / gcd(q, p).  With a scaled by 10**-400, a factor
    # with b != 0 and s q = p has the edge roots b + (a 10**-400)**(1/q) at
    # its first level, q of them within 10**(-400/q) of b, which the exact
    # root count separates
    factors = [(lam, b, s, q, a * scale, p) for lam, b, s, q, a, p in factors]
    _, _, _, q, _, p = max(factors, key=lambda f: Fraction(f[0]))
    assert newton_puiseux_index(product_of_factors(factors)).K == q // math.gcd(q, p)


# ---------------------------------------------------------------------------
# smoothness reports
# ---------------------------------------------------------------------------

def test_smoothness_analytic_diagonal_path():
    rep = smoothness_report(DIAG_PATH, 0.1)
    assert rep.K == 1
    assert rep.fit_residual < 1e-8


def test_smoothness_injected_square_root_case():
    rep = smoothness_report_from_charpoly(SHIFTED, 0.1)
    assert rep.K == 2
    assert rep.fit_residual < 1e-8
    assert rep.naive_residual > 1e-3


def test_smoothness_report_carries_its_branch_and_charpoly():
    rep = smoothness_report(DIAG_PATH, 0.1)
    assert rep.charpoly == ANALYTIC
    assert rep.branch == newton_puiseux_index(ANALYTIC)
    assert rep.branch.top_at_zero == Fraction(1, 4)
    rep = smoothness_report_from_charpoly(SQRT_BRANCH, 0.05)
    assert rep.charpoly is SQRT_BRANCH
    assert (rep.branch.K, rep.branch.top_at_zero, rep.K) == (2, 0, 4)


def test_report_fits_once_at_distance_index_one(monkeypatch):
    # at distance index 1 the fit in t**(1/K) is the naive fit, taken once
    fits = recording(monkeypatch, "_fit_residual")
    for make, indices in ((lambda: smoothness_report(DIAG_PATH, 0.1), [1]),
                          (lambda: smoothness_report_from_charpoly(
                              data.charpoly("analytic_pair"), 0.1), [1]),
                          (lambda: smoothness_report_from_charpoly(
                              data.charpoly("shifted_double_root"), 0.1), [1, 2])):
        fits.clear()
        rep = make()
        assert [args[2] for args, _ in fits] == indices
        assert (rep.naive_residual, rep.fit_residual) == (fits[0][1], fits[-1][1])


@pytest.mark.parametrize("entries, message", [
    ([[RationalPoly.zero(), RationalPoly.zero()], [RationalPoly.zero()]], "ragged entry rows"),
    ([], "path needs at least one entry"),
    ([[], []], "path needs at least one entry"),
], ids=["ragged", "no_rows", "empty_rows"])
def test_path_refuses_a_malformed_matrix(entries, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PolynomialMatrixPath(entries)


def test_smoothness_constant_path():
    path = PolynomialMatrixPath([
        [RationalPoly(["1/2"]), RationalPoly.zero()],
        [RationalPoly.zero(), RationalPoly(["1/4"])],
    ])
    rep = smoothness_report(path, 0.1)
    assert rep.K == 1
    assert rep.fit_residual < 1e-12


def test_smoothness_zero_start_path():
    # V(t) = t diag(1/2, 1/4): vanishing top eigenvalue with even exponent,
    # so the distance is analytic in t despite lam(0) = 0
    path = PolynomialMatrixPath([
        [RationalPoly([0, "1/2"]), RationalPoly.zero()],
        [RationalPoly.zero(), RationalPoly([0, "1/4"])],
    ])
    rep = smoothness_report(path, 0.5)
    assert rep.K == 1
    assert rep.fit_residual < 1e-8


def test_smoothness_quarter_power_case():
    # top eigenvalue t^{1/2} at lam(0) = 0: distance behaves like t^{1/4}
    rep = smoothness_report_from_charpoly(SQRT_BRANCH, 0.05)
    assert rep.K == 4
    assert rep.fit_residual < 1e-8
    assert rep.naive_residual > 1e-3


def test_smoothness_boundary_hit():
    path = PolynomialMatrixPath([
        [RationalPoly(["1/2", 1]), RationalPoly.zero()],
        [RationalPoly.zero(), RationalPoly(["1/4"])],
    ])
    with pytest.raises(BoundaryHit):
        smoothness_report(path, 1.0)


def test_overflowing_samples_keep_the_first_error_in_t_order():
    # the last samples overflow (the entries, degree 2 in t, beyond t ~ 1e154;
    # the charpoly coefficients, degree 4, beyond t ~ 1e77), but the first
    # nonzero sample already leaves the ball: that error is raised
    path = PolynomialMatrixPath([
        [RationalPoly(["1/2", 0, "1/4"]), RationalPoly.zero()],
        [RationalPoly.zero(), RationalPoly(["1/4"])],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for report, P, epsilon, message in (
                (smoothness_report, path, 1e155, "leaves the ball"),
                (smoothness_report_from_charpoly, charpoly_path(path), 1e78,
                 "is not inside the ball")):
            t1 = epsilon / (symdom.SMOOTHNESS_SAMPLES - 1)
            with pytest.raises(BoundaryHit, match=re.escape(f"at t = {t1} {message}")):
                report(P, epsilon)


def test_smoothness_monotone_distance_for_radial_path():
    P = charpoly_path(DIAG_PATH)
    ts = np.linspace(0.0, 0.1, 30)
    ds = [kobayashi_distance_origin(DIAG_PATH.evaluate(float(t))) for t in ts]
    assert all(x <= y + 1e-12 for x, y in zip(ds, ds[1:]))
    assert newton_puiseux_index(P).K == 1
