"""Operator-norm matrix balls and eigenvalue-branch analysis.

A bounded symmetric domain is modelled as the open unit ball of a matrix
subspace for the operator norm; the distance from the origin is
arctanh of the norm, and on diagonal 2x2 matrices it degenerates to the
sup of the two one-dimensional factors.

The second half of the module studies how that distance behaves along a
polynomial matrix path V(t): the characteristic polynomial
P(t, y) = det(y I - V(t)* V(t)) is computed exactly on Gaussian-integer
numerators over one common denominator (see :mod:`rigidity.exactpoly`),
the branch of eigenvalues carrying the top singular value near t = 0+ is
resolved by the Newton-polygon (Puiseux) iteration, and an independent
numerical monodromy tracker around a small circle |t| = r double-checks
the branching index.  ``smoothness_report`` certifies that the distance
is a smooth function of t**(1/K) by polynomial fitting in the
reparametrized variable.

All objects are immutable and every function is pure; the tracker and
the sampler each solve all their points in one stacked numpy call.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactpoly import (
    BivariatePolynomial,
    RationalPoly,
    gram_charpoly,
    rational_nth_root,
    rational_roots,
)

__all__ = [
    "OnOrOutsideBoundary",
    "DegenerateAtZero",
    "BranchPointOnCircle",
    "BoundaryHit",
    "PuiseuxError",
    "MatrixDomain",
    "MatrixPoint",
    "PolynomialMatrixPath",
    "PuiseuxBranchReport",
    "SmoothnessReport",
    "operator_norm",
    "kobayashi_distance_origin",
    "charpoly_path",
    "newton_puiseux_index",
    "monodromy_index",
    "monodromy_branch_index",
    "smoothness_report",
    "smoothness_report_from_charpoly",
]

BALL_MARGIN = 1e-12
SMOOTHNESS_SAMPLES = 64  # distance samples on [0, epsilon] per report
FIT_DEGREE = 8           # degree of both residual fits
COLLISION_TOL = 1e-8     # tracked roots closer than this count as merged
MONODROMY_STEPS = 512    # steps around the tracking circle


class OnOrOutsideBoundary(ValueError):
    """Raised when a matrix is not strictly inside the operator-norm ball."""


class DegenerateAtZero(ValueError):
    """Raised when P(0, y) vanishes identically."""


class BranchPointOnCircle(ValueError):
    """Raised when monodromy tracking meets or encloses an extra branch point."""


class BoundaryHit(ValueError):
    """Raised when a sampled path point leaves the open ball."""


class PuiseuxError(ValueError):
    """Raised when branch data falls outside the exactly solvable cases."""


def operator_norm(matrix):
    """Largest singular value (the norm as an operator between l2 spaces)."""
    return float(np.linalg.norm(np.asarray(matrix, dtype=complex), 2))


@dataclass(frozen=True)
class MatrixDomain:
    """Matrix realization of a domain: the unit norm ball of a subspace."""

    rows: int
    cols: int
    basis: tuple

    def __post_init__(self):
        basis = tuple(np.asarray(b, dtype=complex) for b in self.basis)
        if not basis:
            raise ValueError("need at least one basis matrix")
        for b in basis:
            if b.shape != (self.rows, self.cols):
                raise ValueError(f"basis matrix of shape {b.shape}, expected "
                                 f"({self.rows}, {self.cols})")
        stacked = np.stack([b.ravel() for b in basis])
        if np.linalg.matrix_rank(stacked, tol=1e-10) != len(basis):
            raise ValueError("basis matrices are linearly dependent")
        object.__setattr__(self, "basis", basis)

    @property
    def dimension(self):
        return len(self.basis)

    def coefficients_of(self, matrix):
        """Least-squares coordinates of a matrix in the basis; raises if the
        matrix is not in the span."""
        m = np.asarray(matrix, dtype=complex).ravel()
        stacked = np.stack([b.ravel() for b in self.basis]).T
        coeffs, *_ = np.linalg.lstsq(stacked, m, rcond=None)
        if np.linalg.norm(stacked @ coeffs - m) > 1e-9 * max(1.0, np.linalg.norm(m)):
            raise ValueError("matrix does not lie in the domain subspace")
        return coeffs

    def point(self, matrix):
        return MatrixPoint(matrix, domain=self)

    @classmethod
    def bidisk(cls):
        """Diagonal 2x2 matrices: the product of two disks."""
        e11 = np.array([[1, 0], [0, 0]], dtype=complex)
        e22 = np.array([[0, 0], [0, 1]], dtype=complex)
        return cls(2, 2, (e11, e22))


@dataclass(frozen=True)
class MatrixPoint:
    """Point of a matrix ball: a matrix of operator norm strictly below one."""

    matrix: np.ndarray
    domain: MatrixDomain = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        norm = operator_norm(m)
        if norm > 1.0 - BALL_MARGIN:
            raise OnOrOutsideBoundary(f"operator norm {norm} is not inside the ball")
        if self.domain is not None:
            self.domain.coefficients_of(m)

    @property
    def norm(self):
        return operator_norm(self.matrix)


def kobayashi_distance_origin(point):
    """Distance from the base point: (1/2) log((1 + ||V||) / (1 - ||V||)).

    Accepts a MatrixPoint or a raw matrix.  Strictly increasing in the norm;
    equal to the sup of the factor distances on diagonal matrices.
    """
    matrix = point.matrix if isinstance(point, MatrixPoint) else point
    norm = operator_norm(matrix)
    if norm > 1.0 - BALL_MARGIN:
        raise OnOrOutsideBoundary(f"operator norm {norm} is not inside the ball")
    return 0.5 * math.log((1.0 + norm) / (1.0 - norm))


class PolynomialMatrixPath:
    """Matrix whose entries are exact polynomials in one real parameter t."""

    def __init__(self, entries):
        rows = []
        width = None
        for row in entries:
            row = tuple(e if isinstance(e, RationalPoly) else RationalPoly(e) for e in row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged entry rows")
            rows.append(row)
        if not rows or width == 0:
            raise ValueError("path needs at least one entry")
        self.entries = tuple(rows)
        self.rows = len(rows)
        self.cols = width
        start_norm = operator_norm(self.evaluate(0.0))
        if start_norm > 1.0 - BALL_MARGIN:
            raise OnOrOutsideBoundary(
                f"operator norm {start_norm} at t = 0 is not inside the ball"
            )

    @classmethod
    def from_json(cls, data):
        """Nested lists: rows of entries, each entry a list of [re, im]
        coefficient pairs in ascending powers of t, as exact decimal or
        fraction strings."""
        return cls([[RationalPoly.from_json(entry) for entry in row] for row in data])

    def evaluate(self, t):
        """V(t) as a complex matrix, or one per t for an array of t."""
        t = np.asarray(t)
        values = _values_at([e for row in self.entries for e in row], t.ravel())
        return values.reshape(t.shape + (self.rows, self.cols))

    def __repr__(self):
        return f"PolynomialMatrixPath({self.rows}x{self.cols})"


def charpoly_path(path):
    """Characteristic polynomial det(y I - V(t)* V(t)) with exact arithmetic.

    Computed by exactpoly.gram_charpoly on Gaussian integers, so every
    coefficient is an exact real polynomial in t.  The result is monic in y
    of degree equal to the number of columns.
    """
    return gram_charpoly(path.entries)


@dataclass(frozen=True)
class PuiseuxBranchReport:
    """Branch data of the top eigenvalue branch at t = 0+.

    ``leading_exponent`` and ``leading_coefficient`` describe the first
    nonconstant term of the branch; both are zero for a constant branch.
    ``top_at_zero`` is the exact top eigenvalue lambda_0 at t = 0.
    """

    K: int
    leading_exponent: Fraction
    leading_coefficient: complex
    top_at_zero: Fraction

    def __post_init__(self):
        object.__setattr__(self, "leading_exponent", Fraction(self.leading_exponent))
        object.__setattr__(self, "top_at_zero", Fraction(self.top_at_zero))
        if self.K < 1:
            raise ValueError("branching index must be positive")
        if self.leading_exponent < 0 or self.K % self.leading_exponent.denominator:
            raise ValueError("leading exponent denominator must divide K")

    @property
    def distance_index(self):
        """Branching index of arctanh(sqrt(top eigenvalue)) in t.

        The square root composes with the Puiseux parameter: with a vanishing
        eigenvalue at t = 0 the leading exponent mu is halved, so the index
        becomes lcm(denominator(mu/2), K); a positive eigenvalue keeps K.
        """
        if self.leading_coefficient == 0:
            return 1
        if self.top_at_zero > 0:
            return self.K
        return math.lcm((self.leading_exponent / 2).denominator, self.K)


def _exact_top_root_at_zero(poly):
    """Largest real root of an exact univariate polynomial, as a Fraction.

    Rational roots are found and divided out exactly; the remaining factor
    is inspected numerically.  The top root must be rational for the polygon
    iteration to shift exactly, so a larger irrational real root raises
    PuiseuxError.  (Numeric multiple roots split by roughly machine-epsilon
    to the power 1/multiplicity, hence the loose realness threshold on the
    deflated factor.)
    """
    exact = rational_roots(poly)
    if not exact:
        raise PuiseuxError("no rational eigenvalue at t = 0; exact shifting "
                           "is unavailable")
    top_rational = max(exact)
    residual = poly
    for r in exact:
        factor = RationalPoly([-r, 1])
        while True:
            quot, rem = residual.divmod(factor)
            if residual.degree >= 1 and rem.is_zero:
                residual = quot
            else:
                break
    if residual.degree >= 1:
        leftover = np.roots(list(reversed(residual.complex_coeffs())))
        for z in leftover:
            if abs(z.imag) < 1e-4 and z.real > float(top_rational) + 1e-9:
                raise PuiseuxError(
                    f"top eigenvalue near {z.real!r} at t = 0 is irrational; "
                    "exact shifting is unavailable"
                )
    return top_rational


def _lower_hull(points):
    """Lower convex hull of integer points sorted by first coordinate."""
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _polygon_edges(biv):
    """Negative-slope edges of the Newton polygon of P(t, y) at the origin.

    Each edge is returned as (mu, q, p, E) with slope -mu = -p/q in lowest
    terms and E the polynomial whose roots z determine the leading
    coefficients c through c**q = z.
    """
    points = []
    for k, ck in enumerate(biv.coeffs):
        if not ck.is_zero:
            points.append((k, ck.valuation))
    hull = _lower_hull(points)
    edges = []
    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):
        if v2 >= v1:
            continue
        mu = Fraction(v1 - v2, k2 - k1)
        p, q = mu.numerator, mu.denominator
        ecoeffs = []
        for j in range((k2 - k1) // q + 1):
            k = k1 + j * q
            v = v1 - j * p
            ecoeffs.append(biv.coeffs[k].coeff(v) if k < len(biv.coeffs) else 0)
        edges.append((mu, q, p, RationalPoly(ecoeffs)))
    return edges


def _real_branch_candidates(edges):
    """Real leading terms (mu, c, q, E, z0) available at this polygon level."""
    out = []
    for mu, q, p, epoly in edges:
        for z in np.roots(list(reversed(epoly.complex_coeffs()))):
            # multiple real roots split into conjugate pairs of spurious
            # width ~ eps**(1/multiplicity); exact gcd logic sorts the
            # multiplicities out later, so be generous here
            if abs(z.imag) > 1e-5 * max(1.0, abs(z)):
                continue  # genuinely complex: never carries the top real value
            z0 = z.real
            if q % 2 == 1:
                out.append((mu, math.copysign(abs(z0) ** (1.0 / q), z0), q, p, epoly, z0))
            elif z0 > 0:
                root = z0 ** (1.0 / q)
                out.append((mu, root, q, p, epoly, z0))
                out.append((mu, -root, q, p, epoly, z0))
    return out


def _dominance_key(cand):
    """Sort key of the leading term (mu, c) of a candidate at small t > 0.

    Positive terms beat negative ones; among positive terms the smaller
    exponent mu dominates, among negative ones the larger; at equal mu the
    larger c wins.  Edge roots are nonzero, so c never vanishes.
    """
    mu, c = cand[0], cand[1]
    return (1, -mu, c) if c > 0 else (-1, mu, c)


def newton_puiseux_index(P):
    """Branching index and leading term of the top eigenvalue branch at 0+.

    Runs the Newton-polygon iteration on P(t, lambda_0 + nu) where lambda_0
    is the largest eigenvalue at t = 0.  Each level picks the edge and root
    whose leading term dominates for small positive t; a simple edge root
    ends the iteration (the branch continues with integer exponents from
    there on), while a multiple root triggers an exact substitution and a
    deeper level.  The branching index K is the product of the edge
    denominators encountered; the reported leading term is the first
    nonconstant term of the branch expansion.  Branches that agree as exact
    expansions terminate through the zero branch and report their common K.
    """
    zero_at_zero = P.at_t_zero()
    if zero_at_zero.is_zero:
        raise DegenerateAtZero("P(0, y) vanishes identically")
    if not P.is_monic:
        raise ValueError("P must be monic in its eigenvalue variable")
    lam0 = _exact_top_root_at_zero(zero_at_zero)
    work = P.shift_y(lam0)

    K = 1
    denom = 1             # product of the q's applied so far
    offset = Fraction(0)  # accumulated exponent of the terms already fixed
    first_term = None     # (exponent, coefficient) of first nonconstant term

    for _ in range(64):
        candidates = list(_real_branch_candidates(_polygon_edges(work)))
        has_zero_branch = work.coeffs[0].is_zero
        if not candidates and not has_zero_branch:
            raise PuiseuxError("no real branch tends to the top eigenvalue")
        chosen = max(candidates, key=_dominance_key, default=None)
        if chosen is None or (has_zero_branch and chosen[1] <= 0):
            # the exactly-zero branch dominates: the expansion terminates
            if first_term is None:
                return PuiseuxBranchReport(K, Fraction(0), 0j, lam0)
            return PuiseuxBranchReport(K, first_term[0], first_term[1], lam0)

        mu, c_float, q, p, epoly, z0 = chosen
        exponent_global = offset + Fraction(p, q * denom)

        gcd_poly = epoly.monic().gcd(epoly.derivative())
        scale = max(abs(co) for co in epoly.complex_coeffs())
        is_multiple = (
            gcd_poly.degree > 0
            and abs(gcd_poly.eval_complex(z0)) < 1e-6 * max(1.0, scale)
        )

        if not is_multiple:
            K *= q
            if first_term is None:
                first_term = (exponent_global, complex(c_float))
            return PuiseuxBranchReport(K, first_term[0], first_term[1], lam0)

        # multiple root: substitute exactly and refine at the next level
        z_exact = _match_rational_root(gcd_poly, z0)
        c_exact = _exact_branch_coefficient(z_exact, q, c_float)
        work = work.substitute_puiseux(q, p, c_exact)
        K *= q
        denom *= q
        offset += Fraction(p, denom)
        if first_term is None and c_exact != 0:
            first_term = (exponent_global, complex(float(c_exact)))
    raise PuiseuxError("Newton polygon iteration did not terminate")


def _match_rational_root(gcd_poly, z0):
    roots = rational_roots(gcd_poly)
    matches = [r for r in roots if abs(float(r) - z0) < 1e-6]
    if not matches:
        raise PuiseuxError(
            f"multiple edge root near {z0!r} is not rational; exact recursion "
            "is unavailable"
        )
    return min(matches, key=lambda r: abs(float(r) - z0))


def _exact_branch_coefficient(z_exact, q, c_float):
    root = rational_nth_root(z_exact, q)
    if root is None:
        raise PuiseuxError(
            f"edge root {z_exact} has no rational {q}-th root; exact recursion "
            "is unavailable"
        )
    # for odd q the root already carries the sign of z_exact, so only the
    # magnitude is taken from it and the sign from the numerical candidate
    return abs(root) if c_float >= 0 else -abs(root)


def _nearest_branch_point(P):
    """Smallest modulus of a numeric nonzero root of the discriminant (inf if
    there is none), with the exact t**m factor stripped first so that
    spurious near-zero clusters cannot appear."""
    disc = P.discriminant()
    if disc.is_zero:
        raise BranchPointOnCircle(
            "discriminant vanishes identically (repeated eigenvalue branch)"
        )
    deflated = disc.shift_down(disc.valuation)
    if deflated.degree == 0:
        return math.inf
    return min(abs(b) for b in np.roots(list(reversed(deflated.complex_coeffs()))))


def _values_at(polys, ts):
    """Values of the polynomials at every t of ts, one row per t, equal to
    eval_complex bit for bit: Horner's rule runs in its real and imaginary
    float steps.  Each ends in + coefficient, never -0.0, so re + 1j im is exact."""
    t = np.asarray(ts, dtype=complex)[:, None]
    width = max(len(p.num) for p in polys)
    coeffs = np.array([p.complex_coeffs() + [0j] * (width - len(p.num)) for p in polys])
    re = im = np.zeros((len(t), len(polys)))
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float arithmetic is
        for c in coeffs.T[::-1]:
            re, im = re * t.real - im * t.imag + c.real, re * t.imag + im * t.real + c.imag
    return re + 1j * im


def _roots_at(P, ts):
    """Roots of y -> P(t, y) for every t of ts, one row per t, equal to
    np.roots(list(reversed(P.eval_t(t)))) bit for bit: one eigvals call
    solves the companion matrices np.roots builds.  np.roots strips zero end
    coefficients, so such rows go through it; short rows end in NaN, and a
    row with a non-finite value (where np.roots raises) is all NaN."""
    coeffs = _values_at(P.coeffs[::-1], ts)
    m = P.degree_y
    roots = np.full((len(coeffs), m), np.nan, dtype=complex)
    finite = np.isfinite(coeffs).all(axis=1)
    plain = finite & (coeffs[:, 0] != 0) & (coeffs[:, -1] != 0)
    companion = np.zeros((np.count_nonzero(plain), m, m), dtype=complex)
    companion[:, 0, :] = -coeffs[plain, 1:] / coeffs[plain, :1]
    companion[:, np.arange(1, m), np.arange(m - 1)] = 1
    roots[plain] = np.linalg.eigvals(companion)
    for i in np.flatnonzero(finite & ~plain):
        row = np.roots(coeffs[i])
        roots[i, :len(row)] = row
    return roots


def _nearest_match(roots, fresh, where):
    """Index of the nearest fresh root for each root; raises
    BranchPointOnCircle unless that map is a bijection."""
    match = np.argmin(np.abs(roots[:, None] - fresh[None, :]), axis=1)
    if len(set(match.tolist())) < len(match):
        raise BranchPointOnCircle(f"two roots share their nearest root {where}")
    return match


def _track_top_branch(P, radius, steps):
    """Cycle length of the top branch under analytic continuation around 0.

    One _roots_at call solves all steps on |t| = radius; each tracked root
    moves to its nearest root at the next step, which does not depend on
    the order of the roots, so one argmin matches every step.  The first
    step whose match is no bijection, or whose roots come within
    COLLISION_TOL, raises BranchPointOnCircle.  A bijective nearest match
    is an optimal assignment: every permutation costs at least the sum of
    the row minima of the distance matrix, and this one attains it
    (uniquely if each row minimum is unique).  Returns the cycle length of
    the branch starting at the root with the largest real part at t = radius.
    """
    roots = _roots_at(P, radius * np.exp(1j * (2 * np.pi * np.arange(steps + 1) / steps)))
    m = roots.shape[1]
    nearest = np.argmin(np.abs(roots[:-1, :, None] - roots[1:, None, :]), axis=2)
    short = np.isnan(roots).any(axis=1)
    shared = short[:-1] | short[1:] | (np.sort(nearest, axis=1) != np.arange(m)).any(axis=1)
    gaps = np.abs(roots[1:, :, None] - roots[1:, None, :]) + np.diag([np.inf] * m)
    failed = np.flatnonzero(shared | (gaps < COLLISION_TOL).any(axis=(1, 2)))
    if failed.size:
        j = int(failed[0])
        if shared[j]:
            raise BranchPointOnCircle(f"two roots share their nearest root at step {j + 1}")
        raise BranchPointOnCircle(f"root collision within {COLLISION_TOL} at step {j + 1}")
    tracked = list(range(m))
    for match in nearest.tolist():
        tracked = [match[k] for k in tracked]
    # match the final configuration back to the start to read the permutation
    perm = _nearest_match(roots[-1][tracked], roots[0], "when closing the loop")
    selected = int(np.lexsort((-roots[0].imag, -roots[0].real))[0])
    # cycle length through the selected branch
    length = 1
    k = perm[selected]
    while k != selected:
        k = perm[k]
        length += 1
    return length


def monodromy_index(P, epsilon):
    """Monodromy branch index of the top branch around |t| = r, with r the
    least of 0.01, epsilon / 4 and half the nearest nonzero branch point:
    one exact discriminant picks r, and by construction the circle encloses
    and touches no branch point other than 0."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    radius = min(0.01, epsilon / 4.0, 0.5 * _nearest_branch_point(P))
    return _track_top_branch(P, radius, MONODROMY_STEPS)


def monodromy_branch_index(P, radius, steps=MONODROMY_STEPS):
    """Monodromy branch index of the top branch around |t| = radius, after
    checking through the exact discriminant that the circle encloses and
    touches no branch point other than 0."""
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if P.degree_y < 1:
        raise ValueError("P must depend on the eigenvalue variable")
    closest = _nearest_branch_point(P)
    if closest <= radius * (1.0 + 1e-9):
        raise BranchPointOnCircle(
            f"branch point at |t| = {closest:.6g} lies within the circle "
            f"of radius {radius}"
        )
    return _track_top_branch(P, radius, steps)


@dataclass(frozen=True)
class SmoothnessReport:
    """Fit residuals of the distance on [0, epsilon]; ``branch`` is the
    Puiseux analysis of ``charpoly``, and K its distance-level index."""

    fit_residual: float
    naive_residual: float
    epsilon: float
    branch: PuiseuxBranchReport
    charpoly: BivariatePolynomial

    @property
    def K(self):
        return self.branch.distance_index


def _fit_residual(ts, ds, K):
    us = np.power(ts, 1.0 / K)
    u_scale = us[-1] if us[-1] > 0 else 1.0
    coeffs = np.polyfit(us / u_scale, ds, FIT_DEGREE)
    return float(np.max(np.abs(np.polyval(coeffs, us / u_scale) - ds)))


def _sample_and_fit(P, epsilon, norms_at, boundary):
    """Report for the norms norms_at(ts) (NaN: no real eigenvalue) sampled on
    [0, epsilon], checked in t order, with K from the Puiseux analysis of
    the exact characteristic polynomial P; boundary formats BoundaryHit."""
    branch = newton_puiseux_index(P)
    ts = np.linspace(0.0, epsilon, SMOOTHNESS_SAMPLES)
    ds = []
    for t, norm in zip(ts.tolist(), norms_at(ts).tolist()):
        if math.isnan(norm):
            raise PuiseuxError(f"no real eigenvalue at t = {t}")
        if norm > 1.0 - BALL_MARGIN:
            raise BoundaryHit(boundary.format(norm=norm, t=t))
        ds.append(math.atanh(norm))
    return SmoothnessReport(
        fit_residual=_fit_residual(ts, ds, branch.distance_index),
        naive_residual=_fit_residual(ts, ds, 1),
        epsilon=float(epsilon),
        branch=branch,
        charpoly=P,
    )


def smoothness_report_from_charpoly(P, epsilon):
    """Smoothness certificate computed from a characteristic polynomial.

    Samples d(t) = arctanh(sqrt(top eigenvalue)) at ``SMOOTHNESS_SAMPLES``
    points of [0, epsilon], fits a polynomial of degree ``FIT_DEGREE`` in
    u = t**(1/K) with K from the polygon analysis, and reports the maximal
    sample residual together with the residual of the naive fit in t itself.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")

    def norms_at(ts):
        roots = _roots_at(P, ts)
        real = np.where(np.abs(roots.imag) < 1e-7, roots.real, np.nan)
        return np.sqrt(np.maximum(np.fmax.reduce(real, axis=1), 0.0))

    return _sample_and_fit(P, epsilon, norms_at,
                           "norm {norm} at t = {t} is not inside the ball")


def smoothness_report(path, epsilon):
    """Smoothness certificate for the distance along a polynomial path.

    The branching index comes from the exact characteristic polynomial; the
    distance samples come directly from the singular values of V(t).  Raises
    BoundaryHit when any sample leaves the open ball.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")

    def norms_at(ts):
        return np.linalg.svd(path.evaluate(ts), compute_uv=False).max(axis=1)

    return _sample_and_fit(charpoly_path(path), epsilon, norms_at,
                           "operator norm {norm} at t = {t} leaves the ball")
