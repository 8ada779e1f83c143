"""Operator-norm matrix balls and eigenvalue-branch analysis.

A bounded symmetric domain is modelled as the open unit ball of matrices
for the operator norm: ``kobayashi_distance_origin`` takes a matrix and
returns arctanh of its norm, which on diagonal 2x2 matrices degenerates
to the sup of the two one-dimensional factors.

The second half of the module studies how that distance behaves along a
polynomial matrix path V(t): the characteristic polynomial
P(t, y) = det(y I - V(t)* V(t)) is computed exactly, the branch of
eigenvalues carrying the top singular value near t = 0+ is resolved by the
Newton-polygon (Puiseux) iteration, with every root decision made exactly
by :mod:`rigidity.exactpoly`, and an independent numerical monodromy
tracker on a certified adaptive grid around a small circle |t| = r,
starting at the largest root it proves real, double-checks the branching
index.  ``smoothness_report`` certifies that the distance is a smooth
function of t**(1/K) by polynomial fitting in the reparametrized variable.

All objects are immutable and every function is pure.  The sampler
solves all its points in one stacked numpy call, and so does each round
of the monodromy tracker, which bisects only the steps it cannot yet
prove to follow the branches.
"""

import functools
import math
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .exactpoly import (
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
CERTIFIED_STEPS = 16     # first grid of the certified tracker
CERTIFIED_GRID = 4096    # finest grid it may bisect a step down to
_UNIT_ROUNDOFF = 2.0 ** -53
_SLACK = 1.0 + 2.0 ** -40  # covers the few roundings of a bound's last products
_UNDERFLOW = 2.0 ** -1060  # absolute floor of the perturbation bound: covers underflow


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


def kobayashi_distance_origin(matrix):
    """Distance from the base point: (1/2) log((1 + ||V||) / (1 - ||V||)).

    Raises OnOrOutsideBoundary unless ||V|| < 1 - BALL_MARGIN.  Strictly
    increasing in the norm; equal to the sup of the factor distances on
    diagonal matrices.
    """
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
        coefficient pairs in ascending powers of t, each read as by
        RationalPoly.from_json."""
        shape = ("a path must be a list of rows, each a list of entries, "
                 "each a list of [re, im] pairs")
        if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
            raise ValueError(shape)
        return cls([[RationalPoly.from_json(entry, shape) for entry in row] for row in data])

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


class PuiseuxBranchReport(namedtuple(
        "PuiseuxBranchReport", "K leading_exponent leading_coefficient top_at_zero")):
    """Branch data of the top eigenvalue branch at t = 0+.

    ``leading_exponent`` and ``leading_coefficient`` describe the first
    nonconstant term of the branch; both are zero for a constant branch.
    ``top_at_zero`` is the exact top eigenvalue lambda_0 at t = 0.
    """

    __slots__ = ()

    def __new__(cls, K, leading_exponent, leading_coefficient, top_at_zero):
        leading_exponent = Fraction(leading_exponent)
        if K < 1:
            raise ValueError("branching index must be positive")
        if leading_exponent < 0 or K % leading_exponent.denominator:
            raise ValueError("leading exponent denominator must divide K")
        return super().__new__(cls, K, leading_exponent, leading_coefficient,
                               Fraction(top_at_zero))

    @property
    def distance_index(self):
        """Branching index of arctanh(sqrt(top eigenvalue)) in t.

        The square root composes with the Puiseux parameter: with a vanishing
        eigenvalue at t = 0 the leading exponent mu is halved, so the index is
        lcm(denominator(mu/2), K); a positive one keeps K, a constant branch 1.
        """
        if self.leading_exponent == 0:
            return 1
        if self.top_at_zero > 0:
            return self.K
        return math.lcm((self.leading_exponent / 2).denominator, self.K)


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
    hull = _lower_hull([(k, c.valuation) for k, c in enumerate(biv.coeffs) if not c.is_zero])
    edges = []
    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):
        if v2 >= v1:
            continue
        mu = Fraction(v1 - v2, k2 - k1)
        p, q = mu.numerator, mu.denominator
        ecoeffs = [biv.coeffs[k1 + j * q].coeff(v1 - j * p) for j in range((k2 - k1) // q + 1)]
        edges.append((mu, q, p, RationalPoly(ecoeffs)))
    return edges


def _real_branch_candidates(edges):
    """Real leading terms (mu, w, q, p, (lo, hi), gcd, free) at this level:
    c has the sign of w and |c|**q = |w|, the exact midpoint of [lo, hi],
    which holds one root of E; gcd is gcd(E, E'), taken for a nonlinear E
    only, and free the squarefree part E / gcd."""
    out = []
    for mu, q, p, epoly in edges:
        gcd, free = RationalPoly.one(), epoly
        if epoly.degree > 1:
            gcd = epoly.gcd(epoly.derivative())
            free = epoly.divmod(gcd)[0]
        for lo, hi in free.real_root_intervals():
            z = (lo + hi) / 2
            ws = (z,) if q % 2 else (z, -z) if z > 0 else ()
            out += [(mu, w, q, p, (lo, hi), gcd, free) for w in ws]
    return out


def _dominance_key(cand):
    """Sort key of the leading term (mu, w) of a candidate at small t > 0.

    Positive terms beat negative ones; among positive terms the smaller
    exponent mu dominates, among negative ones the larger; at equal mu (one
    q) the larger w, so the larger c, wins.  Edge roots are nonzero.
    """
    mu, w = cand[0], cand[1]
    return (1, -mu, w) if w > 0 else (-1, mu, w)


def newton_puiseux_index(P):
    """Branching index and leading term of the top eigenvalue branch at 0+.

    Runs the Newton-polygon iteration on P(t, lambda_0 + nu), for a monic P
    with real coefficients, where lambda_0 is the largest rational root of
    P(0, .) and no root lies above it (RationalPoly.has_positive_root).
    Each level picks the edge and root whose leading term dominates for
    small positive t, among the real edge roots that real_root_intervals
    isolates exactly; a simple edge root ends the iteration (the branch
    continues with integer exponents from there on), while a multiple root,
    which must be rational, triggers an exact substitution and a deeper
    level.  The branching index K is the product of the edge denominators
    encountered; the reported leading term is the first nonconstant term of
    the branch expansion.  Branches that agree as exact expansions terminate
    through the zero branch and report their common K.
    """
    zero_at_zero = P.at_t_zero()
    if zero_at_zero.is_zero:
        raise DegenerateAtZero("P(0, y) vanishes identically")
    if not P.is_monic:
        raise ValueError("P must be monic in its eigenvalue variable")
    for k, c in enumerate(P.coeffs):
        if not c.is_real:
            raise PuiseuxError(f"the coefficient {c!r} of y^{k} is not real")
    exact = rational_roots(zero_at_zero)
    if not exact:
        raise PuiseuxError("no rational eigenvalue at t = 0; exact shifting "
                           "is unavailable")
    lam0 = max(exact)
    work = P.shift_y(lam0)
    above = work.at_t_zero()
    if above.shift_down(above.valuation).has_positive_root():
        raise PuiseuxError(f"top eigenvalue at t = 0 is irrational: a root lies above "
                           f"the largest rational one, {lam0}; exact shifting is unavailable")

    K = 1
    first = None  # (exponent, coefficient) of the first level's term, the reported one

    for _ in range(64):
        candidates = _real_branch_candidates(_polygon_edges(work))
        has_zero_branch = work.coeffs[0].is_zero
        if not candidates and not has_zero_branch:
            raise PuiseuxError("no real branch tends to the top eigenvalue")
        chosen = max(candidates, key=_dominance_key, default=None)
        if chosen is None or (has_zero_branch and chosen[1] <= 0):
            # the exactly-zero branch dominates: the expansion terminates
            return PuiseuxBranchReport(K, *(first or (0, 0j)), lam0)

        mu, w, q, p, (lo, hi), gcd, free = chosen
        # [lo, hi] holds no other root of E, so the root is multiple iff the
        # radical gcd(free, gcd) of gcd(E, E') changes sign on it
        radical = free.gcd(gcd) if gcd.degree > 0 else gcd
        if radical.sign_at(lo) * radical.sign_at(hi) > 0:
            if first is None:
                # c = 2**k (|w| / 2**(q k))**(1/q), the quotient exact and near 1,
                # so a |w| beyond the float range keeps its digits and c != 0
                k = (abs(w.numerator).bit_length() - w.denominator.bit_length()) // q
                c = max(math.ldexp(float(abs(w) / Fraction(2) ** (q * k)) ** (1 / q), k), 5e-324)
                first = (mu, complex(c if w > 0 else -c))
            return PuiseuxBranchReport(K * q, *first, lam0)

        # multiple root: it must be rational; substitute exactly, with the
        # sign of the candidate, and refine at the next level
        z_exact = lo if lo == hi else next((r for r in rational_roots(gcd) if lo <= r <= hi), None)
        if z_exact is None:
            raise PuiseuxError("multiple edge root is irrational; exact recursion is unavailable")
        root = rational_nth_root(abs(z_exact), q)
        if root is None:
            raise PuiseuxError(f"edge root {z_exact} has no rational {q}-th root; exact "
                               "recursion is unavailable")
        c_exact = root if w > 0 else -root
        work = work.substitute_puiseux(q, p, c_exact)
        K *= q
        first = first or (mu, complex(float(c_exact)))
    raise PuiseuxError("Newton polygon iteration did not terminate")


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
    # np.roots finds none when the leading float coefficients underflow to 0
    return min((abs(b) for b in np.roots(list(reversed(deflated.complex_coeffs())))),
               default=math.inf)


def _values_at(polys, ts):
    """Values of the polynomials at every t of ts, one row per t, equal to
    eval_complex bit for bit: Horner's rule runs in its real and imaginary
    float steps.  Each ends in + coefficient, never -0.0, so re + 1j im is exact."""
    t = np.asarray(ts, dtype=complex)[:, None]
    width = 1 + max(p.degree for p in polys)
    coeffs = np.array([p.complex_coeffs() + [0j] * (width - 1 - p.degree) for p in polys])
    re = im = np.zeros((len(t), len(polys)))
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as float arithmetic is
        for c in coeffs.T[::-1]:
            re, im = re * t.real - im * t.imag + c.real, re * t.imag + im * t.real + c.imag
    return re + 1j * im


def _roots_at(P, ts):
    """Roots of y -> P(t, y) for every t of ts, one row per t, equal bit
    for bit to np.roots of the values c.eval_complex(t) of the coefficients
    c of P, highest power first: one eigvals call solves the companion
    matrices np.roots builds.  np.roots strips zero end coefficients, so
    such rows go through it; short rows end in NaN, and a row with a
    non-finite value (where np.roots raises) is all NaN."""
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


def _inclusion_radii(dist, value, lead):
    """Carstensen's inclusion radii m |W_j| (Numer. Math. 59, 1991) of roots
    z_j of a degree-m P, from dist = |z_j - z_k|, value_j >= |P(z_j)| and
    lead <= |leading coefficient|: W_j = P(z_j) / (lead prod_(k != j) (z_j -
    z_k)).  A connected union of k disks holds exactly k roots."""
    m = dist.shape[-1]
    return (m * _SLACK) * value / (lead * (dist + np.eye(m)).prod(axis=-1))


def _proved_real(roots, radii):
    """Which roots of a polynomial with real coefficients their inclusion
    disks (radii from _inclusion_radii) prove real.  The conjugate of a root
    is a root.  The disk about Re z of radius |Im z| + R holds the root in
    the inclusion disk about z and its conjugate; if it meets no other
    inclusion disk, the two are one root, which is therefore real."""
    with np.errstate(all="ignore"):
        reach = (np.abs(roots.imag) + radii)[:, None] + radii
        apart = np.abs(roots.real[:, None] - roots) > reach * _SLACK
    return (apart | np.eye(len(roots), dtype=bool)).all(axis=1)


def _top_cycle_length(start, radii, perm):
    """Length of the cycle of perm through the top branch at t = radius: the
    largest root of start that its inclusion disk (radius in radii) proves
    real; P(radius, .) has real coefficients."""
    real = _proved_real(start, radii)
    if not real.any():
        raise BranchPointOnCircle("no root at t = radius is proved real")
    selected = int(np.argmax(np.where(real, start.real, -np.inf)))
    length = 1
    k = perm[selected]
    while k != selected:
        k = perm[k]
        length += 1
    return length


def _compose(matches, m):
    """Where each of m roots ends after the step matches, taken in order."""
    tracked = list(range(m))
    for match in matches:
        tracked = [match[k] for k in tracked]
    return tracked


def _powers(x, degree):
    """x**0 .. x**degree along a new first axis, as running products."""
    powers = np.empty((degree + 1,) + np.shape(x), dtype=np.result_type(x))
    powers[0] = 1
    if degree:
        powers[1] = x
    for k in range(1, degree):
        powers[k + 1] = powers[k] * x
    return powers


@functools.cache
def _taylor_layout(degree, m):
    """The parts of _taylor_maps that depend on the degrees alone; ``where``
    reads zeros from a row and column past the ends of the coefficients."""
    top = max(degree, m)
    binom = np.array([[math.comb(r, c) for c in range(top + 1)]
                      for r in range(2 * top + 1)], dtype=float)
    a, b, i, k = np.ix_(*(range(n) for n in (degree + 1, m + 1, degree + 1, m + 1)))
    substitute = binom[np.add.outer(np.arange(m + 1), np.arange(m + 1)), np.arange(m + 1)]
    return SimpleNamespace(
        where=(np.minimum(k + b, m + 1), np.minimum(i + a, degree + 1)),
        weights=binom[i + a, a] * binom[k + b, b], substitute=substitute[:, :, None],
        apart=np.diag(np.full(m, np.inf)))


def _taylor_maps(P, radius):
    """What the certified tracker needs of P once per circle |t| = radius.

    With step the chord of the first grid, which no step of the tracker
    exceeds, and A[k, i] the coefficient of t**i y**k in P, the coefficient
    of s**a u**b in P(t + step s, z + u) is the sum over i, k of
    A[k + b, i + a] binom(i + a, a) binom(k + b, b) step**a t**i z**k:
    ``taylor`` maps the monomials t**i z**k (index i * (m + 1) + k) to
    those coefficients (index a * (m + 1) + b).  The same sum over absolute
    values is |P|(|t| + step s, |z| + u), with |P| the polynomial of the
    |A|; ``scales`` holds its y-coefficients at |t| = radius and radius +
    step.  ``gamma`` bounds the relative rounding of each Taylor
    coefficient, with room to spare, through the predictor substitution
    that follows; ``substitute[e, b]`` is binom(b + e, e) and ``apart`` the
    m x m zero matrix with infinity on its diagonal.
    """
    m = P.degree_y
    degree = max(1, *(c.degree for c in P.coeffs))
    coeffs = np.zeros((m + 2, degree + 2), dtype=complex)
    for k, c in enumerate(P.coeffs):
        coeffs[k, :c.degree + 1] = c.complex_coeffs()
    layout = _taylor_layout(degree, m)
    size = (degree + 1) * (m + 1)
    step = 2 * radius * math.sin(math.pi / CERTIFIED_STEPS) * _SLACK
    moduli = np.array([radius, radius + step]) * (1 + 4 * _UNIT_ROUNDOFF)
    return SimpleNamespace(
        m=m, degree=degree, step=step, substitute=layout.substitute, apart=layout.apart,
        taylor=(coeffs[layout.where] * layout.weights
                * _powers(step, degree)[:, None, None, None]).reshape(size, size),
        scales=(_powers(moduli, degree).T @ np.abs(coeffs[:m + 1, :degree + 1]).T)[:, :, None],
        gamma=4 * (size + 3 * (degree + m) + 8) * _UNIT_ROUNDOFF)


# per-point data of the certified tracker, one row per point; see _circle_points
_CirclePoints = namedtuple("_CirclePoints", "roots radii rho floor slope perturbation t")


def _circle_points(P, maps, ts):
    """What the certified tracker needs of each point t of ts:

    * z, approximate roots of P(t, .) from _roots_at; everything below is
      computed from P at z, so it holds however z was found;
    * R, radii of disks about them that each hold exactly one exact root
      (Weierstrass corrections W with Carstensen's Gerschgorin disks, so
      R = m |W| if the disks are disjoint);
    * rho, a third of each root's distance to the nearest other root;
    * the Rouche floor: a lower bound on |P(t, z + w)| over |w| = rho;
    * z' = -P_t / P_y at (t, z), the predictor of a step;
    * the perturbation bound: coefficients of x, x**2, ... in
      sum |G_ab| x**a rho**b, where G are the Taylor coefficients of
      P(t + step s, z + z' step s + w) - P(t, z + w) in (s, w) and x bounds
      |s|; the s-linear term cancels in complex arithmetic before absolute
      values are taken.

    Each computed value carries a Horner rounding bound: gamma times the
    same sum over absolute values (maps is from _taylor_maps), which for
    P(t, z) is at most |P|(|t|, |z| + rho).  For the G those sums add up to
    |P|(|t| + step x, |z| + |z'| step x + rho) minus |P|(|t|, |z| + rho),
    taken at x = 1 and scaled down linearly in x; _UNDERFLOW covers the
    products that underflow.  A floor that is not positive means the roots
    are not certified apart.  The Taylor arrays run over the roots of all
    points in their last axis.
    """
    m, degree, gamma = maps.m, maps.degree, maps.gamma
    t_powers = _powers(ts, degree)
    roots = _roots_at(P, ts)
    n = len(ts)
    z = roots.ravel()
    monomials = t_powers[:, None, :, None] * _powers(roots, m)
    # taylor[a, b]: coefficient of s**a u**b in P(t + step s, z + u)
    taylor = (maps.taylor @ monomials.reshape(-1, n * m)).reshape(degree + 1, m + 1, n * m)
    dist = np.abs(roots[:, :, None] - roots[:, None, :])
    diagonal = np.arange(m)
    rho = (dist + maps.apart).min(axis=2) / 3
    shift = -taylor[1, 0] / taylor[0, 1]             # z' step
    # |P| at (|t|, |z| + rho) and at (|t| + step, |z| + |z'| step + rho)
    near = np.abs(z) + rho.ravel()
    moduli = np.stack([near, near + np.abs(shift)])
    scale = maps.scales[:, m]
    for k in range(m - 1, -1, -1):
        scale = scale * moduli + maps.scales[:, k]
    low, high = scale
    lead = np.maximum(np.abs(taylor[0, m, ::m]) - gamma * maps.scales[0, m], 0)[:, None]
    value = (np.abs(taylor[0, 0]) + gamma * low).reshape(n, m)
    radii = _inclusion_radii(dist, value, lead)
    # |y - zeta_j| >= rho - R_j and |y - zeta_k| >= |z_j - z_k| - rho - R_k
    factors = dist - rho[:, :, None] - radii[:, None, :]
    factors[:, diagonal, diagonal] = rho - radii
    floor = lead * np.maximum(factors, 0).prod(axis=2) / _SLACK
    # substitute u = z' step s + w: the term s**a u**(b + e) gives
    # binom(b + e, e) (z' step)**e s**(a + e) w**b
    terms = _powers(shift, m)[:, None] * maps.substitute
    g = np.zeros((degree + m + 1, m + 1, n * m), dtype=complex)
    for e in range(m + 1):
        g[e:e + degree + 1, :m + 1 - e] += taylor[:, e:] * terms[e, :m + 1 - e]
    bound = np.abs(g[1:])
    perturbation = bound[:, m]
    flat_rho = rho.ravel()
    for b in range(m - 1, -1, -1):                       # Horner in rho
        perturbation = perturbation * flat_rho + bound[:, b]
    perturbation[0] += gamma * (high - low + gamma * (high + low))
    perturbation += _UNDERFLOW
    return _CirclePoints(roots, radii, rho, floor, (shift / maps.step).reshape(n, m),
                         perturbation.reshape(-1, n, m).swapaxes(0, 1), ts)


def _certify_steps(points, first, last, step):
    """Which steps from the _circle_points rows first to the rows last are
    proved to follow the branches, and the match of each; no step is
    longer than step.

    A step t -> t + s is proved for root z when the perturbation bound at
    x = |s| / step stays below the Rouche floor: then for every |s'| <= |s|
    the disk of radius rho about z + z' s' holds exactly one root of
    P(t + s', .), so the branch through z is the one root in that moving
    disk all along the step.  It is matched to the fresh root whose
    inclusion disk lies inside the predicted disk about z + z' s; the step
    is accepted when every root is proved and the matches form a bijection.
    """
    roots, rho, floor, slope, perturbation, t = (
        a[first] for a in (points.roots, points.rho, points.floor, points.slope,
                           points.perturbation, points.t))
    fresh, fresh_radii = points.roots[last], points.radii[last]
    s = (points.t[last] - t)[:, None]
    x = np.abs(s).max() * (1 + 4 * _UNIT_ROUNDOFF) / step
    change = x ** np.arange(1, perturbation.shape[1] + 1) @ perturbation
    proved = (change * _SLACK < floor).all(axis=1)
    shift = slope * s
    centres = roots + shift
    reach = rho - 4 * _UNIT_ROUNDOFF * (np.abs(roots) + 2 * np.abs(shift))
    inside = (np.abs(fresh[:, None, :] - centres[:, :, None]) + fresh_radii[:, None, :]
              < reach[:, :, None])
    match = inside.argmax(axis=2)
    bijective = (np.sort(match, axis=1) == np.arange(roots.shape[1])).all(axis=1)
    return proved & (inside.sum(axis=2) == 1).all(axis=1) & bijective, match


def _grid_step(position):
    """'k of n' for a point of the certified grid, on the coarsest grid
    holding it."""
    n = max(CERTIFIED_STEPS, CERTIFIED_GRID // math.gcd(position, CERTIFIED_GRID))
    return f"{position * n // CERTIFIED_GRID} of {n}"


def _track_certified(P, radius):
    """Cycle length of the top branch under analytic continuation around 0,
    on a certified adaptive grid.

    One _roots_at call solves a grid of CERTIFIED_STEPS steps on
    |t| = radius, and _certify_steps tests every step; only the steps that
    fail are bisected, each round solving all new midpoints in one stacked
    _roots_at call.  A point whose roots are not certified apart raises
    BranchPointOnCircle at once, and so does a step still unproved at the
    finest grid, CERTIFIED_GRID steps.  The accepted steps' matches follow
    the branches along the polygon through the grid points, which lies
    inside the circle and around 0 alone, so they compose to the
    monodromy permutation.  Returns the cycle length of the branch
    starting at the largest root proved real at t = radius.
    """
    m = P.degree_y
    if m == 1:
        return 1
    if not all(c.is_real for c in P.coeffs):
        raise BranchPointOnCircle("P has a non-real coefficient, so its roots at "
                                  "t = radius cannot be proved real")
    maps = _taylor_maps(P, radius)
    first = np.arange(0, CERTIFIED_GRID, CERTIFIED_GRID // CERTIFIED_STEPS)
    last = first + CERTIFIED_GRID // CERTIFIED_STEPS
    new = first
    points = None
    row = np.empty(CERTIFIED_GRID, dtype=int)        # row of points by grid position
    accepted_first, accepted_match = [], []
    with np.errstate(all="ignore"):
        while len(first):
            batch = _circle_points(P, maps, radius * np.exp(2j * np.pi / CERTIFIED_GRID * new))
            apart = (batch.floor > 0).all(axis=1)
            if not apart.all():
                raise BranchPointOnCircle(
                    f"cannot separate the roots at step {_grid_step(new[~apart].min())}")
            if points is None:
                points = batch
            else:
                points = _CirclePoints(*map(np.concatenate, zip(points, batch)))
            row[new] = np.arange(len(points.t) - len(new), len(points.t))
            accepted, match = _certify_steps(points, row[first], row[last % CERTIFIED_GRID],
                                             maps.step)
            accepted_first.append(first[accepted])
            accepted_match.append(match[accepted])
            first, last = first[~accepted], last[~accepted]
            if len(first) and (last - first).min() == 1:
                raise BranchPointOnCircle(f"cannot certify step "
                                          f"{last[last - first == 1].min()} of {CERTIFIED_GRID}")
            new = (first + last) // 2
            first, last = np.concatenate([first, new]), np.concatenate([new, last])
    order = np.argsort(np.concatenate(accepted_first))
    perm = _compose(np.concatenate(accepted_match)[order].tolist(), m)
    return _top_cycle_length(points.roots[0], points.radii[0], perm)


def monodromy_index(P, epsilon):
    """Monodromy branch index of the top branch around |t| = r, with r the
    least of 0.01, epsilon / 4 and half the nearest nonzero branch point,
    the smallest modulus of np.roots of the exact deflated discriminant: a
    float step, not yet certified.  Tracked on the certified grid."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    radius = min(0.01, epsilon / 4.0, 0.5 * _nearest_branch_point(P))
    return _track_certified(P, radius)


def monodromy_branch_index(P, radius):
    """Monodromy branch index of the top branch around |t| = radius, after
    checking that the smallest modulus of np.roots of the exact deflated
    discriminant exceeds radius (1 + 1e-9): a float step, not yet certified.
    Tracked on the certified grid."""
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    closest = _nearest_branch_point(P)
    if closest <= radius * (1.0 + 1e-9):
        raise BranchPointOnCircle(
            f"branch point at |t| = {closest:.6g} lies within the circle "
            f"of radius {radius}"
        )
    return _track_certified(P, radius)


class SmoothnessReport(namedtuple(
        "SmoothnessReport", "fit_residual naive_residual epsilon branch charpoly")):
    """Fit residuals of the distance on [0, epsilon]; ``branch`` is the
    Puiseux analysis of ``charpoly``, and K its distance-level index."""

    __slots__ = ()

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
    naive = _fit_residual(ts, ds, 1)
    K = branch.distance_index
    return SmoothnessReport(
        fit_residual=naive if K == 1 else _fit_residual(ts, ds, K),
        naive_residual=naive,
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
