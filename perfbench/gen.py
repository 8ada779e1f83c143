"""Seeded input generators for the four benchmark workloads.

Every generator takes a ``random.Random`` and returns plain inputs for the
package's public API.  The structure of each round (sizes, matrix shapes,
denominators, factor shapes) is fixed per slot; the seed draws the values
inside each slot (gluings, numerators, denominators from the slot's set,
roots, coefficients) and the order of the slots.  A round therefore costs
about the same on every seed, which keeps the per-second rates steady, while
no two seeds feed the program the same inputs.
"""

import math
from fractions import Fraction

from rigidity import data, flatsurf, symdom
from rigidity.exactpoly import BivariatePolynomial, GaussianRational, RationalPoly

# -- flat_census ------------------------------------------------------------

# (origami, length bound L).  The census costs about n * L**3, so large L
# goes with small n; every slot costs 0.1-0.6 s at the seed commit, and the
# two costliest (n = 2 at L = 40, n = 3 at L = 35) hold the tail percentile
# op of a run.
CENSUS_BUNDLED = [("torus", 40), ("cylinder_pair", 40), ("l_shape_3", 35),
                  ("stair_4", 25), ("cross_5", 20), ("grid_3x2_6", 20)]
CENSUS_RANDOM = [(8, 20), (12, 15), (20, 15), (30, 12), (45, 10), (60, 10)]
CENSUS_TINY = [("torus", 4), ("l_shape_3", 3)]
CENSUS_RANDOM_TINY = [(5, 3)]
# cylinder decompositions run in every primitive direction of length <= this
CYLINDER_DIRECTION_BOUND = 3
PROFILE_SAMPLES = 360


def random_origami(rnd, n):
    """Uniformly shuffled gluings, redrawn until the surface is connected."""
    while True:
        h = list(range(1, n + 1))
        v = list(range(1, n + 1))
        rnd.shuffle(h)
        rnd.shuffle(v)
        try:
            return flatsurf.build_origami(n, h, v)
        except flatsurf.NonTransitive:
            continue


def census_round(rnd, tiny=False):
    """One round of flat_census inputs: [(label, origami, L)]."""
    bundled = CENSUS_TINY if tiny else CENSUS_BUNDLED
    generated = CENSUS_RANDOM_TINY if tiny else CENSUS_RANDOM
    items = [(f"{name}/L{L}", data.origami(name), L) for name, L in bundled]
    items += [(f"random{n}/L{L}", random_origami(rnd, n), L) for n, L in generated]
    rnd.shuffle(items)
    return items


def primitive_count(L):
    """#{v in Z^2 primitive, |v| <= L}, counted directly over the disk."""
    L2 = L * L
    r = math.isqrt(L2)
    return sum(
        1
        for p in range(-r, r + 1)
        for q in range(-r, r + 1)
        if p * p + q * q <= L2 and math.gcd(p, q) == 1
    )


def upper_directions(bound):
    """Primitive (p, q) with q > 0, or (1, 0), and p*p + q*q <= bound**2."""
    out = [(1, 0)]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if p * p + q * q <= bound * bound and math.gcd(p, q) == 1:
                out.append((p, q))
    return out


# -- branch_paths -----------------------------------------------------------

# (size n, degree in t, Gaussian entries?, denominator, generic V(0)?)
# A diagonal V(0) has the fixed moduli below, so P(0, y) and the cost of
# finding its rational roots are the same on every seed; the seed draws the
# phases on the diagonal, the order of the moduli, and the numerators of
# every other coefficient.  A generic V(0) has irrational eigenvalues and is
# refused today with PuiseuxError.  Left out, because one op's cost spreads
# too widely for a steady rate in one run: 4x4 paths of degree 2 (4-6 s,
# +-25 %) and generic 4x4 paths (trial division in rational_roots, 0.1-2.5 s).
PATH_SLOTS = [
    # cheap, mid and heavy ops, 4 : 3 : 3, so that the median op and the
    # tail percentile op of a run each fall inside one class
    (2, 2, False, 8, False),
    (2, 2, True, 16, False),
    (3, 2, True, 4, True),
    (3, 1, True, 4, True),
    (3, 2, False, 8, False),
    (3, 2, True, 8, False),
    (3, 2, False, 16, False),
    (4, 1, False, 8, False),
    (4, 1, True, 8, False),
    (4, 1, False, 16, False),
]
PATH_SLOTS_TINY = [(2, 1, False, 4, False), (2, 1, True, 4, True)]
DIAGONAL_MODULI = {2: (8, 4), 3: (8, 6, 4), 4: (8, 6, 4, 2)}  # over 16
PHASES = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
          GaussianRational(0, -1))


def _nonzero_fraction(rnd, den):
    return Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)), den)


def random_path(rnd, n, degree, gaussian, den, generic):
    """V(t) = V0 + t V1 + ... with dense nonzero coefficients over ``den``.

    V0 is diagonal with the moduli of DIAGONAL_MODULI (in random order and
    with random phases) unless ``generic``, in which case every entry of V0
    is a random fraction over 4 * den.  The path is inside the ball on
    [0, 0.1].
    """
    moduli = rnd.sample(DIAGONAL_MODULI[n], n)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = []
            for k in range(degree + 1):
                if k == 0 and not generic:
                    phase = rnd.choice(PHASES if gaussian else PHASES[:2])
                    coeffs.append(phase * Fraction(moduli[i], 16) if i == j else 0)
                    continue
                d = 4 * den if k == 0 else den
                re = _nonzero_fraction(rnd, d)
                im = _nonzero_fraction(rnd, d) if gaussian else 0
                coeffs.append(GaussianRational(re, im))
            row.append(RationalPoly(coeffs))
        rows.append(row)
    return symdom.PolynomialMatrixPath(rows)


def path_round(rnd, tiny=False):
    """One round of branch_paths inputs: [(label, path, generic)]."""
    items = []
    for n, degree, gaussian, den, generic in (PATH_SLOTS_TINY if tiny else PATH_SLOTS):
        label = (f"{'generic' if generic else 'diag'}{n}x{n}/deg{degree}/"
                 f"{'gauss' if gaussian else 'real'}/den{den}")
        items.append((label, random_path(rnd, n, degree, gaussian, den, generic), generic))
    rnd.shuffle(items)
    return items


# sampling interval [0, epsilon] of the smoothness stages: the CLI default
BRANCH_EPSILON = 0.1


# -- puiseux_charpolys ------------------------------------------------------

# Each slot is (factor shapes, unsupported today); the first factor carries
# the top eigenvalue.  A factor is (y - lam - b t**s)**q - a t**p with
# gcd(p, q) = 1, so its q roots form one cycle around t = 0 and K = q.  A
# shape is (q, p, s, sign of b); with b != 0 and s*q < p the polygon first
# meets the q-fold root (z - b)**q and needs a second level.
#
# The seed code refuses three of the slots with PuiseuxError:
# * a lone triple root at t = 0: smoothness_report_from_charpoly finds no
#   root with |imag| < 1e-7 among the split numeric roots at t = 0;
# * a second level reached through a negative b: _exact_branch_coefficient
#   flips the sign of an odd root that is already negative;
# * a triple edge root (z - b)**3: its numeric roots miss b by more than the
#   1e-6 that _match_rational_root allows.
# The two products of quadratics are the costliest slots (about 0.7 s) and
# hold the tail percentile op of a run.
CHARPOLY_SLOTS = [
    ([(1, 1, 1, 0), (1, 2, 1, 0)], False),
    ([(2, 1, 1, 0)], False),
    ([(2, 3, 1, 1)], False),
    ([(2, 1, 1, 0), (1, 1, 1, 0)], False),
    ([(2, 3, 1, 1), (2, 1, 1, 0)], False),
    ([(2, 1, 1, 0), (2, 3, 1, 1)], False),
    ([(3, 1, 1, 0), (1, 1, 1, 0)], False),
    ([(3, 2, 1, 0), (1, 2, 1, 0)], False),
    ([(1, 1, 1, 0), (3, 1, 1, 0)], False),
    ([(3, 1, 1, 0)], True),
    ([(2, 3, 1, -1)], True),
    ([(3, 4, 1, 1), (1, 1, 1, 0)], True),
]
CHARPOLY_SLOTS_TINY = [([(2, 1, 1, 0)], False), ([(3, 1, 1, 0)], True)]
# (K of the top branch, K of the distance) of each bundled charpoly, from
# its closed form; sqrt_branch has top eigenvalue 0 at t = 0, and the
# square root in the distance doubles its index
BUNDLED_CHARPOLY_K = {"sqrt_branch": (2, 4), "shifted_double_root": (2, 2),
                      "analytic_pair": (1, 1)}
CHARPOLY_EPSILON = 0.1
# Eigenvalues of the factors at t = 0, top first: fixed, so P(0, y) and the
# cost of its rational roots are the same on every seed.  With |a| <= 3/16
# and |b| <= 1/4 the top eigenvalue stays below 1 on [0, 0.1].
EIGENVALUES_AT_ZERO = (Fraction(5, 8), Fraction(3, 8))


def _poly_mul(a, b):
    """Product of dense polynomials in (t, y) stored as {(i, j): Fraction}."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def _factor(lam, b, s, q, a, p):
    """(y - lam - b t**s)**q - a t**p as {(t power, y power): Fraction}."""
    base = {(0, 1): Fraction(1), (0, 0): -lam}
    if b:
        base[(s, 0)] = -b
    out = {(0, 0): Fraction(1)}
    for _ in range(q):
        out = _poly_mul(out, base)
    out[(p, 0)] = out.get((p, 0), 0) - a
    return {k: c for k, c in out.items() if c != 0}


def _to_bivariate(terms):
    deg_y = max(j for _, j in terms)
    deg_t = max(i for i, _ in terms)
    return BivariatePolynomial([
        RationalPoly([GaussianRational(terms.get((i, j), 0)) for i in range(deg_t + 1)])
        for j in range(deg_y + 1)
    ])


def random_charpoly(rnd, shapes):
    """Monic product of factors with distinct eigenvalues at t = 0.

    Returns (P, K, levels): the top branch belongs to the first factor, so K
    is its q, and the polygon iteration takes ``levels`` levels on it.
    """
    terms = {(0, 0): Fraction(1)}
    for (q, p, s, b_sign), lam in zip(shapes, EIGENVALUES_AT_ZERO):
        b = b_sign * Fraction(rnd.randint(1, 2), 8)
        a = Fraction(rnd.randint(1, 3), 16)
        if q % 2 and rnd.random() < 0.5:
            a = -a
        terms = _poly_mul(terms, _factor(lam, b, s, q, a, p))
    q_top, p_top, s_top, b_sign = shapes[0]
    return _to_bivariate(terms), q_top, (2 if b_sign and s_top * q_top < p_top else 1)


def charpoly_round(rnd, tiny=False):
    """One round of puiseux_charpolys inputs:
    [(label, P, K, distance K, unsupported)].

    The generated top eigenvalue is positive at t = 0, so the distance keeps K.
    """
    items = []
    if not tiny:
        for name, (K, distance_k) in BUNDLED_CHARPOLY_K.items():
            items.append((f"bundled/{name}", data.charpoly(name), K, distance_k, False))
    for shapes, unsupported in (CHARPOLY_SLOTS_TINY if tiny else CHARPOLY_SLOTS):
        P, K, levels = random_charpoly(rnd, shapes)
        label = "x".join(f"q{q}p{p}" + "-+"[b > 0] * abs(b) for q, p, _, b in shapes)
        items.append((f"{label}/levels{levels}", P, K, K, unsupported))
    rnd.shuffle(items)
    return items


# -- cli_session ------------------------------------------------------------

TWISTS = ("0", "0.3", "0.7", "1.3", "2.1", "2.9", "3.7", "5.0")
# twists drawn per session; the 1e-15 tolerance run is always included
SESSION_TWISTS = 3


def _datafile(kind, name):
    return f"src/rigidity/data/{kind}/{name}.json"


def cli_grid():
    """Every invocation the session may run: {key: argv}.

    The keys name the reference stdout digests recorded from the seed commit.
    ``@OUT`` stands for the CSV path, which the runner fills in.
    """
    grid = {}
    for tw in TWISTS:
        grid[f"horocycle/twist{tw}"] = ["horocycle", "--theta-twist", tw]
    grid["horocycle/tol1e-15"] = ["horocycle", "--tolerance", "1e-15"]
    for name in data.origami_names():
        base = ["intersection", "--origami", _datafile("origamis", name), "--out", "@OUT"]
        grid[f"intersection/{name}"] = base
        for L in ("10", "20"):
            grid[f"intersection/{name}/L{L}"] = base + ["--length-bound", L]
    for name in ("diagonal_radial", "shear_mix"):
        grid[f"smoothness/{name}"] = ["smoothness", "--path", _datafile("paths", name)]
    grid["smoothness/escape_diagonal"] = [
        "smoothness", "--path", _datafile("paths", "escape_diagonal"), "--epsilon", "1.0"]
    for name in data.charpoly_names():
        grid[f"smoothness/charpoly/{name}"] = [
            "smoothness", "--charpoly", "--path", _datafile("charpolys", name)]
    return grid


def cli_session(rnd, tiny=False):
    """The session: rounds of three grid keys, (horocycle, intersection,
    smoothness).

    Every round has the same mix of commands.  Over the session each bundled
    origami and each smoothness input comes once; the seed picks the twists,
    the length bound of each origami, and the order within each kind.
    """
    if tiny:
        return [["horocycle/tol1e-15", "intersection/torus/L10",
                 "smoothness/escape_diagonal"]]
    horocycle = [f"horocycle/twist{tw}" for tw in rnd.sample(TWISTS, SESSION_TWISTS)]
    horocycle.append("horocycle/tol1e-15")
    intersection = [
        f"intersection/{name}" + rnd.choice(("", "/L10", "/L20"))
        for name in data.origami_names()
    ]
    smoothness = [k for k in cli_grid() if k.startswith("smoothness/")]
    for kind in (horocycle, intersection, smoothness):
        rnd.shuffle(kind)
    return [[horocycle[i % len(horocycle)], intersection[i], smoothness[i]]
            for i in range(len(intersection))]
