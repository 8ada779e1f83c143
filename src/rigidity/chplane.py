"""The complex hyperbolic plane as the unit ball in C^2.

Points live in the round ball |z|^2 + |w|^2 < 1 carrying the invariant
metric of constant holomorphic curvature -4 (so that the slice w = 0 is the
unit disk with the metric |dz| / (1 - |z|^2)).  Isometries are represented
by 3x3 matrices preserving the Hermitian form diag(1, 1, -1), acting
projectively on the affine chart [z : w : 1].

The closed forms used for the distance and for Busemann functions are
derived for this normalization and each is backed by an independent
numerical check: the distance degenerates to the one-dimensional Moebius
distance on the slice w = 0, and the Busemann form is the limit of
d(p, gamma(t)) - t along the ray toward the boundary point.  Both checks are
exercised in the test suite through :func:`busemann_limit` and the slice
identity.

``step2_verify`` runs the horocycle experiment: on the real geodesic with
endpoints (1, 0) and (0, 1) it locates the intersections with the two unit
horocycles centered at those endpoints and reports their distance (log 2)
and the exponential decay e^{-distance} (1/2).

Everything here is a pure function of immutable values; concurrent callers
are safe.
"""

import cmath
import math
from collections import namedtuple

__all__ = [
    "OutsideBall",
    "FormViolation",
    "CoincidentEndpoints",
    "RootNotBracketed",
    "BallPoint",
    "BoundaryPoint",
    "BallIsometry",
    "RealGeodesic",
    "Step2Result",
    "distance",
    "busemann",
    "busemann_limit",
    "horocycle_level",
    "random_isometry",
    "step2_verify",
]

FORM_TOLERANCE = 1e-10
ROOT_TOL = 1e-12  # parameter tolerance of the crossing bisections
_J = ((1, 0, 0), (0, 1, 0), (0, 0, -1))  # diag(1, 1, -1); numpy reads it as a matrix


def _div(a, b):
    """a / b rounded as numpy's complex128 does it: Smith's method, times 1/scale."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    if not abs(br) >= abs(bi):  # a / b = (-1j a) / (-1j b)
        ar, ai, br, bi = ai, -ar, bi, -br
    rat = bi / br
    scl = 1.0 / (br + bi * rat)
    return complex((ar + ai * rat) * scl, (ai - ar * rat) * scl)


class OutsideBall(ValueError):
    """Raised for coordinates outside the open unit ball."""


class FormViolation(ValueError):
    """Raised when a matrix does not preserve the Hermitian form."""


class CoincidentEndpoints(ValueError):
    """Raised when a geodesic is requested between equal boundary points."""


class RootNotBracketed(ValueError):
    """Raised when a level-set root search cannot find a sign change."""


class BallPoint(namedtuple("BallPoint", "z w")):
    __slots__ = ()

    def __new__(cls, z, w):
        self = super().__new__(cls, complex(z), complex(w))
        if self.norm_sq >= 1.0:
            raise OutsideBall(f"|({self.z}, {self.w})|^2 = {self.norm_sq} >= 1")
        return self

    @property
    def norm_sq(self):
        return abs(self.z) ** 2 + abs(self.w) ** 2

    def homogeneous(self):
        return (self.z, self.w, 1.0)


class BoundaryPoint(namedtuple("BoundaryPoint", "xi1 xi2")):
    """Point of the unit sphere boundary; stored as a unit vector in C^2."""

    __slots__ = ()

    def __new__(cls, xi1, xi2):
        norm = math.hypot(abs(xi1), abs(xi2))
        if norm < 1e-10:
            raise ValueError("boundary point needs a nonzero representative")
        return super().__new__(cls, complex(xi1) / norm, complex(xi2) / norm)

    def __reduce__(self):
        # normalizing again may move the last bit, so copies skip __new__
        return tuple.__new__, (type(self), tuple(self))

    def homogeneous(self):
        return (self.xi1, self.xi2, 1.0)


def _inner(p, q):
    """Hermitian product of the C^2 parts, conjugate linear in the second slot."""
    return p[0] * q[0].conjugate() + p[1] * q[1].conjugate()


def distance(p, q):
    """Kobayashi distance between two ball points.

    cosh^2 d = |1 - <p, q>|^2 / ((1 - |p|^2)(1 - |q|^2)); on the slice w = 0
    this is the Moebius distance arctanh |(z1 - z2) / (1 - z1 conj(z2))|.
    Evaluated through sinh^2 d = (|p - q|^2 - |p /\\ q|^2) / denominator,
    which is exact at coincident points instead of losing half the digits
    to cancellation inside acosh.
    """
    diff_sq = abs(p.z - q.z) ** 2 + abs(p.w - q.w) ** 2
    wedge_sq = abs(p.z * q.w - p.w * q.z) ** 2
    den = (1.0 - p.norm_sq) * (1.0 - q.norm_sq)
    return math.asinh(math.sqrt(max(diff_sq - wedge_sq, 0.0) / den))


class BallIsometry:
    """Holomorphic isometry given by a matrix preserving diag(1, 1, -1)."""

    def __init__(self, matrix):
        import numpy as np
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (3, 3):
            raise FormViolation(f"expected a 3x3 matrix, got shape {m.shape}")
        err = np.max(np.abs(m.conj().T @ _J @ m - _J))
        if err > FORM_TOLERANCE:
            raise FormViolation(f"form defect {err:.3e} exceeds {FORM_TOLERANCE}")
        self.matrix = m

    def __call__(self, point):
        vec = self.matrix @ point.homogeneous()
        if abs(vec[2]) < 1e-14:
            raise OutsideBall("image escapes the affine chart")
        z, w = vec[0] / vec[2], vec[1] / vec[2]
        if isinstance(point, BoundaryPoint):
            return BoundaryPoint(z, w)
        return BallPoint(z, w)


def _expm(a):
    """Matrix exponential by scaling and squaring: a is halved until its
    1-norm is below 1/2, where the degree-18 Taylor sum leaves a remainder
    under 1e-22, and the sum is then squared back up."""
    import numpy as np
    squarings = max(0, math.frexp(np.linalg.norm(a, 1))[1] + 1)
    a = a / 2.0 ** squarings
    term = result = np.eye(len(a), dtype=a.dtype)
    for k in range(1, 19):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def random_isometry(rng, scale=0.8):
    """Random form-preserving matrix, built by exponentiating a form-skew
    generator A = J S with S anti-Hermitian."""
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    hermitian = (h + h.conj().T) / 2
    generator = _J @ (1j * scale * hermitian)
    return BallIsometry(_expm(generator))


def busemann(xi, p):
    """Busemann function of the boundary point xi at p, vanishing at 0.

    Closed form log(|1 - <p, xi>| / sqrt(1 - |p|^2)); it agrees with the
    geodesic limit computed by :func:`busemann_limit` up to O(e^{-2t}).
    """
    num = abs(1.0 - _inner((p.z, p.w), (xi.xi1, xi.xi2)))
    return math.log(num / math.sqrt(1.0 - p.norm_sq))


def busemann_limit(xi, p, t):
    """Finite-time approximation d(p, gamma(t)) - t along the ray toward xi.

    Written so that large t stays finite: the ray point tanh(t) xi would
    round onto the boundary, so the factor 1 - tanh(t)^2 = 1/cosh(t)^2 is
    kept symbolic inside the cosh form of the distance.
    """
    r = math.tanh(t)
    x = abs(1.0 - r * _inner((p.z, p.w), (xi.xi1, xi.xi2)))
    x *= math.cosh(t) / math.sqrt(1.0 - p.norm_sq)
    return math.acosh(max(x, 1.0)) - t


def horocycle_level(xi, p):
    """Level e^{-B_xi(p)} of the horocycle through p centered at xi.

    Equal to 1 on the horocycle through the origin, growing toward xi.
    """
    return math.exp(-busemann(xi, p))


class RealGeodesic:
    """Complete unit-speed geodesic with prescribed boundary endpoints.

    Parametrized as the projectivization of e^t N_a + e^{-t} M_b where N_a,
    M_b are null lifts of the endpoints normalized against the Hermitian
    form; t -> +inf approaches a, t -> -inf approaches b.  For endpoints
    with real coordinates the image is the straight chord between them, as
    in the projective disk model of the real hyperbolic plane.  Geodesics
    compare by identity; the lifts are computed once, here.
    """

    __slots__ = ("a", "b", "_na", "_mb", "_norm")

    def __init__(self, a, b):
        na, nb = a.homogeneous(), b.homogeneous()
        g = _inner(na, nb) - 1.0  # the form pairing of the two null lifts
        if abs(g) < 1e-12:
            raise CoincidentEndpoints("boundary endpoints coincide")
        # rescale the b-lift so that the pairing becomes real negative
        phase = _div(-abs(g), g.conjugate())
        values = (a, b, na, tuple(x * phase for x in nb), math.sqrt(2.0 * abs(g)))
        for name, value in zip(self.__slots__, values):  # past __setattr__
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"RealGeodesic is immutable; cannot set {name!r}")

    def __reduce__(self):
        return RealGeodesic, (self.a, self.b)

    def point(self, t):
        z, w, s = (_div(math.exp(t) * x + math.exp(-t) * y, self._norm)
                   for x, y in zip(self._na, self._mb))
        return BallPoint(_div(z, s), _div(w, s))


def _bisect(f, lo, hi):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise RootNotBracketed(f"no sign change on [{lo}, {hi}]")
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _level_crossing(xi, geodesic, toward_positive):
    """Parameter where the horocycle level of xi along the geodesic equals 1,
    bisected on [0, 1] toward positive t and on [-1, 0] otherwise: every
    step2_verify configuration is an isometric image of the untwisted one,
    where the level minus 1 is sqrt(2) - 1 at t = 0 and -0.4797... at the
    far end of that bracket."""
    def f(t):
        return horocycle_level(xi, geodesic.point(t)) - 1.0

    return _bisect(f, 0.0, 1.0) if toward_positive else _bisect(f, -1.0, 0.0)


class Step2Result(namedtuple("Step2Result", "P1 P2 dist intersection")):
    __slots__ = ()

    def to_json_dict(self):
        return {
            "P1": [self.P1.z.real, self.P1.z.imag, self.P1.w.real, self.P1.w.imag],
            "P2": [self.P2.z.real, self.P2.z.imag, self.P2.w.real, self.P2.w.imag],
            "distance": self.dist,
            "intersection": self.intersection,
        }


def step2_verify(theta_twist=0.0):
    """Locate the unit-horocycle crossings on the geodesic joining the two
    orthogonal ray endpoints and report their distance.

    With no twist the endpoints are (1, 0) and (0, 1); the crossings come out
    at (1/3, 2/3) and (2/3, 1/3), their distance is log 2, and the reported
    intersection value e^{-distance} is 1/2.  A twist angle replaces the
    first endpoint by (e^{-i theta}, 0); being the image of the untwisted
    configuration under the isometry (z, w) -> (e^{-i theta} z, w), it must
    produce the same distance.
    """
    if not math.isfinite(theta_twist):
        raise ValueError(f"theta_twist must be finite, got {theta_twist}")
    xi_a = BoundaryPoint(cmath.exp(-1j * theta_twist), 0.0)
    xi_b = BoundaryPoint(0.0, 1.0)
    delta = RealGeodesic(xi_a, xi_b)
    t1 = _level_crossing(xi_a, delta, toward_positive=False)
    t2 = _level_crossing(xi_b, delta, toward_positive=True)
    p1 = delta.point(t1)
    p2 = delta.point(t2)
    dist = distance(p1, p2)
    return Step2Result(P1=p1, P2=p2, dist=dist, intersection=math.exp(-dist))
