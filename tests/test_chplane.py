import cmath
import json
import math
import random
import re

import numpy as np
import pytest

from conftest import assert_frozen_value, clones, perfbench_gen
from rigidity import chplane
from rigidity.chplane import (
    BallIsometry,
    BallPoint,
    BoundaryPoint,
    CoincidentEndpoints,
    FormViolation,
    OutsideBall,
    RealGeodesic,
    Step2Result,
    busemann,
    busemann_limit,
    distance,
    horocycle_level,
    random_isometry,
    step2_verify,
)


def random_ball_point(rng, radius=0.8):
    while True:
        z = radius * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        w = radius * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        if abs(z) ** 2 + abs(w) ** 2 < radius**2:
            return BallPoint(z, w)


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_distance_along_unit_ray():
    assert abs(distance(BallPoint(0, 0), BallPoint(math.tanh(1), 0)) - 1.0) < 1e-12


def test_distance_from_origin_closed_form():
    for r in (0.1, 0.5, 0.9, 0.99):
        expected = 0.5 * math.log((1 + r) / (1 - r))
        assert abs(distance(BallPoint(0, 0), BallPoint(r, 0)) - expected) < 1e-12
        assert abs(distance(BallPoint(0, 0), BallPoint(0, r)) - expected) < 1e-12


def test_distance_of_the_two_crossing_points_is_log_two():
    d = distance(BallPoint(1 / 3, 2 / 3), BallPoint(2 / 3, 1 / 3))
    assert abs(d - math.log(2)) < 1e-12


def test_distance_symmetry_and_separation():
    rnd = random.Random(2)
    for _ in range(20):
        p, q = random_ball_point(rnd), random_ball_point(rnd)
        assert abs(distance(p, q) - distance(q, p)) < 1e-12
        assert distance(p, p) == 0.0
        if (p.z, p.w) != (q.z, q.w):
            assert distance(p, q) > 0


def test_distance_slice_agrees_with_moebius():
    rnd = random.Random(3)
    for _ in range(40):
        z1 = 0.9 * (rnd.uniform(-1, 1) + 1j * rnd.uniform(-1, 1)) / math.sqrt(2)
        z2 = 0.9 * (rnd.uniform(-1, 1) + 1j * rnd.uniform(-1, 1)) / math.sqrt(2)
        m = abs((z1 - z2) / (1 - z1 * z2.conjugate()))
        expected = math.atanh(m)
        assert abs(distance(BallPoint(z1, 0), BallPoint(z2, 0)) - expected) < 1e-12


def test_outside_ball_rejected():
    with pytest.raises(OutsideBall, match=re.escape("|((0.8+0j), (0.7+0j))|^2 = 1.13")):
        BallPoint(0.8, 0.7)
    with pytest.raises(OutsideBall):
        BallPoint(1.0, 0.0)


# ---------------------------------------------------------------------------
# value classes
# ---------------------------------------------------------------------------

# each value is built twice; the repr and hash are those of the frozen
# dataclasses these classes were, which hashed the tuple of their fields
VALUES = {
    "BallPoint": (lambda: BallPoint(0.25, 0.5j), lambda: BallPoint(0.25, -0.5j),
                  "BallPoint(z=(0.25+0j), w=0.5j)", 4709661033018512011),
    "BoundaryPoint": (lambda: BoundaryPoint(3, 4j), lambda: BoundaryPoint(3, 4),
                      "BoundaryPoint(xi1=(0.6+0j), xi2=0.8j)", -4096414077462185410),
    "Step2Result": (
        lambda: Step2Result(BallPoint(1 / 3, 2 / 3), BallPoint(2 / 3, 1 / 3), math.log(2), 0.5),
        lambda: Step2Result(BallPoint(1 / 3, 2 / 3), BallPoint(2 / 3, 1 / 3), math.log(2), 0.25),
        "Step2Result(P1=BallPoint(z=(0.3333333333333333+0j), w=(0.6666666666666666+0j)), "
        "P2=BallPoint(z=(0.6666666666666666+0j), w=(0.3333333333333333+0j)), "
        "dist=0.6931471805599453, intersection=0.5)", -5598005782769982412),
}


@pytest.mark.parametrize("make, other, text, digest", VALUES.values(), ids=VALUES)
def test_value_classes_are_frozen_slotted_values(make, other, text, digest):
    assert_frozen_value(make, other, text, digest)


def test_boundary_points_copy_and_pickle_bit_for_bit():
    # normalizing a unit vector again can move its last bit, so a copy that
    # ran the constructor again would differ for about a third of these
    rnd = random.Random(33)
    points = [BoundaryPoint(complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1)),
                            complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1)))
              for _ in range(2000)]
    for copies in zip(*map(clones, points)):
        assert list(copies) == points


def test_real_geodesic_is_frozen_slotted_and_compares_by_identity():
    a, b = BoundaryPoint(1, 0), BoundaryPoint(0, 1)
    g = RealGeodesic(a, b)
    for name in ("a", "_norm"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(g, name, b)
    assert not hasattr(g, "__dict__")
    assert g == g and g != RealGeodesic(a, b)
    for clone in clones(g):
        assert type(clone) is RealGeodesic and (clone.a, clone.b) == (a, b)
        assert clone.point(0.3) == g.point(0.3)


# ---------------------------------------------------------------------------
# rays and isometries
# ---------------------------------------------------------------------------

def ray_point(iso, t):
    """Point at time t of the unit-speed ray t -> iso(tanh t, 0)."""
    return iso(BallPoint(math.tanh(t), 0.0))


def ray_level(iso, p):
    """Horocycle level of p for the ray of iso, normalized so that the ray
    point at time t has level e^t."""
    xi = iso(BoundaryPoint(1.0, 0.0))
    return horocycle_level(xi, p) / horocycle_level(xi, ray_point(iso, 0.0))


def test_ray_point_identity_ray():
    iso = BallIsometry(np.eye(3))
    assert ray_point(iso, 0.0) == BallPoint(0, 0)
    p = ray_point(iso, 1.0)
    assert abs(p.z - math.tanh(1)) < 1e-12 and p.w == 0


def test_ray_point_swap_gives_second_axis():
    swap = BallIsometry(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    p = ray_point(swap, 1.0)
    assert abs(p.w - math.tanh(1)) < 1e-12 and abs(p.z) < 1e-14


def test_ray_is_unit_speed():
    rng = np.random.default_rng(4)
    iso = random_isometry(rng)
    for t1, t2 in ((0.0, 1.0), (0.5, 2.5), (-1.0, 0.7)):
        assert abs(distance(ray_point(iso, t1), ray_point(iso, t2)) - abs(t1 - t2)) < 1e-9


def test_rotation_isometry_action():
    theta = 0.8
    iso = BallIsometry(np.diag([cmath.exp(-1j * theta), 1, 1]))
    p = iso(BallPoint(0.5, 0))
    assert abs(p.z - 0.5 * cmath.exp(-1j * theta)) < 1e-12
    assert p.w == 0


def test_identity_fixes_points():
    iso = BallIsometry(np.eye(3))
    p = BallPoint(0.3 - 0.1j, 0.2j)
    assert iso(p) == p


def test_form_violation_rejected():
    with pytest.raises(FormViolation):
        BallIsometry(2 * np.eye(3))
    with pytest.raises(FormViolation):
        BallIsometry(np.eye(4))


def test_expm_matches_scipy():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(12)
    for norm in (0.0, 1e-8, 0.3, 1.0, 2.5, 7.0, 40.0):
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a *= norm / np.linalg.norm(a, 1)
            expected = linalg.expm(a)
            err = np.max(np.abs(chplane._expm(a) - expected))
            assert err <= 1e-13 * np.max(np.abs(expected))


def test_random_isometries_preserve_distance():
    rng = np.random.default_rng(11)
    rnd = random.Random(11)
    for _ in range(100):
        iso = random_isometry(rng)
        p, q = random_ball_point(rnd), random_ball_point(rnd)
        assert abs(distance(iso(p), iso(q)) - distance(p, q)) < 1e-9


# ---------------------------------------------------------------------------
# busemann functions and horocycles
# ---------------------------------------------------------------------------

def test_busemann_examples():
    xi = BoundaryPoint(1, 0)
    assert abs(busemann(xi, BallPoint(0, 0))) < 1e-15
    assert abs(busemann(xi, BallPoint(math.tanh(1), 0)) + 1.0) < 1e-12
    assert abs(busemann(xi, BallPoint(1 / 3, 2 / 3))) < 1e-12


def test_busemann_closed_form_against_limit():
    rnd = random.Random(8)
    xi = BoundaryPoint(0.6, 0.8j)
    for _ in range(25):
        p = random_ball_point(rnd)
        closed = busemann(xi, p)
        for t in (3.0, 5.0, 8.0):
            assert abs(closed - busemann_limit(xi, p, t)) <= 2 * math.exp(-2 * t)
        assert abs(closed - busemann_limit(xi, p, 20.0)) < 1e-8


def test_busemann_is_minus_t_along_its_ray():
    xi = BoundaryPoint(1 / math.sqrt(2), 1j / math.sqrt(2))
    for t in (0.0, 0.7, 2.0):
        gamma_t = BallPoint(math.tanh(t) * xi.xi1, math.tanh(t) * xi.xi2)
        assert abs(busemann(xi, gamma_t) + t) < 1e-12


def test_horocycle_level_examples():
    xi = BoundaryPoint(1, 0)
    assert abs(horocycle_level(xi, BallPoint(0, 0)) - 1.0) < 1e-12
    for t0 in (0.5, 1.0, 2.0):
        lvl = horocycle_level(xi, BallPoint(math.tanh(t0), 0))
        assert abs(lvl - math.exp(t0)) < 1e-10
    assert abs(horocycle_level(xi, BallPoint(1 / 3, 2 / 3)) - 1.0) < 1e-12


def test_boundary_point_normalization():
    xi = BoundaryPoint(3, 4)
    assert abs(abs(xi.xi1) ** 2 + abs(xi.xi2) ** 2 - 1.0) < 1e-12
    for small in (0, 1e-11):
        with pytest.raises(ValueError, match="boundary point needs a nonzero representative"):
            BoundaryPoint(0, small)


def test_ray_level_equivariance():
    # the ray-based level is defined metrically, so any isometry transports
    # level sets: level_gamma(p) = level_{m gamma}(m p)
    rng = np.random.default_rng(21)
    rnd = random.Random(21)
    base = BallIsometry(np.eye(3))
    for _ in range(25):
        iso = random_isometry(rng)
        p = random_ball_point(rnd)
        moved = BallIsometry(iso.matrix @ base.matrix)
        assert abs(ray_level(base, p) - ray_level(moved, iso(p))) < 1e-9


def test_ray_level_self_consistency():
    rng = np.random.default_rng(22)
    iso = random_isometry(rng)
    for t in (0.0, 0.8, 1.7):
        assert abs(ray_level(iso, ray_point(iso, t)) - math.exp(t)) < 1e-9


# ---------------------------------------------------------------------------
# real geodesics
# ---------------------------------------------------------------------------

def test_chord_midpoint():
    g = RealGeodesic(BoundaryPoint(1, 0), BoundaryPoint(0, 1))
    mid = g.point(0.0)
    assert abs(mid.z - 0.5) < 1e-12 and abs(mid.w - 0.5) < 1e-12


def test_diameter_geodesic():
    g = RealGeodesic(BoundaryPoint(1, 0), BoundaryPoint(-1, 0))
    for t in (-1.2, 0.0, 0.8):
        p = g.point(t)
        assert abs(p.z - math.tanh(t)) < 1e-12
        assert abs(p.w) < 1e-14


def test_geodesic_image_lies_on_the_chord():
    a, b = BoundaryPoint(0.6, 0.8), BoundaryPoint(-0.8, 0.6)
    g = RealGeodesic(a, b)
    av = np.array([a.xi1.real, a.xi2.real])
    bv = np.array([b.xi1.real, b.xi2.real])
    for t in (-2.0, -0.5, 0.0, 1.0, 2.5):
        p = g.point(t)
        assert abs(p.z.imag) < 1e-12 and abs(p.w.imag) < 1e-12
        pv = np.array([p.z.real, p.w.real])
        cross = (bv - av)[0] * (pv - av)[1] - (bv - av)[1] * (pv - av)[0]
        assert abs(cross) < 1e-12


def test_geodesic_unit_speed_and_endpoints():
    g = RealGeodesic(BoundaryPoint(1, 0), BoundaryPoint(0, 1))
    for t1, t2 in ((-1.0, 2.0), (0.3, 0.9)):
        assert abs(distance(g.point(t1), g.point(t2)) - abs(t1 - t2)) < 1e-9
    far = g.point(9.5)  # e^{-19} from the boundary, still inside in floats
    assert abs(far.z - 1) < 1e-8 and abs(far.w) < 1e-8
    near = g.point(-9.5)
    assert abs(near.w - 1) < 1e-8


def test_coincident_endpoints_rejected():
    for scale in (1, 2):
        with pytest.raises(CoincidentEndpoints, match="boundary endpoints coincide"):
            RealGeodesic(BoundaryPoint(scale, 0), BoundaryPoint(1, 0))


def test_unit_level_points_on_the_chord():
    # the two points of the chord with unit horocycle level at each endpoint
    g = RealGeodesic(BoundaryPoint(1, 0), BoundaryPoint(0, 1))
    xi = BoundaryPoint(1, 0)
    found = None
    lo, hi = -2.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if horocycle_level(xi, g.point(mid)) < 1.0:
            lo = mid
        else:
            hi = mid
    found = g.point(0.5 * (lo + hi))
    assert abs(found.z - 1 / 3) < 1e-9 and abs(found.w - 2 / 3) < 1e-9


# ---------------------------------------------------------------------------
# the crossing experiment
# ---------------------------------------------------------------------------

def test_step2_locates_the_thirds():
    res = step2_verify()
    assert isinstance(res, Step2Result)
    assert abs(res.P1.z - 1 / 3) < 1e-9 and abs(res.P1.w - 2 / 3) < 1e-9
    assert abs(res.P2.z - 2 / 3) < 1e-9 and abs(res.P2.w - 1 / 3) < 1e-9


def test_step2_distance_and_intersection():
    res = step2_verify()
    assert abs(res.dist - math.log(2)) < 1e-9
    assert abs(res.intersection - 0.5) < 1e-9


def test_step2_twist_invariance():
    base = step2_verify().dist
    for theta in np.linspace(0.0, 2 * math.pi, 9):
        assert abs(step2_verify(theta_twist=float(theta)).dist - base) < 1e-9


def test_step2_json_shape():
    payload = step2_verify().to_json_dict()
    assert set(payload) == {"P1", "P2", "distance", "intersection"}
    assert len(payload["P1"]) == 4 and len(payload["P2"]) == 4


# ---------------------------------------------------------------------------
# rounding: the crossing experiment runs on Python complex numbers and
# divides as numpy's complex128 does, with numpy as the oracle
# ---------------------------------------------------------------------------

def float_bits(z):
    """Hex of both parts: tells -0.0 from 0.0 and every last bit apart."""
    return float(z.real).hex(), float(z.imag).hex()


# zeros of both signs, |re| = |im| pairs, and magnitudes near 1e+-300,
# the subnormal limit and the overflow limit
DIVISION_PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1 / 3, 2.0 ** 0.5,
                  1e300, -3e299, 1e-300, -7e-301, 5e-324, 1.7e308)


def test_division_rounds_like_numpy_complex128():
    values = [complex(x, y) for x in DIVISION_PARTS for y in DIVISION_PARTS]
    dividends = np.array(values)
    with np.errstate(all="ignore"):
        for b in values:
            if b == 0:
                continue
            by_array = dividends / b
            for a, expected in zip(values, by_array):
                got = float_bits(chplane._div(a, b))
                assert got == float_bits(expected), (a, b)
                assert got == float_bits(np.complex128(a) / np.complex128(b)), (a, b)
            for x in DIVISION_PARTS:  # a real dividend, as in the phase -|g| / conj(g)
                got = float_bits(chplane._div(x, b))
                assert got == float_bits(np.float64(x) / np.complex128(b)), (x, b)
            if b.imag == 0:  # a real divisor, as in the division by the norm
                for a, expected in zip(values, dividends / b.real):
                    assert float_bits(chplane._div(a, b.real)) == float_bits(expected)


class NumpyGeodesic:
    """The real geodesic on numpy complex128 arrays, as step2_verify ran it
    before it moved to Python complex numbers."""

    def __init__(self, a, b):
        na = np.array([a.xi1, a.xi2, 1.0], dtype=complex)
        nb = np.array([b.xi1, b.xi2, 1.0], dtype=complex)
        g = (na[0] * nb[0].conjugate() + na[1] * nb[1].conjugate()
             - na[2] * nb[2].conjugate())
        self.na = na
        self.mb = nb * (-abs(g) / g.conjugate())
        self.norm = math.sqrt(2.0 * abs(g))

    def point(self, t):
        vec = (math.exp(t) * self.na + math.exp(-t) * self.mb) / self.norm
        return BallPoint(vec[0] / vec[2], vec[1] / vec[2])


def numpy_step2_verify(theta_twist):
    xi_a = BoundaryPoint(cmath.exp(-1j * theta_twist), 0.0)
    xi_b = BoundaryPoint(0.0, 1.0)
    delta = NumpyGeodesic(xi_a, xi_b)
    p1 = delta.point(chplane._level_crossing(xi_a, delta, toward_positive=False))
    p2 = delta.point(chplane._level_crossing(xi_b, delta, toward_positive=True))
    dist = distance(p1, p2)
    return Step2Result(P1=p1, P2=p2, dist=dist, intersection=math.exp(-dist))


def test_step2_is_bit_identical_to_the_numpy_geodesic():
    rnd = random.Random(15)
    twists = [rnd.uniform(-50.0, 50.0) for _ in range(600)]
    twists += [k / 64 for k in range(-256, 257)]
    twists += [float(tw) for tw in perfbench_gen().TWISTS]
    twists += [-0.0, 1e-300, -1e-3, math.pi, -math.pi / 2]
    for theta in twists:
        # json keeps the sign of a zero and every digit of each float
        got = json.dumps(step2_verify(theta).to_json_dict())
        assert got == json.dumps(numpy_step2_verify(theta).to_json_dict()), theta
