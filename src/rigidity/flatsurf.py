"""Square-tiled translation surfaces and their flat geometry.

An origami is a finite set of unit squares glued along edges by two
permutations: ``h`` sends each square to its right neighbor and ``v`` to its
top neighbor.  The glued surface carries a flat metric whose cone points are
the vertex classes of the tiling (cycles of the commutator of ``h`` and
``v``); every vertex is treated as a marked point, including the regular
ones of angle 2*pi.

On top of that combinatorial core the module provides:

* exact enumeration of saddle connections by developing straight segments
  through the square grid,
* cylinder decompositions in arbitrary primitive rational directions via the
  first-return map of the straight-line flow,
* flat multicurves and the rotation profile theta -> sum |Re(e^{i theta/2} v)|
  of their intersection with the rotated vertical foliation,
* the extremal-length scaling along the diagonal stretch flow.

All operations are pure functions of immutable inputs.
"""

import cmath
import math
from collections import namedtuple
from itertools import groupby, repeat
from operator import itemgetter

TOLERANCE = 1e-9
DEFAULT_LENGTH_BOUND = 10.0
MAX_CROSSING_LETTERS = 10**5  # |p| + |q| of a direction: an input bound, not a cost cap
# caps on inputs whose cost grows with their value, not with the output
MAX_COUNT_LENGTH = 10**5  # max_length of saddle_connection_count
MAX_SAMPLES = 10**5  # samples of sample_profile: 0.5 s and 40 MB at the cap

__all__ = [
    "BadPermutation",
    "NonTransitive",
    "NotPrimitive",
    "ConstantProfile",
    "Origami",
    "SaddleConnection",
    "Cylinder",
    "CylinderDecomposition",
    "FlatMulticurve",
    "ProfileExtrema",
    "build_origami",
    "area",
    "saddle_connections",
    "saddle_connection_count",
    "cylinder_decomposition",
    "horizontal_multicurve",
    "intersection_profile",
    "sample_profile",
    "profile_nonconstancy",
    "intersection_q_horizontal",
    "extremal_length_flowed",
]


class BadPermutation(ValueError):
    """Raised when a gluing map is not a bijection of {1..n}."""


class NonTransitive(ValueError):
    """Raised when the gluing permutations do not generate a connected surface."""


class NotPrimitive(ValueError):
    """Raised when a rational direction does not have coprime entries."""


class ConstantProfile(ValueError):
    """Raised when a rotation profile is flat to within tolerance."""


def _check_permutation(images, n, name):
    """Validate a 1-indexed image array and return the 0-indexed tuple."""
    seq = list(images)
    if len(seq) != n:
        raise BadPermutation(f"{name} has {len(seq)} entries, expected {n}")
    seen = [False] * n
    out = []
    for x in seq:
        # bool is an int subclass, but True is no square label
        if isinstance(x, bool) or not isinstance(x, int) or not 1 <= x <= n:
            raise BadPermutation(f"{name} entry {x!r} is not in 1..{n}")
        if seen[x - 1]:
            raise BadPermutation(f"{name} repeats the image {x}")
        seen[x - 1] = True
        out.append(x - 1)
    return tuple(out)


def _inverse(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _cycles(perm):
    """Cycles of a 0-indexed permutation, each rotated to start at its minimum."""
    n = len(perm)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        cycles.append(tuple(cyc))
    return tuple(sorted(cycles))


class Origami:
    """Connected square-tiled surface given by right/top gluing permutations.

    Squares are labelled 1..n in the public interface.  ``h`` and ``v`` are
    1-indexed image arrays: ``h[i-1]`` is the square to the right of square i
    and ``v[i-1]`` the square above it.  Vertex classes of the tiling are the
    cycles of the commutator v^-1 h^-1 v h acting on squares; a cycle of
    length k is a cone point of angle 2*pi*k.
    """

    def __init__(self, h, v):
        h, v = list(h), list(v)
        n = len(h)
        self.n = n
        if n < 1:
            raise BadPermutation("need at least one square")
        self._h = _check_permutation(h, n, "h")
        self._v = _check_permutation(v, n, "v")
        self._h_inv = _inverse(self._h)
        self._v_inv = _inverse(self._v)
        self._check_transitive()
        # commutator c = v^-1 h^-1 v h, applied left to right as functions
        comm = tuple(
            self._v_inv[self._h_inv[self._v[self._h[i]]]] for i in range(n)
        )
        self.cone_cycles = _cycles(comm)
        excess = sum(len(c) - 1 for c in self.cone_cycles)
        if excess % 2:
            raise RuntimeError("angle excess came out odd; gluing bookkeeping broken")
        self.genus = excess // 2 + 1
        if 2 - 2 * self.genus != self.vertex_count - self.n:
            raise RuntimeError("Euler characteristic bookkeeping broken")
        self._vertex_of_square = [0] * n
        for idx, cyc in enumerate(self.cone_cycles):
            for s in cyc:
                self._vertex_of_square[s] = idx

    def _check_transitive(self):
        reached = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in (self._h[i], self._v[i], self._h_inv[i], self._v_inv[i]):
                if j not in reached:
                    reached.add(j)
                    stack.append(j)
        if len(reached) != self.n:
            raise NonTransitive(
                f"gluings reach only {len(reached)} of {self.n} squares"
            )

    # -- public 1-indexed views ------------------------------------------
    def h(self, i):
        """Square to the right of square i (1-indexed)."""
        return self._h[i - 1] + 1

    def v(self, i):
        """Square above square i (1-indexed)."""
        return self._v[i - 1] + 1

    @property
    def h_images(self):
        return tuple(x + 1 for x in self._h)

    @property
    def v_images(self):
        return tuple(x + 1 for x in self._v)

    @property
    def vertex_count(self):
        return len(self.cone_cycles)

    @property
    def cone_angles(self):
        """Cone angle of each vertex class, in units of 2*pi."""
        return tuple(len(c) for c in self.cone_cycles)

    @classmethod
    def from_json(cls, data):
        """Parsed origami JSON {"n": int, "h": [...], "v": [...]}."""
        if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in "hv"):
            raise BadPermutation('origami JSON must be {"n": int, "h": [...], "v": [...]}')
        return build_origami(data.get("n"), data["h"], data["v"])

    def __eq__(self, other):
        if isinstance(other, Origami):
            return self._h == other._h and self._v == other._v
        return NotImplemented

    def __hash__(self):
        return hash((self._h, self._v))

    def __repr__(self):
        return f"Origami(h={list(self.h_images)}, v={list(self.v_images)})"


def build_origami(n, h, v):
    """Construct and validate an origami from 1-indexed image arrays."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise BadPermutation(f"square count n must be an int, got {n!r}")
    h, v = list(h), list(v)
    if len(h) != n or len(v) != n:
        raise BadPermutation(f"h and v must both have {n} entries")
    return Origami(h, v)


def area(origami):
    """Total flat area; one unit per square."""
    return origami.n


class SaddleConnection(namedtuple("SaddleConnection", "start end holonomy")):
    """Oriented flat segment between marked points with no marked point inside."""

    __slots__ = ()

    def __new__(cls, start, end, holonomy):
        if holonomy == 0:
            raise ValueError("saddle connection must have nonzero holonomy")
        return super().__new__(cls, start, end, holonomy)

    @property
    def length(self):
        """Euclidean length; the correctly rounded square root of the exact
        norm p**2 + q**2 for the integer holonomies of an origami."""
        x, y = self.holonomy.real, self.holonomy.imag
        return math.sqrt(x * x + y * y)


def _norm_bound(max_length):
    """floor(max_length**2): an integer norm p**2 + q**2 is at most
    max_length**2 exactly when it is at most this, so direction searches run
    on integers only."""
    if not 0 <= max_length < math.inf:
        raise ValueError(
            f"max_length must be finite and non-negative, got {max_length!r}")
    return math.floor(max_length * max_length)


def _power(perm, k):
    """The k-th power of a 0-indexed permutation, in O(n) through its cycles;
    the first power is perm itself."""
    if k == 1:
        return perm
    out = [0] * len(perm)
    for cyc in _cycles(perm):
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + k) % len(cyc)]
    return out


def _return_permutation(origami, p, q):
    """First return of the straight flow in the primitive upper direction
    (p, q) to the bottom edges, as a 0-indexed list: the flow from just right
    of the bottom-left corner of square s is, after displacement (p, q), just
    right of the bottom-left corner of the returned square.

    Descends the tree of _return_permutations by runs: if (|p|, q) is
    d2 L + d1 R for parents L and R, k = (d1 - 1) // d2 steps toward R turn L
    into the child of L and R**k, d1 into d1 - k d2 (mirrored if d2 > d1).
    """
    if p == 0 or q == 0:
        return list(origami._h if q == 0 else origami._v)
    right, d1, d2 = origami._v, q, abs(p)
    left = origami._h_inv if p < 0 else [right[origami._h[x]] for x in origami._v_inv]
    child = (lambda a, b: [b[x] for x in a]) if p < 0 else (lambda a, b: [a[x] for x in b])
    while d1 != d2:
        if d1 > d2:
            left, d1 = child(left, _power(right, (d1 - 1) // d2)), (d1 - 1) % d2 + 1
        else:
            right, d2 = child(_power(left, (d2 - 1) // d1), right), (d2 - 1) % d1 + 1
    return child(left, right)


def _return_permutations(origami, max_length):
    """Yield (p, q, R) for every primitive upper direction (p, q) with
    p**2 + q**2 <= max_length**2, R holding the entries of
    _return_permutation(origami, p, q).

    The crossing word of (a, b), a, b >= 1, is a Christoffel word; its
    standard factorization is the product of the words of its Stern-Brocot
    parents (a1, b1) + (a2, b2) = (a, b), the first of smaller slope.  So each
    R is one composition of its parents' permutations, and the walk prunes at
    the bound, a parent being never longer than its child.  For p = -a the
    word is the lower Christoffel word in h^-1 and v: the roots (1, 0) and
    (0, 1) carry h^-1 and v, and a child applies its first parent first.  For
    p = a it is the upper Christoffel word in h and v with its leading v
    moved to the end, i.e. conjugated by v, which commutes with composition:
    the roots carry v h v^-1 and v, and a child applies its second parent
    first.
    """
    m = _norm_bound(max_length)
    if m < 1:
        return
    h, v, h_inv, v_inv = origami._h, origami._v, origami._h_inv, origami._v_inv
    yield 1, 0, h
    yield 0, 1, v
    # (left parent, right parent, their p < 0 and their p > 0 permutations)
    stack = [((1, 0), (0, 1), h_inv, v, [v[h[x]] for x in v_inv], v)]
    while stack:
        (a1, b1), (a2, b2), neg1, neg2, pos1, pos2 = stack.pop()
        a, b = a1 + a2, b1 + b2
        if a * a + b * b > m:
            continue
        neg = [neg2[x] for x in neg1]
        pos = [pos1[x] for x in pos2]
        yield a, b, pos
        yield -a, b, neg
        stack.append(((a1, b1), (a, b), neg1, neg, pos1, pos))
        stack.append(((a, b), (a2, b2), neg, neg2, pos, pos2))


def saddle_connections(origami, max_length=DEFAULT_LENGTH_BOUND):
    """Every oriented saddle connection with |holonomy| <= max_length.

    Enumeration is exact: each oriented saddle connection with direction in
    the upper half plane arises from exactly one (square, direction) germ,
    since every grid vertex is a marked point (so holonomies are primitive
    integer vectors).  The germ of direction (p, q) leaving the bottom-left
    corner of square s (the bottom-right corner of h^-1(s) when p < 0) ends
    at the bottom-left corner of R(s), R being the first-return permutation
    of the flow in that direction.  The directions are walked down the
    Stern-Brocot tree, where each R is one composition of the permutations
    of its two parents (see _return_permutations), so the permutations of a
    census of bound L cost O(n L^2) list steps, the size of its output.  The
    opposite orientations are mirrored in afterwards.

    Output is sorted by (length, angle, endpoints) with an exact key per
    direction.  One row per upper direction (p, q) is sorted by
    (p**2 + q**2, -p), which is unique per direction; for a given length the
    angle of a vector grows as its real part falls in the upper half plane
    and rises in the lower one, so each norm emits the forward blocks of its
    rows in row order and then their backward blocks.  Within a direction
    the connections are sorted by their endpoint pairs.  Each block is built
    in C by tuple.__new__ from sorted (start, end, holonomy) triples, which
    skips the zero check of __new__ (primitive holonomies are nonzero), and
    no triple outlives its block.
    """
    vertex = origami._vertex_of_square
    rows = sorted(((p * p + q * q, -p, complex(p, q), list(map(vertex.__getitem__, ret)))
                   for p, q, ret in _return_permutations(origami, max_length)),
                  key=itemgetter(0, 1))
    # tuple.__new__(SaddleConnection, triple) is what _make does, without a
    # Python call per connection
    out, new, cls = [], tuple.__new__, repeat(SaddleConnection)
    for _, group in groupby(rows, itemgetter(0)):
        group = list(group)
        # a block repeats one holonomy object, so a tie on (start, end) ends
        # at the identity check of the tuple comparison: complex values are
        # never ordered
        for _, _, hol, ends in group:
            out += map(new, cls, sorted(zip(vertex, ends, repeat(hol))))
        for _, _, hol, ends in group:
            out += map(new, cls, sorted(zip(ends, vertex, repeat(-hol))))
    return out


def _lattice_points(k):
    """Nonzero integer vectors (p, q) with p**2 + q**2 <= k."""
    r = math.isqrt(k)
    return 2 * r + 2 * sum(2 * math.isqrt(k - q * q) + 1 for q in range(1, r + 1))


def _moebius(n):
    """The Moebius function mu(d) for 0 <= d <= n (mu(0) unused), by a sieve."""
    mu = [1] * (n + 1)
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p * p::p] = b"\x01" * len(range(p * p, n + 1, p))
            mu[p::p] = [-x for x in mu[p::p]]
            mu[p * p::p * p] = [0] * len(range(p * p, n + 1, p * p))
    return mu


def saddle_connection_count(origami, max_length=DEFAULT_LENGTH_BOUND):
    """Number of oriented saddle connections with |holonomy| <= max_length,
    equal to len(saddle_connections(origami, max_length)) without building
    them: each primitive vector of norm at most m = floor(max_length**2)
    carries one connection per square, and by Moebius inversion there are
    sum_d mu(d) N(m // d**2) of them, with N(k) the nonzero lattice points
    of norm at most k.  That takes O(L log L) integer square roots for
    L = max_length and a sieve of L entries; L > MAX_COUNT_LENGTH is refused."""
    m = _norm_bound(max_length)
    if max_length > MAX_COUNT_LENGTH:
        raise ValueError(f"max_length {max_length!r} is over the count's cap {MAX_COUNT_LENGTH}")
    mu = _moebius(math.isqrt(m))
    return origami.n * sum(mu[d] * _lattice_points(m // (d * d))
                           for d in range(1, len(mu)) if mu[d])


class Cylinder(namedtuple("Cylinder", "circumference height core_holonomy")):
    __slots__ = ()

    def __new__(cls, circumference, height, core_holonomy):
        if circumference <= 0 or height <= 0:
            raise ValueError("cylinder dimensions must be positive")
        return super().__new__(cls, circumference, height, core_holonomy)

    @property
    def area(self):
        return self.circumference * self.height


class CylinderDecomposition(namedtuple("CylinderDecomposition", "direction cylinders")):
    __slots__ = ()

    def __new__(cls, direction, cylinders):
        if not cylinders:
            raise ValueError("a decomposition holds at least one cylinder")
        return super().__new__(cls, direction, cylinders)

    def total_area(self):
        return sum(c.area for c in self.cylinders)


def cylinder_decomposition(origami, direction):
    """Cylinders of the straight-line flow in a primitive rational direction.

    For (1, 0) these are the cycles of h with circumference equal to the
    cycle length and height one; a general direction is handled through the
    first-return permutation of the flow on the union of bottom edges.  Every
    cylinder in a primitive direction (p, q) has height 1/|(p, q)| because
    every grid vertex is marked.  |p| + |q| > MAX_CROSSING_LETTERS is refused.
    """
    p_in, q_in = direction
    if p_in == 0 and q_in == 0:
        raise NotPrimitive("direction must be nonzero")
    if math.gcd(abs(p_in), abs(q_in)) != 1:
        raise NotPrimitive(f"direction {direction} has non-coprime entries")
    if abs(p_in) + abs(q_in) > MAX_CROSSING_LETTERS:
        raise ValueError(f"direction {direction} crosses more than {MAX_CROSSING_LETTERS} "
                         "grid lines (|p| + |q|)")
    # compute with the representative in the upper half plane
    p, q = (p_in, q_in) if (q_in > 0 or (q_in == 0 and p_in > 0)) else (-p_in, -q_in)

    norm = math.hypot(p, q)
    cylinders = []
    for cyc in _cycles(_return_permutation(origami, p, q)):
        m = len(cyc)
        cylinders.append(
            Cylinder(
                circumference=m * norm,
                height=1.0 / norm,
                core_holonomy=complex(m * p_in, m * q_in),
            )
        )
    decomp = CylinderDecomposition((p_in, q_in), tuple(cylinders))
    if abs(decomp.total_area() - origami.n) > TOLERANCE:
        raise RuntimeError("cylinder areas do not fill the surface")
    return decomp


class FlatMulticurve(namedtuple("FlatMulticurve", "components")):
    """Weighted union of flat geodesics, each a chain of holonomy vectors.

    Weights are positive and finite, holonomies nonzero and finite.
    """

    __slots__ = ()

    def __new__(cls, components):
        comps = []
        for weight, holonomies in components:
            weight = float(weight)
            holonomies = tuple(complex(v) for v in holonomies)
            if not 0 < weight < math.inf:
                raise ValueError(f"component weights must be positive and finite, got {weight!r}")
            if not holonomies or any(v == 0 for v in holonomies):
                raise ValueError("holonomy lists must be nonempty and nonzero")
            if not all(map(cmath.isfinite, holonomies)):
                raise ValueError(f"holonomies must be finite, got {holonomies!r}")
            comps.append((weight, holonomies))
        return super().__new__(cls, tuple(comps))

    @classmethod
    def from_cylinders(cls, decomposition):
        """Core curves of a cylinder decomposition, weighted by height."""
        return cls(tuple(
            (cyl.height, (cyl.core_holonomy,)) for cyl in decomposition.cylinders
        ))


def horizontal_multicurve(origami):
    """Weighted horizontal core curves, one per cycle of h."""
    return FlatMulticurve.from_cylinders(cylinder_decomposition(origami, (1, 0)))


def intersection_profile(multicurve, theta):
    """Pairing of the multicurve with the vertical foliation rotated by theta.

    Rotating the flat structure by theta moves each holonomy vector v to
    e^{i theta/2} v, and the pairing integrates the horizontal variation
    |Re(.)| over every segment; the result is 2*pi periodic in theta.
    """
    rot = cmath.exp(0.5j * theta)
    total = 0.0
    for weight, holonomies in multicurve.components:
        total += weight * sum(abs((rot * v).real) for v in holonomies)
    return total


ProfileExtrema = namedtuple("ProfileExtrema", "max min witness_theta")


def sample_profile(multicurve, samples):
    """The rotation profile on the uniform grid theta_j = 2 pi j / samples.

    Returns the grid angles, the values there and their ProfileExtrema: the
    grid maximum and minimum and a witness angle whose value deviates most
    from the value at theta = 0.  From 1 to MAX_SAMPLES samples are taken.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples {samples} is over the cap {MAX_SAMPLES}")
    thetas = [2 * math.pi * j / samples for j in range(samples)]
    values = [intersection_profile(multicurve, th) for th in thetas]
    witness = thetas[max(range(samples), key=lambda j: abs(values[j] - values[0]))]
    return thetas, values, ProfileExtrema(max=max(values), min=min(values),
                                          witness_theta=witness)


def profile_nonconstancy(multicurve, samples, tolerance=TOLERANCE):
    """Extrema of the rotation profile over a uniform grid of at least 8
    angles (see sample_profile).

    A profile that is flat to within the tolerance raises ConstantProfile;
    for a nonzero multicurve this only happens when the tolerance swamps the
    actual variation.  The tolerance must be positive and finite: a NaN one
    could never raise.
    """
    if samples < 8:
        raise ValueError("need at least 8 samples")
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    ext = sample_profile(multicurve, samples)[2]
    if ext.max - ext.min <= tolerance:
        raise ConstantProfile(
            f"profile spread {ext.max - ext.min:.3e} is within tolerance {tolerance:.3e}"
        )
    return ext


def intersection_q_horizontal(origami):
    """Mass of the flat structure as the pairing of its two foliations.

    Computed exactly as the sum of height times circumference over the
    horizontal cylinders; asserts agreement with the area.
    """
    mass = 0
    for cyc in _cycles(origami._h):
        mass += len(cyc) * 1  # circumference * height, both exact integers
    if mass != area(origami):
        raise RuntimeError("horizontal mass does not match the area")
    return mass


def extremal_length_flowed(origami, t, s):
    """Extremal length of the time-t vertical foliation on the time-s surface.

    The diagonal stretch flow scales the vertical foliation by e^{t-s}
    relative to the surface, and extremal length is homogeneous of degree two
    in the foliation, so the value is scale**2 times the mass of the
    unit-normalized structure.
    """
    scale = math.exp(t - s)
    return scale * scale * (intersection_q_horizontal(origami) / origami.n)
