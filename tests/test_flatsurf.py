import copy
import json
import math
import pickle
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import assert_frozen_value, perfbench_gen, random_transitive_origami
from rigidity import data
from rigidity.flatsurf import (
    BadPermutation,
    ConstantProfile,
    Cylinder,
    CylinderDecomposition,
    MAX_SAMPLES,
    FlatMulticurve,
    NonTransitive,
    NotPrimitive,
    Origami,
    ProfileExtrema,
    SaddleConnection,
    _power,
    _return_permutation,
    _return_permutations,
    area,
    build_origami,
    cylinder_decomposition,
    extremal_length_flowed,
    horizontal_multicurve,
    intersection_profile,
    intersection_q_horizontal,
    profile_nonconstancy,
    sample_profile,
    saddle_connection_count,
    saddle_connections,
)

TORUS = build_origami(1, [1], [1])
L3 = build_origami(3, [2, 1, 3], [3, 2, 1])


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def develop_oracle_census(origami, max_length):
    """Brute-force saddle connection census over the integer grid.

    Walks every germ (square, integer vector) with exact Fraction crossing
    times; a crossing whose position has both coordinates integral is a
    marked point in the interior, which disqualifies the vector.  No
    primitivity shortcut is used.  Counts (start, end, (a, b)) with the
    endpoints read from the corners of the first and the last square.
    """
    vertex = origami._vertex_of_square
    corner = {
        "bl": lambda u: vertex[u],
        "br": lambda u: vertex[origami._h[u]],
        "tl": lambda u: vertex[origami._v[u]],
        "tr": lambda u: vertex[origami._v[origami._h[u]]],
    }
    counts = Counter()
    bound = max_length * max_length
    b = 0
    while b * b <= bound:
        for a in range(-int(max_length) - 1, int(max_length) + 2):
            if (a, b) == (0, 0) or a * a + b * b > bound:
                continue
            if b == 0 and a < 0:
                continue  # mirrored below
            events = []
            hit = False
            for j in range(1, abs(a)):
                tcross = Fraction(j, abs(a))
                if (b * tcross).denominator == 1:
                    hit = True
                events.append((tcross, "h" if a > 0 else "h-"))
            for k in range(1, b):
                tcross = Fraction(k, b)
                if (a * tcross).denominator == 1:
                    hit = True
                events.append((tcross, "v"))
            if b == 0 and abs(a) >= 2:
                hit = True  # every vertical line crossing sits on the axis
            if hit:
                continue
            events.sort()
            start_corner = "bl" if a >= 0 else "br"
            end_corner = ("t" if b > 0 else "b") + ("r" if a > 0 else "l")
            for s in range(origami.n):
                u = s
                for _, kind in events:
                    if kind == "v":
                        u = origami._v[u]
                    elif kind == "h":
                        u = origami._h[u]
                    else:
                        u = origami._h_inv[u]
                start = corner[start_corner](s)
                end = corner[end_corner](u)
                counts[(start, end, (a, b))] += 1
                counts[(end, start, (-a, -b))] += 1
        b += 1
    return counts


def develop_oracle_counts(origami, max_length):
    """Holonomy multiplicities of develop_oracle_census."""
    counts = Counter()
    for (_, _, hol), c in develop_oracle_census(origami, max_length).items():
        counts[hol] += c
    return counts


def census_keys(connections):
    return Counter(
        (s.start, s.end, (int(s.holonomy.real), int(s.holonomy.imag)))
        for s in connections
    )


def fraction_census(origami, max_length):
    """Reference census: one sorted list of Fraction crossing events per
    (direction, square) germ, sorted by the float key (abs, atan2).  This was
    the library's enumeration before the per-direction integer word; the two
    orders agree while no two equal-length vectors round apart (|v| <= 40)."""
    vertex = origami._vertex_of_square
    out = []
    for p, q in brute_force_directions(max_length):
        for s in range(origami.n):
            if q == 0:
                start, end = vertex[s], vertex[origami._h[s]]
            else:
                events = [(Fraction(j, q), "v") for j in range(1, q)]
                if p > 0:
                    events += [(Fraction(j, p), "h") for j in range(1, p)]
                elif p < 0:
                    events += [(Fraction(j, -p), "h-") for j in range(1, -p)]
                events.sort()
                u = s
                for _, kind in events:
                    if kind == "v":
                        u = origami._v[u]
                    elif kind == "h":
                        u = origami._h[u]
                    else:
                        u = origami._h_inv[u]
                start = vertex[s] if p >= 0 else vertex[origami._h[s]]
                end = vertex[origami._v[origami._h[u]]] if p > 0 else vertex[origami._v[u]]
            out.append(SaddleConnection(start, end, complex(p, q)))
            out.append(SaddleConnection(end, start, -complex(p, q)))

    def sort_key(sc):
        ang = math.atan2(sc.holonomy.imag, sc.holonomy.real) % (2 * math.pi)
        return (abs(sc.holonomy), ang, sc.start, sc.end)

    out.sort(key=sort_key)
    return out


def block_sort_census(origami, max_length):
    """Reference construction: the library's census before its rows were
    grouped by norm.  Two blocks per direction, each a key, a holonomy and a
    sorted list of (start, end) pairs; the blocks are sorted by the key
    (norm, half plane, -p) and every connection is made by _make."""
    vertex = origami._vertex_of_square
    blocks = []
    for p, q, ret in _return_permutations(origami, max_length):
        ends = [vertex[r] for r in ret]
        hol = complex(p, q)
        norm2 = p * p + q * q
        blocks.append(((norm2, 0, -p), hol, sorted(zip(vertex, ends))))
        blocks.append(((norm2, 1, -p), -hol, sorted(zip(ends, vertex))))
    blocks.sort(key=lambda block: block[0])
    make = SaddleConnection._make
    return [make((start, end, hol)) for _, hol, pairs in blocks for start, end in pairs]


def primitive_count(max_length):
    """#{v in Z^2 primitive, |v| <= max_length}, counted over the square."""
    r = math.isqrt(int(max_length * max_length))
    return sum(
        1
        for a in range(-r, r + 1)
        for b in range(-r, r + 1)
        if a * a + b * b <= max_length * max_length and math.gcd(a, b) == 1
    )


def return_word_exponents(p, q):
    """Horizontal crossing counts between consecutive bottom-edge returns of
    the flow in direction (p, q), q > 0, from the band midpoint phase 1/(2q);
    the first-return construction the library used before its crossing word."""
    x = Fraction(1, 2 * q)
    step = Fraction(p, q)
    exponents = []
    for _ in range(q):
        nxt = x + step
        exponents.append(math.floor(nxt) - math.floor(x))
        x = nxt - math.floor(nxt)
    return exponents


def letter_return_permutation(origami, p, q):
    """First-return permutation of the flow in the primitive upper direction
    (p, q), q > 0, from its crossing word of |p| + q letters; the library's
    construction before the Stern-Brocot descent.

    The flow crosses each vertical grid line (applying h, or its inverse when
    moving left) and each horizontal one (applying v) in the order of its
    crossing times.  The v letter j (time j/q, j = 1..q) is merged with the
    side letter k in integer arithmetic: moving right, line k is crossed at
    time just before k/|p| and precedes v letter j iff k*q <= j*|p|; moving
    left, line k is crossed just after (k - 1)/|p|, so the first side letter
    comes at once.  For a primitive vector only the last letters tie, at
    time 1, where the vertical line is crossed first.  The word is applied to
    all squares together, one permutation per letter.
    """
    side = origami._h if p > 0 else origami._h_inv
    a, lag = abs(p), int(p < 0)
    u, k = list(range(origami.n)), 1
    for j in range(1, q + 1):
        while k <= a and (k - lag) * q <= j * a:
            u = [side[x] for x in u]
            k += 1
        u = [origami._v[x] for x in u]
    return u


def flow_orbit_period(origami, start_square, start_x, p, q):
    """Exact square-by-square straight-line flow from a bottom-edge point.

    Returns the holonomy multiple c: the orbit closes after displacement
    c * (p, q).  Independent of the first-return-word construction used by
    cylinder_decomposition.
    """
    u, x = start_square, Fraction(start_x)
    y = Fraction(0)
    crossings = 0
    while True:
        # candidate exit times from square u, measured in flow time
        times = [(Fraction(1 - y, q), "top")]
        if p > 0:
            times.append((Fraction(1 - x, p), "right"))
        elif p < 0:
            times.append((Fraction(x, -p), "left"))
        tmin, kind = min(times)
        x += p * tmin
        y += q * tmin
        if kind == "right":
            u, x = origami._h[u], Fraction(0)
        elif kind == "left":
            u, x = origami._h_inv[u], Fraction(1)
        else:
            u, y = origami._v[u], Fraction(0)
            crossings += 1
            if (u, x) == (start_square, Fraction(start_x)):
                assert crossings % q == 0
                return crossings // q


# ---------------------------------------------------------------------------
# construction and invariants
# ---------------------------------------------------------------------------

def test_torus_construction():
    assert TORUS.genus == 1
    assert TORUS.vertex_count == 1
    assert TORUS.cone_angles == (1,)
    assert area(TORUS) == 1


def test_l_shape_is_genus_two_with_single_cone_point():
    assert L3.genus == 2
    assert L3.vertex_count == 1
    assert L3.cone_angles == (3,)  # one cone point of angle 6 pi
    assert area(L3) == 3


def test_disconnected_pair_rejected():
    with pytest.raises(NonTransitive):
        build_origami(2, [1, 2], [1, 2])


def test_bad_permutations_rejected():
    with pytest.raises(BadPermutation):
        build_origami(2, [1, 1], [1, 2])
    with pytest.raises(BadPermutation):
        build_origami(2, [1, 2, 3], [1, 2])
    with pytest.raises(BadPermutation):
        build_origami(2, [0, 1], [1, 2])
    # bool is an int subclass, yet no square label
    with pytest.raises(BadPermutation, match="True"):
        Origami([True, 2], [1, 2])
    with pytest.raises(BadPermutation, match="False"):
        build_origami(2, [2, 1], [2, False])


def test_origami_reads_each_gluing_once():
    # one-shot iterators: a second read of either would find them empty
    assert Origami(iter([2, 1]), iter([1, 2])) == Origami([2, 1], [1, 2])
    assert build_origami(2, (x for x in [2, 1]), [1, 2]) == Origami([2, 1], [1, 2])
    assert build_origami(2, [2, 1], (x for x in [1, 2])) == Origami([2, 1], [1, 2])


def test_origami_hashes_and_shows_its_gluings():
    a = Origami([2, 1], [1, 2])
    assert hash(a) == hash(Origami([2, 1], [1, 2]))
    assert len({a, Origami([2, 1], [1, 2]), Origami([1, 2], [2, 1])}) == 2
    assert repr(a) == "Origami(h=[2, 1], v=[1, 2])"


def _read_text(tmp_path, text):
    """text parsed by the package's JSON reader, as the CLI parses a file."""
    path = tmp_path / "origami.json"
    path.write_text(text, encoding="utf-8")
    return data.read_json(path)


def test_json_bool_entries_rejected(tmp_path):
    payload = '{"n": 2, "h": [true, 2], "v": [2, 1]}'
    with pytest.raises(BadPermutation):
        Origami.from_json(json.loads(payload))
    with pytest.raises(BadPermutation):
        Origami.from_json(_read_text(tmp_path, payload))


@pytest.mark.parametrize("payload", [
    '{"n": 2.0, "h": [2, 1], "v": [1, 2]}',
    '{"n": true, "h": [1], "v": [1]}',
    '{"n": "1", "h": [1], "v": [1]}',
], ids=["float_n", "bool_n", "str_n"])
def test_json_square_count_must_be_an_int(tmp_path, payload):
    with pytest.raises(BadPermutation, match="square count n must be an int"):
        Origami.from_json(_read_text(tmp_path, payload))


@pytest.mark.parametrize("payload, message", [
    ('{"n": 2, "h": 5, "v": [1, 2]}', 'origami JSON must be {"n": int, "h": [...], "v": [...]}'),
    ('{"n": 2, "h": [2, 1], "v": "12"}', 'origami JSON must be {"n": int, "h": [...], "v": [...]}'),
    ('[1, 2]', 'origami JSON must be {"n": int, "h": [...], "v": [...]}'),
    ('{"h": [1], "v": [1]}', "square count n must be an int, got None"),
])
def test_json_of_another_shape_is_refused_by_name(tmp_path, payload, message):
    with pytest.raises(BadPermutation) as info:
        Origami.from_json(_read_text(tmp_path, payload))
    assert str(info.value) == message


def test_euler_characteristic_on_random_origamis():
    rnd = random.Random(20240)
    for _ in range(20):
        o = random_transitive_origami(rnd, 2, 8)
        assert o.vertex_count - o.n == 2 - 2 * o.genus
        assert o.genus >= 0
        assert sum(k - 1 for k in o.cone_angles) == 2 * o.genus - 2


def test_json_round_trip(tmp_path):
    payload = {"n": L3.n, "h": list(L3.h_images), "v": list(L3.v_images)}
    assert Origami.from_json(_read_text(tmp_path, json.dumps(payload))) == L3


# ---------------------------------------------------------------------------
# saddle connections
# ---------------------------------------------------------------------------

def test_torus_unit_ball_of_connections():
    scs = saddle_connections(TORUS, 2.0)
    hols = {(int(s.holonomy.real), int(s.holonomy.imag)) for s in scs}
    assert hols == {(1, 0), (0, 1), (1, 1), (-1, 1), (-1, 0), (0, -1), (-1, -1), (1, -1)}
    assert len(scs) == 8


def test_torus_short_bound_is_empty():
    assert saddle_connections(TORUS, 0.5) == []


def test_torus_bound_two_and_a_half():
    # 16 primitive vectors fit in the disk of radius 2.5 (the (2,1) family
    # has length sqrt(5) < 2.5); verified against develop_oracle_counts
    scs = saddle_connections(TORUS, 2.5)
    got = Counter((int(s.holonomy.real), int(s.holonomy.imag)) for s in scs)
    assert got == develop_oracle_counts(TORUS, 2.5)
    assert len(scs) == 16


def test_l_shape_unit_connections_have_multiplicity_three():
    scs = saddle_connections(L3, 1.0)
    got = Counter((int(s.holonomy.real), int(s.holonomy.imag)) for s in scs)
    assert got == {(1, 0): 3, (0, 1): 3, (-1, 0): 3, (0, -1): 3}


@pytest.mark.parametrize("name", ["torus", "cylinder_pair", "l_shape_3", "stair_4",
                                  "cross_5", "grid_3x2_6"])
def test_enumeration_matches_development_oracle(name):
    o = data.origami(name)
    got = Counter(
        (int(s.holonomy.real), int(s.holonomy.imag))
        for s in saddle_connections(o, 6.0)
    )
    assert got == develop_oracle_counts(o, 6.0)


def test_enumeration_covering_count():
    # the projection to the one-square torus is an unbranched cover away
    # from the marked points, so every primitive vector lifts to exactly n
    # oriented connections
    rnd = random.Random(7)
    for _ in range(5):
        o = random_transitive_origami(rnd, 2, 6)
        got = Counter(
            (int(s.holonomy.real), int(s.holonomy.imag))
            for s in saddle_connections(o, 4.0)
        )
        prim = {
            (a, b)
            for a in range(-4, 5)
            for b in range(-4, 5)
            if (a, b) != (0, 0) and a * a + b * b <= 16
            and math.gcd(abs(a), abs(b)) == 1
        }
        assert set(got) == prim
        assert all(c == o.n for c in got.values())


def test_connection_endpoints_on_two_marked_torus():
    # two squares side by side: the marked points alternate along the core,
    # so each horizontal unit connection joins the two distinct vertices
    o = data.origami("cylinder_pair")
    assert o.vertex_count == 2
    horiz = [s for s in saddle_connections(o, 1.0) if s.holonomy == 1]
    assert len(horiz) == 2
    assert {(s.start, s.end) for s in horiz} == {(0, 1), (1, 0)}


def test_enumeration_is_sorted_and_deterministic():
    scs = saddle_connections(L3, 3.0)
    assert scs == saddle_connections(L3, 3.0)
    lengths = [s.length for s in scs]
    assert lengths == sorted(lengths)


@pytest.mark.parametrize("name", data.origami_names())
def test_enumeration_endpoints_match_development_oracle(name):
    o = data.origami(name)
    assert census_keys(saddle_connections(o, 6.0)) == develop_oracle_census(o, 6.0)


def test_enumeration_endpoints_match_development_oracle_random():
    rnd = random.Random(12)
    for _ in range(6):
        o = random_transitive_origami(rnd, 2, 12)
        assert census_keys(saddle_connections(o, 4.5)) == develop_oracle_census(o, 4.5)


@pytest.mark.parametrize("name", data.origami_names())
def test_census_equals_fraction_reference(name):
    o = data.origami(name)
    for L in (1.0, 2.5, 7.0, 20.0):
        census = saddle_connections(o, L)
        assert census == fraction_census(o, L)
        assert len(census) == o.n * primitive_count(L)


def test_census_equals_fraction_reference_random():
    rnd = random.Random(4)
    for n_min, n_max, L in ((2, 10, 12.0), (10, 30, 9.0), (30, 60, 7.0), (60, 60, 5.0)):
        o = random_transitive_origami(rnd, n_min, n_max)
        census = saddle_connections(o, L)
        assert census == fraction_census(o, L)
        assert len(census) == o.n * primitive_count(L)


@pytest.mark.parametrize("name", data.origami_names())
def test_connection_count_equals_census_length(name):
    o = data.origami(name)
    for L in (0.0, 0.5, 1.0, 1.5, 2.5, 7.0, 10.0, 20.0, 40.0):
        assert saddle_connection_count(o, L) == len(saddle_connections(o, L))


def test_connection_count_equals_census_length_random():
    rnd = random.Random(11)
    for n_min, n_max, L in ((2, 10, 12.0), (10, 30, 9.0), (30, 60, 7.5), (60, 60, 6.0)):
        o = random_transitive_origami(rnd, n_min, n_max)
        assert saddle_connection_count(o, L) == len(saddle_connections(o, L))


def test_census_order_is_exact_beyond_float_lengths():
    # (52, 17) and (47, -28) both have norm 2993, yet abs() rounds the first
    # above the second; the census puts them in angle order all the same
    assert abs(complex(52, 17)) > abs(complex(47, -28))
    o = data.origami("cylinder_pair")
    census = saddle_connections(o, 60.0)
    assert len(census) == o.n * primitive_count(60.0)

    def half(a, b):
        return 0 if b > 0 or (b == 0 and a > 0) else 1

    hols = [(int(s.holonomy.real), int(s.holonomy.imag)) for s in census]
    for (a, b), (c, d) in zip(hols, hols[1:]):
        n1, n2 = a * a + b * b, c * c + d * d
        assert n1 <= n2
        if n1 == n2 and (a, b) != (c, d):
            assert half(a, b) < half(c, d) or (
                half(a, b) == half(c, d) and a * d - b * c > 0)
    assert hols.index((52, 17)) < hols.index((47, -28))
    lengths = [s.length for s in census]
    assert all(x <= y for x, y in zip(lengths, lengths[1:]))
    assert all(s.length == math.sqrt(a * a + b * b) for s, (a, b) in zip(census, hols))


def brute_force_directions(max_length):
    """Every primitive (p, q) with q > 0 or (p, q) = (1, 0) and
    p*p + q*q <= max_length*max_length, ordered by q, then p."""
    r = math.ceil(max_length)
    return sorted(
        ((p, q) for q in range(r + 1) for p in range(-r, r + 1)
         if (q > 0 or p > 0) and math.gcd(p, q) == 1
         and p * p + q * q <= max_length * max_length),
        key=lambda v: (v[1], v[0]))


def test_primitive_directions_match_brute_force():
    rnd = random.Random(17)
    roots = [math.sqrt(k) for k in range(400)]
    bounds = (roots + [math.nextafter(x, math.inf) for x in roots]
              + [math.nextafter(x, 0.0) for x in roots]
              + [rnd.uniform(0.0, 45.0) for _ in range(40)]
              + [0, 7, Fraction(7, 3), Fraction(10 ** 6 + 1, 10 ** 5)])
    for L in bounds:
        walked = sorted((p, q) for p, q, _ in _return_permutations(TORUS, L))
        assert walked == sorted(brute_force_directions(L)), L


def test_connection_count_equals_the_benchmark_primitive_count():
    # the Moebius sum against perfbench's count over the whole disk, and
    # against one histogram of primitive norms up to 200**2
    gen = perfbench_gen()
    for L in list(range(41)) + [50, 75, 100, 150, 200]:
        assert saddle_connection_count(TORUS, L) == gen.primitive_count(L), L
    norms = Counter(a * a + b * b for a in range(-200, 201) for b in range(-200, 201)
                    if math.gcd(a, b) == 1)
    below = [0]
    for k in range(200 * 200 + 1):
        below.append(below[-1] + norms[k])
    for k in [*range(3000), *range(3000, 200 * 200 + 1, 53)]:
        bound = math.sqrt(k)   # the count runs to norm floor(bound**2), k or k - 1
        assert saddle_connection_count(TORUS, bound) == below[math.floor(bound * bound) + 1], k
    assert saddle_connection_count(data.origami("stair_4"), 200) == 4 * below[-1]


def test_connection_count_at_a_large_bound_is_quick():
    start = time.perf_counter()
    count = saddle_connection_count(TORUS, 10_000)
    assert time.perf_counter() - start < 2.0
    # the primitive vectors fill the disk with density 6 / pi**2
    assert abs(count / (6 / math.pi * 10_000 ** 2) - 1) < 1e-4


@pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0, -1])
def test_length_bound_must_be_finite_and_non_negative(bound):
    with pytest.raises(ValueError, match="max_length"):
        saddle_connections(TORUS, bound)
    with pytest.raises(ValueError, match="max_length"):
        saddle_connection_count(TORUS, bound)


def tree_permutations(origami, max_length):
    """The Stern-Brocot walk's permutations, checked against the run-wise
    descent of _return_permutation direction by direction."""
    walked = [(p, q, list(ret)) for p, q, ret in _return_permutations(origami, max_length)]
    got = {(p, q): ret for p, q, ret in walked}
    assert len(got) == len(walked), "a direction was walked twice"
    assert sorted(got) == sorted(brute_force_directions(max_length))
    for (p, q), ret in got.items():
        assert ret == list(_return_permutation(origami, p, q)), (p, q)
    return got


@pytest.mark.parametrize("name", data.origami_names())
def test_tree_permutations_match_crossing_words(name):
    o = data.origami(name)
    for L in (1.5, 7.0, 20.0):
        got = tree_permutations(o, L)
        assert any(p < 0 for p, _ in got) and any(p > 0 for p, _ in got)


def test_tree_permutations_match_crossing_words_random():
    rnd = random.Random(23)
    for n_min, n_max, L in ((2, 4, 40.0), (5, 8, 30.0), (8, 20, 20.0),
                            (20, 40, 12.0), (40, 60, 9.0), (60, 60, 6.5)):
        tree_permutations(random_transitive_origami(rnd, n_min, n_max), L)


def test_tree_permutations_at_exact_norm_bounds():
    o = build_origami(5, [2, 3, 1, 5, 4], [4, 1, 5, 3, 2])
    for k in range(1, 90):
        root = math.sqrt(k)
        for L in (root, math.nextafter(root, 0.0), math.nextafter(root, math.inf)):
            tree_permutations(o, L)


def test_tree_permutations_below_and_at_unit_bound():
    for L in (0, 0.0, 0.5, math.nextafter(1.0, 0.0)):
        assert list(_return_permutations(L3, L)) == []
        assert saddle_connections(L3, L) == []
    assert tree_permutations(L3, 1.0) == {(1, 0): [1, 0, 2], (0, 1): [2, 1, 0]}


def test_saddle_connection_is_frozen_and_slotted():
    sc = SaddleConnection(0, 1, complex(2, 1))
    with pytest.raises(AttributeError):
        sc.start = 1
    with pytest.raises(AttributeError):
        sc.holonomy = 1j
    assert not hasattr(sc, "__dict__")
    assert not hasattr(saddle_connections(L3, 1.0)[0], "__dict__")


def test_saddle_connection_value_semantics():
    sc = SaddleConnection(0, 1, complex(2, 1))
    assert sc == SaddleConnection(0, 1, complex(2, 1))
    assert hash(sc) == hash(SaddleConnection(0, 1, complex(2, 1)))
    assert sc != SaddleConnection(1, 0, complex(2, 1))
    assert sc != SaddleConnection(0, 1, complex(2, -1))
    assert repr(sc) == "SaddleConnection(start=0, end=1, holonomy=(2+1j))"
    assert sc == (0, 1, complex(2, 1)) and tuple(sc) == (sc.start, sc.end, sc.holonomy)
    assert sc.length == math.sqrt(5)
    for clone in (pickle.loads(pickle.dumps(sc)), copy.copy(sc), copy.deepcopy(sc)):
        assert clone == sc and hash(clone) == hash(sc) and repr(clone) == repr(sc)


def test_saddle_connection_rejects_zero_holonomy():
    with pytest.raises(ValueError, match="nonzero"):
        SaddleConnection(0, 0, 0j)


# each value is built twice; the repr and hash are those of the frozen
# dataclasses these classes were, which hashed the tuple of their fields
VALUES = {
    "Cylinder": (lambda: Cylinder(3.0, 0.5, 3 + 0j), lambda: Cylinder(3.0, 0.5, 3j),
                 "Cylinder(circumference=3.0, height=0.5, core_holonomy=(3+0j))",
                 5100872824621620479),
    "CylinderDecomposition": (
        lambda: cylinder_decomposition(L3, (1, 0)), lambda: cylinder_decomposition(L3, (0, 1)),
        "CylinderDecomposition(direction=(1, 0), cylinders=("
        "Cylinder(circumference=2.0, height=1.0, core_holonomy=(2+0j)), "
        "Cylinder(circumference=1.0, height=1.0, core_holonomy=(1+0j))))",
        -8491743503325978530),
    "FlatMulticurve": (
        lambda: FlatMulticurve(((1, (2, 1j)), (0.5, (1 + 1j,)))),
        lambda: FlatMulticurve(((1, (2, 1j)),)),
        "FlatMulticurve(components=((1.0, ((2+0j), 1j)), (0.5, ((1+1j),))))",
        1960457532490150540),
    "ProfileExtrema": (
        lambda: ProfileExtrema(max=2.0, min=1.0, witness_theta=math.pi),
        lambda: ProfileExtrema(max=2.0, min=1.0, witness_theta=0.0),
        "ProfileExtrema(max=2.0, min=1.0, witness_theta=3.141592653589793)",
        -19913774438682816),
}


@pytest.mark.parametrize("make, other, text, digest", VALUES.values(), ids=VALUES)
def test_value_classes_are_frozen_slotted_values(make, other, text, digest):
    assert_frozen_value(make, other, text, digest)


@pytest.mark.parametrize("make, message", [
    (lambda: Cylinder(0.0, 1.0, 1j), "cylinder dimensions must be positive"),
    (lambda: Cylinder(1.0, -1.0, 1j), "cylinder dimensions must be positive"),
    (lambda: CylinderDecomposition((1, 0), ()), "a decomposition holds at least one cylinder"),
    (lambda: FlatMulticurve(((0.0, (1j,)),)), "weights must be positive and finite"),
    (lambda: FlatMulticurve(((1.0, ()),)), "holonomy lists must be nonempty and nonzero"),
    (lambda: FlatMulticurve(((1.0, (1j, 0)),)), "holonomy lists must be nonempty and nonzero"),
])
def test_value_constructors_validate(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_census_connections_equal_constructed_ones():
    census = saddle_connections(data.origami("grid_3x2_6"), 3.0)
    rebuilt = [SaddleConnection(sc.start, sc.end, sc.holonomy) for sc in census]
    assert census == rebuilt
    assert [hash(sc) for sc in census] == [hash(sc) for sc in rebuilt]
    assert [repr(sc) for sc in census] == [repr(sc) for sc in rebuilt]
    assert pickle.loads(pickle.dumps(census)) == census


def assert_census_equals_block_sort(origami, max_length):
    census = saddle_connections(origami, max_length)
    reference = block_sort_census(origami, max_length)
    assert census == reference
    assert [repr(sc) for sc in census] == [repr(sc) for sc in reference]
    assert all(type(sc) is SaddleConnection for sc in census)
    return census


def test_census_equals_block_sort_construction():
    # the bundled origamis at the flat_census benchmark's bounds
    for name, L in (("torus", 40), ("cylinder_pair", 40), ("l_shape_3", 35),
                    ("stair_4", 25), ("cross_5", 20), ("grid_3x2_6", 20)):
        assert_census_equals_block_sort(data.origami(name), L)
    # many squares per vertex: many equal (start, end) pairs in each direction
    rnd = random.Random(17)
    for n_min, n_max, L in ((8, 12, 20), (12, 20, 15), (20, 30, 12), (45, 60, 10)):
        o = random_transitive_origami(rnd, n_min, n_max)
        census = assert_census_equals_block_sort(o, L)
        pairs = Counter((sc.start, sc.end, sc.holonomy) for sc in census)
        assert max(pairs.values()) > 1
    for L in (0.0, 0.5, 0.99):
        assert assert_census_equals_block_sort(L3, L) == []


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------

def test_l_shape_horizontal_cylinders():
    dec = cylinder_decomposition(L3, (1, 0))
    assert sorted(c.circumference for c in dec.cylinders) == [1.0, 2.0]
    assert [c.height for c in dec.cylinders] == [1.0, 1.0]


def test_l_shape_vertical_cylinders():
    dec = cylinder_decomposition(L3, (0, 1))
    assert sorted(c.circumference for c in dec.cylinders) == [1.0, 2.0]


def test_torus_cylinders():
    dec = cylinder_decomposition(TORUS, (1, 0))
    assert len(dec.cylinders) == 1
    assert dec.cylinders[0].circumference == 1.0
    assert dec.cylinders[0].height == 1.0
    diag = cylinder_decomposition(TORUS, (1, 1))
    assert len(diag.cylinders) == 1
    assert abs(diag.cylinders[0].circumference - math.sqrt(2)) < 1e-12
    assert abs(diag.cylinders[0].height - 1 / math.sqrt(2)) < 1e-12


def test_l_shape_diagonal_is_one_cylinder():
    dec = cylinder_decomposition(L3, (1, 1))
    assert len(dec.cylinders) == 1
    assert abs(dec.cylinders[0].circumference - 3 * math.sqrt(2)) < 1e-12


def test_non_primitive_direction_rejected():
    with pytest.raises(NotPrimitive):
        cylinder_decomposition(L3, (2, 2))
    with pytest.raises(NotPrimitive):
        cylinder_decomposition(L3, (0, 0))


def test_cylinder_area_identity_random():
    rnd = random.Random(99)
    for _ in range(8):
        o = random_transitive_origami(rnd, 2, 7)
        for d in ((1, 0), (0, 1), (1, 1), (2, 1), (-1, 2), (3, -2), (-2, -3)):
            dec = cylinder_decomposition(o, d)
            assert abs(dec.total_area() - o.n) < 1e-9


def test_cylinders_against_flow_oracle():
    rnd = random.Random(31)
    for _ in range(4):
        o = random_transitive_origami(rnd, 2, 6)
        for p, q in ((1, 1), (2, 1), (-1, 2), (1, 3)):
            dec = cylinder_decomposition(o, (p, q))
            # predicted orbit-period census on a phase grid of M per edge
            M = 2 * q
            predicted = Counter()
            for cyl in dec.cylinders:
                m = round(cyl.circumference / math.hypot(p, q))
                predicted[m] += m * M
            observed = Counter()
            for s in range(o.n):
                for i in range(M):
                    x = Fraction(2 * i + 1, 2 * M)
                    observed[flow_orbit_period(o, s, x, p, q)] += 1
            assert observed == predicted


def test_return_permutation_matches_exponent_construction():
    rnd = random.Random(55)
    for _ in range(8):
        o = random_transitive_origami(rnd, 2, 30)
        for p, q in brute_force_directions(8.0):
            if q == 0:
                continue
            word = list(range(o.n))
            for e in return_word_exponents(p, q):
                perm = o._h if e >= 0 else o._h_inv
                for _ in range(abs(e)):
                    word = [perm[u] for u in word]
                word = [o._v[u] for u in word]
            assert _return_permutation(o, p, q) == word, (p, q)


def test_power_matches_repeated_composition():
    rnd = random.Random(3)
    for _ in range(20):
        perm = list(range(rnd.randint(1, 12)))
        rnd.shuffle(perm)
        power = list(range(len(perm)))
        for k in range(30):
            assert _power(perm, k) == power, (perm, k)
            power = [perm[x] for x in power]


def test_return_permutation_matches_letter_word():
    # every primitive upper direction with |p|, q <= 25 but (1, 0)
    directions = [(p, q) for q in range(1, 26) for p in range(-25, 26) if math.gcd(p, q) == 1]
    rnd = random.Random(19)
    origamis = [data.origami(name) for name in data.origami_names()]
    origamis += [random_transitive_origami(rnd, 2, 40) for _ in range(8)]
    for o in origamis:
        for p, q in directions:
            assert _return_permutation(o, p, q) == letter_return_permutation(o, p, q), (o, p, q)
    assert list(_return_permutation(L3, 1, 0)) == list(L3._h)


def test_return_permutation_matches_letter_word_at_the_cap():
    # |p| + q = MAX_CROSSING_LETTERS, one partial quotient of 99999
    for name in ("l_shape_3", "grid_3x2_6"):
        o = data.origami(name)
        for p, q in ((1, 99999), (-1, 99999), (99999, 1)):
            assert _return_permutation(o, p, q) == letter_return_permutation(o, p, q), (p, q)


# ---------------------------------------------------------------------------
# intersection profiles
# ---------------------------------------------------------------------------

def test_l_shape_profile_closed_form():
    G = horizontal_multicurve(L3)
    assert abs(intersection_profile(G, 0.0) - 3.0) < 1e-12
    for theta in [0.1 * k for k in range(63)]:
        assert abs(intersection_profile(G, theta) - 3 * abs(math.cos(theta / 2))) < 1e-12
    assert intersection_profile(G, math.pi) < 1e-12


def test_profile_symmetry_and_periodicity():
    G = horizontal_multicurve(L3)
    for theta in (0.3, 1.7, 2.9):
        assert abs(intersection_profile(G, theta) - intersection_profile(G, -theta)) < 1e-12
        assert abs(intersection_profile(G, theta) - intersection_profile(G, theta + 2 * math.pi)) < 1e-12


def test_profile_homogeneity_in_weights():
    G = FlatMulticurve(((1.0, (2 + 0j, 1j)), (0.5, (1 + 1j,))))
    for c in (2.0, 0.25, 7.5):
        scaled = FlatMulticurve(tuple((w * c, hs) for w, hs in G.components))
        for theta in (0.0, 0.9, 2.2):
            assert abs(
                intersection_profile(scaled, theta) - c * intersection_profile(G, theta)
            ) < 1e-12


def test_nonconstancy_l_shape():
    ext = profile_nonconstancy(horizontal_multicurve(L3), 360)
    assert abs(ext.max - 3.0) < 1e-12
    assert ext.min < 1e-12  # theta = pi is on the 360 grid
    assert ext.max - ext.min >= 2.9
    assert abs(ext.witness_theta - math.pi) < 1e-12


def test_nonconstancy_torus_and_orthogonal_pair():
    ext = profile_nonconstancy(FlatMulticurve(((1.0, (1 + 0j,)),)), 360)
    assert abs(ext.max - 1.0) < 1e-12
    grid_min = min(abs(math.cos(math.pi * j / 360)) for j in range(360))
    assert abs(ext.min - grid_min) < 1e-12

    pair = FlatMulticurve(((1.0, (1 + 0j,)), (1.0, (1j,))))
    ext = profile_nonconstancy(pair, 360)
    assert abs(ext.max - math.sqrt(2)) < 1e-6  # attained near theta = pi/2


def test_constant_profile_error_when_tolerance_swamps():
    with pytest.raises(ConstantProfile):
        profile_nonconstancy(horizontal_multicurve(L3), 360, tolerance=10.0)
    with pytest.raises(ValueError):
        profile_nonconstancy(horizontal_multicurve(L3), 4)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_multicurve_rejects_non_finite_weights(weight):
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        FlatMulticurve(((weight, (1 + 0j,)),))


@pytest.mark.parametrize("holonomy", [complex(math.nan, 0), complex(0, math.nan),
                                      complex(math.inf, 1), complex(1, -math.inf)])
def test_multicurve_rejects_non_finite_holonomies(holonomy):
    with pytest.raises(ValueError, match="holonomies must be finite"):
        FlatMulticurve(((1.0, (1 + 0j, holonomy)),))


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-9])
def test_nonconstancy_rejects_tolerance_not_positive_and_finite(tolerance):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        profile_nonconstancy(horizontal_multicurve(L3), 360, tolerance=tolerance)


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**9])
def test_sample_count_over_the_cap_is_refused(samples):
    with pytest.raises(ValueError, match=f"samples {samples} is over the cap {MAX_SAMPLES}"):
        sample_profile(horizontal_multicurve(L3), samples)


# ---------------------------------------------------------------------------
# mass, flow, rotation
# ---------------------------------------------------------------------------

def test_mass_identity_exact_on_bundled():
    for name in data.origami_names():
        o = data.origami(name)
        assert intersection_q_horizontal(o) == area(o)


def test_mass_identity_relabeling_invariance():
    rnd = random.Random(3)
    perm = list(range(1, 4))
    rnd.shuffle(perm)
    relabel = {i + 1: perm[i] for i in range(3)}
    inv = {w: k for k, w in relabel.items()}
    h = [relabel[L3.h(inv[i])] for i in range(1, 4)]
    v = [relabel[L3.v(inv[i])] for i in range(1, 4)]
    o = build_origami(3, h, v)
    assert intersection_q_horizontal(o) == intersection_q_horizontal(L3)
    assert area(o) == area(L3)


def test_flow_formula():
    assert extremal_length_flowed(L3, 0.5, 0.5) == 1.0
    assert abs(extremal_length_flowed(L3, 0.7, 0.2) - math.e) < 1e-12
    # direct rescaling: scale e^{-s} applied to a unit-area foliation
    for s in (0.0, 0.4, 1.5):
        assert abs(extremal_length_flowed(L3, 0.0, s) - math.exp(-s) ** 2) < 1e-12


def test_flow_identity_product():
    for t, s in ((0.0, 1.0), (0.3, -0.7), (2.0, 0.5)):
        prod = extremal_length_flowed(L3, t, s) * extremal_length_flowed(L3, s, t)
        assert abs(prod - 1.0) < 1e-12
