import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity import data
from rigidity.exactpoly import (
    MAX_DEGREE_Y,
    MAX_DIVISOR_STEPS,
    MAX_ROOT_CANDIDATES,
    BivariatePolynomial,
    GaussianRational,
    RationalPoly,
    _bareiss_det,
    _common,
    _divisors,
    _gi_exact_div,
    rational_nth_root,
    rational_roots,
)


def _cofactor_det(rows):
    """Determinant of a square matrix of RationalPoly via cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = RationalPoly.zero()
    for i in range(n):
        pivot = rows[i][0]
        if pivot.is_zero:
            continue
        minor = [r[1:] for j, r in enumerate(rows) if j != i]
        out = out + pivot * _cofactor_det(minor) * (-1) ** i
    return out


def _cofactor_discriminant(P):
    """Reference discriminant: the Sylvester determinant of P and dP/dy,
    expanded by cofactors (exponential cost, small inputs only)."""
    Q = P.dy()
    m, n = P.degree_y, Q.degree_y
    size = m + n
    zero = RationalPoly.zero()
    pc = list(reversed(P.coeffs))
    qc = list(reversed(Q.coeffs))
    rows = [[zero] * i + pc + [zero] * (size - m - 1 - i) for i in range(n)]
    rows += [[zero] * i + qc + [zero] * (size - n - 1 - i) for i in range(m)]
    return _cofactor_det(rows)


def _resultant_y(P, Q):
    """Sylvester resultant of two bivariate polynomials of degree >= 1 in y,
    eliminating y: the reference for the Hankel route of discriminant.

    Over the common denominator D of all coefficients, the Sylvester matrix
    of the numerators is D times that of P and Q, so its determinant, taken
    over the Gaussian integers by _bareiss_det, is D**(m + n) times the
    resultant.
    """
    m, n = P.degree_y, Q.degree_y
    nums, denom = _common(P.coeffs + Q.coeffs)
    pc, qc = nums[m::-1], nums[:m:-1]
    size = m + n
    rows = [[[]] * i + pc + [[]] * (size - m - 1 - i) for i in range(n)]
    rows += [[[]] * i + qc + [[]] * (size - n - 1 - i) for i in range(m)]
    return RationalPoly._make(_bareiss_det(rows), denom**size)


_gaussian_rationals = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.one_of(st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=6)),
)
_t_polys = st.lists(_gaussian_rationals, max_size=3).map(RationalPoly)


@st.composite
def _bivariates(draw):
    degree = draw(st.integers(min_value=2, max_value=5))
    lower = draw(st.lists(_t_polys, min_size=degree, max_size=degree))
    if draw(st.booleans()):
        top = RationalPoly.one()
    else:
        top = draw(_t_polys.filter(lambda p: not p.is_zero))
    return BivariatePolynomial(lower + [top])


def test_scalar_parsing():
    x = GaussianRational("0.25", "1/3")
    assert x.re == Fraction(1, 4) and x.im == Fraction(1, 3)
    with pytest.raises(TypeError):
        GaussianRational(0.25)  # floats are not exact inputs


def test_poly_ring_operations():
    t = RationalPoly([0, 1])
    p = (t + 2) * RationalPoly([-3, 1])
    assert p == RationalPoly([-6, -1, 1])
    q, r = p.divmod(t + 2)
    assert q == RationalPoly([-3, 1]) and r.is_zero
    assert p.gcd((t + 2) * (t + 5)) == (t + 2)
    assert p.derivative() == RationalPoly([-1, 2])
    assert_matches(RationalPoly([0, 0, 0, 0, 0, 0, 1]), FractionPoly((t * t).coeffs).inflate(3))
    assert RationalPoly([0, 0, 5]).shift_down(2) == RationalPoly([5])
    with pytest.raises(ValueError):
        RationalPoly([1, 2]).shift_down(1)


def test_poly_valuation_and_eval():
    p = RationalPoly([0, 0, "3/2", 1])
    assert p.valuation == 2 and p.degree == 3
    assert abs(p.eval_complex(2.0) - 14.0) < 1e-12
    assert RationalPoly.zero().valuation is None


def test_rational_roots_and_nth_roots():
    quarter = RationalPoly(["-1/4", 1])
    p = quarter * quarter * RationalPoly([2, 1])
    assert rational_roots(p) == [-2, Fraction(1, 4)]
    # irrational roots are simply not reported
    assert rational_roots(RationalPoly([-2, 0, 1])) == []
    assert rational_nth_root(Fraction(9, 16), 2) == Fraction(3, 4)
    assert rational_nth_root(Fraction(-27), 3) == -3
    assert rational_nth_root(Fraction(5), 2) is None


def test_nth_roots_of_large_powers():
    for digits in (30, 400):
        r = 10 ** (digits - 1) + 12345678901234567891
        for n in (2, 3, 5):
            assert rational_nth_root(Fraction(r**n, 4**n), n) == Fraction(r, 4)
            # one more than a perfect power is not one
            assert rational_nth_root(Fraction(r**n + 1), n) is None
            assert rational_nth_root(Fraction(r**n, 4**n + 1), n) is None
        assert rational_nth_root(Fraction(-(r**3), 8), 3) == Fraction(-r, 2)
        assert rational_nth_root(Fraction(-(r**5)), 5) == -r
        assert rational_nth_root(Fraction(-(r**2)), 2) is None
    assert rational_nth_root(Fraction(10**400), 2) == 10**200
    assert rational_nth_root(Fraction(10**400), 3) is None
    assert rational_nth_root(Fraction(0), 4) == 0
    assert rational_nth_root(Fraction(7, 1), 1) == 7


def trial_division_rational_roots(poly):
    """The reference for rational_roots: every +-p/q with p | low and
    q | lead (not only coprime ones), each tested by exact evaluation over
    the reference scalar Gauss."""
    val = poly.valuation
    roots = []
    if val > 0:
        roots.append(Fraction(0))
        poly = poly.shift_down(val)
    if poly.degree == 0:
        return roots
    denoms = 1
    for c in poly.coeffs:
        denoms = denoms * c.re.denominator * c.im.denominator // math.gcd(
            denoms, c.re.denominator * c.im.denominator
        )
    lead = poly.coeff(poly.degree) * denoms
    low = poly.coeff(0) * denoms
    lead_int = math.gcd(int(lead.re), int(lead.im))
    low_int = math.gcd(int(low.re), int(low.im))
    for p in _divisors(low_int):
        for q in _divisors(lead_int):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                value = Gauss()
                for c in reversed(poly.coeffs):
                    value = value * cand + Gauss.of(c)
                if value.is_zero:
                    roots.append(cand)
    return sorted(roots)


# planted linear factors q t - p, with p and q not necessarily coprime and
# p = 0 allowed, so zero roots come with multiplicity
_planted = st.tuples(st.integers(min_value=-4, max_value=4),
                     st.integers(min_value=1, max_value=4),
                     st.integers(min_value=1, max_value=2))
_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_nonzero_fractions = _small_fractions.filter(lambda x: x != 0)
_leads = st.one_of(
    st.builds(GaussianRational, _nonzero_fractions),                  # real
    st.builds(GaussianRational, st.just(0), _nonzero_fractions),      # imaginary
    st.builds(GaussianRational, _nonzero_fractions, _nonzero_fractions),
)


@st.composite
def _planted_products(draw):
    roots = draw(st.lists(_planted, max_size=3))
    lower = draw(st.lists(_gaussian_rationals, max_size=3))
    if draw(st.booleans()) and roots:
        roots.append(roots[0])  # a repeated root
    cofactor = RationalPoly(lower + [draw(_leads)])
    poly = cofactor
    for p, q, g in roots:
        poly = poly * RationalPoly([-p * g, q * g])
    return poly, {Fraction(p, q) for p, q, _ in roots}


@settings(max_examples=40, deadline=None)
@given(_planted_products())
def test_rational_roots_match_trial_division_oracle(case):
    poly, planted = case
    assert poly.degree <= 7
    roots = rational_roots(poly)
    assert roots == trial_division_rational_roots(poly)
    assert planted <= set(roots)
    assert roots == sorted(set(roots))


def test_rational_roots_with_a_purely_imaginary_leading_coefficient():
    i = RationalPoly.constant(GaussianRational(0, 1))
    p = i * RationalPoly([-4, 6]) * RationalPoly([3, 1]) * RationalPoly([0, 0, 1])
    assert rational_roots(p) == [-3, 0, Fraction(2, 3)]
    assert rational_roots(p) == trial_division_rational_roots(p)
    # a root of the real part only is not a root
    q = RationalPoly([-1, 1]) + i * RationalPoly([-2, 1])
    assert rational_roots(q) == []


class Gauss:
    """The reference scalar: a complex number as two Fractions, with the
    field operations written out here, so that the oracles below share no
    arithmetic with the package."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def of(cls, x):
        """A Gauss from a GaussianRational or an exact real."""
        if isinstance(x, Gauss):
            return x
        if isinstance(x, GaussianRational):
            return cls(x.re, x.im)
        return cls(x)

    @property
    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __add__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __mul__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        other = Gauss.of(other)
        norm = other.re * other.re + other.im * other.im
        return self * Gauss(other.re / norm, -other.im / norm)

    def __pow__(self, n):
        out = Gauss(1)
        for _ in range(n):
            out = out * self
        return out


class FractionPoly:
    """The reference arithmetic: polynomials as one Gauss per coefficient,
    ascending, with schoolbook products and long division over those
    scalars (RationalPoly's earlier storage)."""

    def __init__(self, coeffs=()):
        cs = [Gauss.of(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def valuation(self):
        return next((k for k, c in enumerate(self.coeffs) if not c.is_zero), None)

    def coeff(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else Gauss()

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return FractionPoly()
        out = [Gauss()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return FractionPoly(out)

    def scale(self, c):
        return FractionPoly([a * c for a in self.coeffs])

    def shift_up(self, k):
        return FractionPoly((Gauss(),) * k + self.coeffs)

    def shift_down(self, k):
        assert all(c.is_zero for c in self.coeffs[:k])
        return FractionPoly(self.coeffs[k:])

    def inflate(self, q):
        out = [Gauss()] * (q * max(self.degree, 0) + 1)
        for k, c in enumerate(self.coeffs):
            out[q * k] = c
        return FractionPoly(out)

    def derivative(self):
        return FractionPoly([c * k for k, c in enumerate(self.coeffs)][1:])

    def monic(self):
        lead = self.coeffs[-1]
        return FractionPoly([c / lead for c in self.coeffs])

    def divmod(self, other):
        rem = list(self.coeffs)
        deg_d = other.degree
        if len(rem) - 1 < deg_d:
            return FractionPoly(), FractionPoly(rem)
        quot = [Gauss()] * (len(rem) - deg_d)
        for k in range(len(rem) - 1, deg_d - 1, -1):
            f = rem[k] / other.coeffs[-1]
            quot[k - deg_d] = f
            for j in range(deg_d + 1):
                rem[k - deg_d + j] = rem[k - deg_d + j] - f * other.coeffs[j]
        return FractionPoly(quot), FractionPoly(rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        return a if a.is_zero else a.monic()


def oracle_shift_y(cs, a):
    """P(t, a + y) for y-coefficients cs, by Horner's rule in y."""
    a = FractionPoly([a])
    out = [FractionPoly()] * len(cs)
    for c in reversed(cs):
        carry = FractionPoly()
        for k in range(len(out)):
            carry, out[k] = out[k], carry + out[k] * a
        out[0] = out[0] + c
    return out


def oracle_substitute_puiseux(cs, q, p, c):
    """P(tau**q, tau**p (c + y)) / tau**N for y-coefficients cs."""
    new = [FractionPoly()] * len(cs)
    for k, ck in enumerate(cs):
        base = ck.inflate(q).shift_up(p * k)
        for j in range(k + 1):
            new[j] = new[j] + base.scale(Gauss.of(c) ** (k - j) * math.comb(k, j))
    shift = min(poly.valuation for poly in new if not poly.is_zero)
    return [poly.shift_down(shift) for poly in new]


def oracle_discriminant(cs):
    """Resultant of P and dP/dy: the Sylvester determinant by fraction-free
    elimination whose divisions are FractionPoly long divisions."""
    m = len(cs) - 1
    if m == 1:
        return FractionPoly([1])
    pc = list(reversed(cs))
    qc = list(reversed([c.scale(k) for k, c in enumerate(cs)][1:]))
    size = 2 * m - 1
    zero = FractionPoly()
    rows = [[zero] * i + pc + [zero] * (m - 2 - i) for i in range(m - 1)]
    rows += [[zero] * i + qc + [zero] * (m - 1 - i) for i in range(m)]
    sign, prev = 1, FractionPoly([1])
    for k in range(size - 1):
        if rows[k][k].is_zero:
            swap = next((i for i in range(k + 1, size) if not rows[i][k].is_zero), None)
            if swap is None:
                return zero
            rows[k], rows[swap], sign = rows[swap], rows[k], -sign
        for row in rows[k + 1:]:
            for j in range(k + 1, size):
                quot, rem = (row[j] * rows[k][k] - row[k] * rows[k][j]).divmod(prev)
                assert rem.is_zero
                row[j] = quot
        prev = rows[k][k]
    return rows[-1][-1] if sign > 0 else -rows[-1][-1]


def assert_canonical(poly):
    """RationalPoly's storage invariant: trimmed Gaussian-integer numerators
    over one positive denominator, in lowest terms."""
    assert isinstance(poly.num, tuple) and type(poly.den) is int and poly.den > 0
    assert all(type(pair) is tuple and len(pair) == 2 and all(type(x) is int for x in pair)
               for pair in poly.num)
    assert not poly.num or poly.num[-1] != (0, 0)
    assert math.gcd(poly.den, *(x for pair in poly.num for x in pair)) == 1


def assert_matches(poly, oracle):
    assert_canonical(poly)
    assert [(c.re, c.im) for c in poly.coeffs] == [(c.re, c.im) for c in oracle.coeffs]


def _polys_with_leads(max_degree):
    """Nonzero polynomials of degree <= max_degree whose leading coefficient
    is real, imaginary or both."""
    return st.builds(lambda lower, lead: RationalPoly(lower + [lead]),
                     st.lists(_gaussian_rationals, max_size=max_degree), _leads)


_univariates = _polys_with_leads(6)


@settings(max_examples=60, deadline=None)
@given(_univariates, st.one_of(_univariates, st.just(RationalPoly.zero())))
def test_univariate_arithmetic_matches_fraction_oracle(a, b):
    fa, fb = FractionPoly(a.coeffs), FractionPoly(b.coeffs)
    for poly in (a, b):
        assert_canonical(poly)
        assert RationalPoly(poly.coeffs) == poly
    assert_matches(a + b, fa + fb)
    assert_matches(a + b * -1, fa - fb)
    assert_matches(a * b, fa * fb)
    assert_matches(a.monic(), fa.monic())
    assert_matches(a.derivative(), fa.derivative())
    assert_matches(a.gcd(b), fa.gcd(fb))
    assert_matches(b.gcd(a), fb.gcd(fa))
    for num, den, fnum, fden in ((a, b, fa, fb), (b, a, fb, fa), (a * b + a, a, fa * fb + fa, fa)):
        if not den.is_zero:
            quot, rem = num.divmod(den)
            oquot, orem = fnum.divmod(fden)
            assert_matches(quot, oquot)
            assert_matches(rem, orem)
    # equal values built in different ways are equal, with equal hashes
    for x, y in (((a + b) + b * -1, a), (a * b, b * a), ((a * b).divmod(a)[0], b),
                 (a * GaussianRational(0, 1) * GaussianRational(0, -1), a),
                 (RationalPoly(a.coeffs + (0, 0)), a), (a.monic().monic(), a.monic())):
        assert x == y and hash(x) == hash(y)


_scalars = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.one_of(st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=5)),
)


@st.composite
def _bivariates_to_degree_six(draw):
    degree = draw(st.integers(min_value=1, max_value=6))
    t_polys = st.lists(_gaussian_rationals, max_size=3).map(RationalPoly)
    lower = draw(st.lists(t_polys, min_size=degree, max_size=degree))
    top = draw(st.one_of(st.just(RationalPoly.one()), _polys_with_leads(2)))
    return BivariatePolynomial(lower + [top])


@settings(max_examples=40, deadline=None)
@given(_bivariates_to_degree_six(), _scalars, st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_bivariate_operations_match_fraction_oracle(P, c, q, p):
    cs = [FractionPoly(poly.coeffs) for poly in P.coeffs]
    for got, expected in ((P.shift_y(c), oracle_shift_y(cs, c)),
                          (P.substitute_puiseux(q, p, c), oracle_substitute_puiseux(cs, q, p, c))):
        assert len(got.coeffs) == len(expected)
        for poly, oracle in zip(got.coeffs, expected):
            assert_matches(poly, oracle)
    assert_matches(P.discriminant(), oracle_discriminant(cs))


def test_complex_views_round_like_the_scalars():
    # above 2**53 neither part converts to float exactly; float(re) / den
    # would round twice, which this pair of values exposes
    re, den = 81764416680803268, 144958205352227900
    assert float(re) / den != re / den
    rnd = random.Random(53)
    cases = [(re, -re - 1, den)] + [
        (rnd.randrange(-2**80, 2**80), rnd.randrange(-2**80, 2**80), rnd.randrange(2**53, 2**80))
        for _ in range(50)]
    for re, im, den in cases:
        c = GaussianRational(Fraction(re, den), Fraction(im, den))
        poly = RationalPoly([c, Fraction(1, den), c * c])
        assert poly.complex_coeffs() == [complex(x) for x in poly.coeffs]
        assert poly.complex_coeffs()[0] == complex(c)
        for z in (0.75, -1.3 + 0.4j):
            expected = 0j
            for x in reversed(poly.coeffs):
                expected = expected * z + complex(x)
            assert poly.eval_complex(z) == expected


def test_bivariate_shift_and_substitute():
    # P = y^2 - t
    P = BivariatePolynomial([RationalPoly([0, -1]), RationalPoly.zero(), RationalPoly.one()])
    S = P.shift_y("1/2")
    # (y + 1/2)^2 - t = y^2 + y + 1/4 - t
    assert S.coeffs[0] == RationalPoly(["1/4", -1])
    assert S.coeffs[1] == RationalPoly([1])
    Q = P.substitute_puiseux(2, 1, 1)
    assert Q.coeffs[0].is_zero
    assert Q.coeffs[1] == RationalPoly([2])
    assert Q.coeffs[2] == RationalPoly.one()


def test_bivariate_discriminant_matches_quadratic_formula():
    rnd = random.Random(5)
    for _ in range(20):
        b = RationalPoly([rnd.randint(-4, 4) for _ in range(3)])
        c = RationalPoly([rnd.randint(-4, 4) for _ in range(3)])
        P = BivariatePolynomial([c, b, RationalPoly.one()])
        disc = P.discriminant()
        # resultant(P, P_y) for monic quadratics is b^2 - 4c up to sign
        expected = b * b + c * -4
        assert disc == expected or disc == expected * -1


@pytest.mark.parametrize("name", data.charpoly_names())
def test_discriminant_matches_cofactor_oracle_on_bundled_charpolys(name):
    P = data.charpoly(name)
    assert P.discriminant() == _cofactor_discriminant(P)


@settings(max_examples=25, deadline=None)
@given(_bivariates())
def test_discriminant_matches_cofactor_oracle(P):
    assert P.discriminant() == _cofactor_discriminant(P)


def test_discriminant_through_a_row_swap():
    # y^3 - t: its power sums are s = (3, 0, 0, 3t, 0), so the Hankel matrix
    # [[3, 0, 0], [0, 0, 3t], [0, 3t, 0]] has a zero second pivot and
    # Bareiss must swap in the next row; the Sylvester matrix of the oracle
    # needs a swap too, in its third column
    P = BivariatePolynomial([RationalPoly([0, -1]), RationalPoly.zero(),
                             RationalPoly.zero(), RationalPoly.one()])
    # resultant(y^3 + p y + q, 3 y^2 + p) = 4 p^3 + 27 q^2, sign included
    assert P.discriminant() == RationalPoly([0, 0, 27])
    assert P.discriminant() == _cofactor_discriminant(P)
    assert P.discriminant() == _resultant_y(P, P.dy())


def test_discriminant_of_a_squared_factor_is_zero():
    t = RationalPoly([0, 1])
    # (y - t)^2 (y + 1 + i t) with one non-real coefficient
    a = RationalPoly([1, GaussianRational(0, 1)])
    P = BivariatePolynomial([t * t * a, t * t + t * a * -2, a + t * -2,
                             RationalPoly.one()])
    assert P.discriminant().is_zero
    assert _cofactor_discriminant(P).is_zero


def _random_t_poly(rnd, degree=2, digits=1):
    """A Gaussian-rational polynomial in t with the given degree, its parts
    of up to the given number of digits over small denominators."""
    def part():
        return Fraction(rnd.randint(-10**digits, 10**digits), rnd.randint(1, 4))
    cs = [GaussianRational(part(), part() if rnd.random() < 0.5 else 0) for _ in range(degree)]
    return RationalPoly(cs + [GaussianRational(rnd.randint(1, 10**digits), rnd.randint(0, 3))])


def _linear_product(rnd, degree):
    """prod_k (y - c_k(t)) for random c_k of degree 2 in t, expanded."""
    coeffs = [RationalPoly.one()]
    for _ in range(degree):
        c = _random_t_poly(rnd) * -1
        coeffs = [a + b * c for a, b in zip([RationalPoly.zero()] + coeffs, coeffs + [0])]
    return BivariatePolynomial(coeffs)


@pytest.mark.parametrize("degree", [6, MAX_DEGREE_Y])
def test_discriminant_of_linear_products_matches_sylvester_oracle(degree):
    P = _linear_product(random.Random(degree), degree)
    assert P.degree_y == degree and P.is_monic
    assert_canonical(P.discriminant())
    assert P.discriminant() == _resultant_y(P, P.dy())


def test_discriminant_with_60_digit_coefficients_matches_sylvester_oracle():
    rnd = random.Random(60)
    P = BivariatePolynomial([_random_t_poly(rnd, digits=60) for _ in range(6)]
                            + [RationalPoly.one()])
    assert P.degree_y == 6
    assert P.discriminant() == _resultant_y(P, P.dy())


@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_discriminant_with_a_polynomial_lead_matches_sylvester_oracle(degree):
    # a lead a(t) of degree 2 enters as a**(2m - 1 - m(m - 1)): a**1 at
    # m = 2, and from m = 3 on one exact division by a power of a
    rnd = random.Random(degree)
    for _ in range(3):
        P = BivariatePolynomial([_random_t_poly(rnd) for _ in range(degree + 1)])
        assert P.coeffs[-1].degree == 2
        assert P.discriminant() == _resultant_y(P, P.dy())


def test_discriminant_refuses_a_degree_over_the_cap():
    assert MAX_DEGREE_Y == 8
    # y**9 - t
    P = BivariatePolynomial([RationalPoly([0, -1])] + [RationalPoly.zero()] * 8
                            + [RationalPoly.one()])
    with pytest.raises(ValueError, match=r"^degree 9 in y is over the discriminant's cap 8$"):
        P.discriminant()


def test_bareiss_kernel_row_swap_sign_and_exact_division():
    one, two = [(1, 0)], [(2, 0)]
    # [[0, 1], [1, 0]] needs a swap and has determinant -1
    assert _bareiss_det([[[], one], [one, []]]) == [(-1, 0)]
    # a column with no nonzero pivot left: the determinant is zero
    assert _bareiss_det([[[], one], [[], two]]) == []
    # Gaussian division that is exact: 2 / (1 + i) = 1 - i
    assert _gi_exact_div(two, [(1, 1)]) == [(1, -1)]
    # (t^2 - 1) / (t + 1) = t - 1
    assert _gi_exact_div([(-1, 0), (0, 0), (1, 0)], [(1, 0), (1, 0)]) == [(-1, 0), (1, 0)]
    for num, den in [(one, two), (one, [(1, 1)]), ([(1, 0), (1, 0)], [(0, 0), (1, 0)]),
                     (one, [(0, 0), (1, 0)])]:
        with pytest.raises(ArithmeticError):
            _gi_exact_div(num, den)


@settings(max_examples=15, deadline=None)
@given(_bivariates())
def test_discriminant_matches_sympy_resultant(P):
    sympy = pytest.importorskip("sympy")
    t, y = sympy.symbols("t y")
    expr = sum(
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)) * t**j * y**k
        for k, poly in enumerate(P.coeffs) for j, c in enumerate(poly.coeffs)
    )
    res = sympy.Poly(sympy.expand(sympy.resultant(expr, sympy.diff(expr, y), y)), t)
    expected = [] if res.is_zero else res.all_coeffs()[::-1]
    got = P.discriminant()
    assert len(got.coeffs) == len(expected)
    for c, e in zip(got.coeffs, expected):
        assert sympy.Rational(c.re.numerator, c.re.denominator) == sympy.re(e)
        assert sympy.Rational(c.im.numerator, c.im.denominator) == sympy.im(e)


def test_bivariate_guards():
    with pytest.raises(ValueError):
        BivariatePolynomial([RationalPoly.zero()])
    P = BivariatePolynomial([RationalPoly([1]), RationalPoly.one()])
    assert P.discriminant() == RationalPoly.one()


def _product_of_linear_factors(rnd, degree, digits):
    """prod_k (y - c_k(t)) for random c_k of t-degree 2 with parts of up to
    the given number of digits, expanded."""
    coeffs = [RationalPoly.one()]
    for _ in range(degree):
        c = _random_t_poly(rnd, digits=digits) * -1
        coeffs = [a + b * c for a, b in zip([RationalPoly.zero()] + coeffs, coeffs + [0])]
    return BivariatePolynomial(coeffs)


# Fixed rows for the Taylor shift behind shift_y and substitute_puiseux:
# the bundled charpolys, a y-degree-8 product with 60-digit coefficients and
# a lead that depends on t; each with a real, a non-real and a zero scalar,
# and substitutions with p = 0 as well as p > 0.
_SUBSTITUTION_POLYS = {name: data.charpoly(name) for name in data.charpoly_names()}
_SUBSTITUTION_POLYS["degree_8_60_digits"] = _product_of_linear_factors(random.Random(8), 8, 60)
_SUBSTITUTION_POLYS["t_dependent_lead"] = BivariatePolynomial(
    [_random_t_poly(random.Random(3)) for _ in range(4)])
_SCALARS = ["-5/4", GaussianRational("1/3", "-2/5"), 0]


@pytest.mark.parametrize("c", _SCALARS, ids=["real", "non_real", "zero"])
@pytest.mark.parametrize("name", sorted(_SUBSTITUTION_POLYS))
def test_shift_y_matches_fraction_oracle_on_fixed_rows(name, c):
    P = _SUBSTITUTION_POLYS[name]
    cs = [FractionPoly(poly.coeffs) for poly in P.coeffs]
    got = P.shift_y(c)
    expected = oracle_shift_y(cs, c)
    assert len(got.coeffs) == len(expected)
    for poly, oracle in zip(got.coeffs, expected):
        assert_matches(poly, oracle)


@pytest.mark.parametrize("q, p", [(1, 1), (2, 1), (3, 0), (2, 3)])
@pytest.mark.parametrize("c", _SCALARS, ids=["real", "non_real", "zero"])
@pytest.mark.parametrize("name", sorted(_SUBSTITUTION_POLYS))
def test_substitute_puiseux_matches_fraction_oracle_on_fixed_rows(name, c, q, p):
    P = _SUBSTITUTION_POLYS[name]
    cs = [FractionPoly(poly.coeffs) for poly in P.coeffs]
    got = P.substitute_puiseux(q, p, c)
    expected = oracle_substitute_puiseux(cs, q, p, c)
    assert len(got.coeffs) == len(expected)
    for poly, oracle in zip(got.coeffs, expected):
        assert_matches(poly, oracle)


def _times_linear_factors(poly, *roots):
    """poly times q y - p for each (p, q) given."""
    for p, q in roots:
        poly = poly * RationalPoly([-p, q])
    return poly


# Fixed rows for the candidate filters of rational_roots: the roots +-1,
# where a divisor q - s or q + s is 0 and its test is skipped, and +-1/q;
# a root of the real part only; a constant term with 240 divisors.
_ROOT_ROWS = {
    "plus_minus_one": _times_linear_factors(RationalPoly([2, 0, 1]), (1, 1), (-1, 1), (1, 1)),
    "plus_minus_one_over_q": _times_linear_factors(
        RationalPoly([3, 1, 5]), (1, 3), (-1, 3), (1, 4), (-1, 2)),
    "one_and_non_real": _times_linear_factors(
        RationalPoly([GaussianRational(0, 2), 1]), (1, 1), (-1, 5)),
    "real_part_only": (_times_linear_factors(RationalPoly([5, 1]), (2, 3))
                       + RationalPoly.constant(GaussianRational(0, 1)) * RationalPoly([4, 0, 3])),
    "constant_720720": _times_linear_factors(RationalPoly([24024, 0, 1]), (3, 4), (-10, 3)),
    "constant_720720_gaussian": _times_linear_factors(
        RationalPoly([GaussianRational(65520, 65520), 0, 1]), (11, 2), (-1, 1)),
}


@pytest.mark.parametrize("name", sorted(_ROOT_ROWS))
def test_rational_roots_match_trial_division_oracle_on_fixed_rows(name):
    poly = _ROOT_ROWS[name]
    assert rational_roots(poly) == trial_division_rational_roots(poly)


def test_fixed_root_rows_reach_the_filter_edges():
    assert rational_roots(_ROOT_ROWS["plus_minus_one"]) == [-1, 1]
    assert rational_roots(_ROOT_ROWS["plus_minus_one_over_q"]) == [
        Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 4), Fraction(1, 3)]
    assert rational_roots(_ROOT_ROWS["real_part_only"]) == []
    assert len(_divisors(720720)) == 240
    assert _ROOT_ROWS["constant_720720"].num[0] == (-720720, 0)
    assert rational_roots(_ROOT_ROWS["constant_720720"]) == [Fraction(-10, 3), Fraction(3, 4)]
    assert _ROOT_ROWS["constant_720720_gaussian"].num[0] == (-720720, -720720)
    assert rational_roots(_ROOT_ROWS["constant_720720_gaussian"]) == [-1, Fraction(11, 2)]


@pytest.mark.parametrize("call, error, message", [
    (lambda: RationalPoly.zero().monic(), ValueError, "cannot normalize the zero polynomial"),
    (lambda: RationalPoly([1, 1]).divmod(RationalPoly.zero()), ZeroDivisionError,
     "polynomial division by zero"),
    (lambda: rational_roots(RationalPoly.zero()), ValueError,
     "every rational is a root of the zero polynomial"),
    (lambda: rational_nth_root(2, 0), ValueError, "root order must be positive"),
    (lambda: BivariatePolynomial([RationalPoly([0, 1])]).discriminant(), ValueError,
     "discriminant needs degree >= 1 in y"),
], ids=["monic_of_zero", "divide_by_zero", "roots_of_zero", "zeroth_root",
        "discriminant_constant_in_y"])
def test_exact_layer_refuses_degenerate_input(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


# rational_roots refuses before its trial division runs long: the divisor
# listing of 10**14 and 1 takes isqrt(10**14) + 1 = MAX_DIVISOR_STEPS + 1
# steps, and 735134400, with 1,344 divisors, at both ends makes 1,806,336
# candidate pairs.
@pytest.mark.parametrize("coeffs, message", [
    ([10**400, 1], f"over {MAX_DIVISOR_STEPS} trial divisions"),
    ([10**14, 1], f"over {MAX_DIVISOR_STEPS} trial divisions"),
    (["-0.25000000000000000001", 0, 1], f"over {MAX_DIVISOR_STEPS} trial divisions"),
    ([735134400, 0, 735134400], f"over {MAX_ROOT_CANDIDATES} candidate pairs"),
], ids=["ten_to_400", "steps_cap_plus_one", "long_decimal", "candidate_pairs"])
def test_rational_roots_caps_its_trial_division(coeffs, message):
    assert math.isqrt(10**14) == MAX_DIVISOR_STEPS
    with pytest.raises(ValueError, match=message):
        rational_roots(RationalPoly(coeffs))


def test_gaussian_rational_value_semantics():
    # a scalar equals the int or Fraction of its value and never a float or
    # a string, hashes as that value when real and as the pair of its parts
    # otherwise, is false only at zero, and shows its imaginary part only
    # when it has one
    half = GaussianRational("1/2")
    assert half == Fraction(1, 2) and half != "0.5" and GaussianRational(3) == 3
    assert GaussianRational(1, 1) != 1 and half != 0.5 and half != [1, 2]
    assert GaussianRational(1) != "x"
    assert half == GaussianRational(Fraction(1, 2), "0")
    assert hash(half) == hash(GaussianRational("0.5")) == hash(Fraction(1, 2))
    assert hash(GaussianRational(3)) == hash(3) and len({GaussianRational(3), 3}) == 1
    assert hash(GaussianRational(1, -2)) == hash((Fraction(1), Fraction(-2)))
    assert not GaussianRational() and not GaussianRational("0.0", 0)
    assert GaussianRational(0, "1/3") and half
    assert repr(half) == "GaussianRational(1/2)"
    assert repr(GaussianRational(1, "-2/3")) == "GaussianRational(1, -2/3)"
    assert repr(GaussianRational(0, 1)) == "GaussianRational(0, 1)"


def test_polynomials_pickle_at_every_protocol():
    P = data.charpoly("sqrt_branch")
    for value in (P, P.coeffs[0], RationalPoly.zero(),
                  RationalPoly([GaussianRational("1/2", -3), 0, "2/9"]),
                  GaussianRational(1, 2), GaussianRational("-1/3")):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(value, protocol))
            assert type(clone) is type(value) and clone == value
            assert hash(clone) == hash(value) and repr(clone) == repr(value)


def test_sign_at_matches_fraction_evaluation():
    rnd = random.Random(11)
    for _ in range(300):
        poly = RationalPoly([Fraction(rnd.randint(-30, 30), rnd.randint(1, 12))
                             for _ in range(rnd.randint(1, 8))])
        x = Fraction(rnd.randint(-40, 40), rnd.randint(1, 15))
        value = sum(c.re * x**k for k, c in enumerate(poly.coeffs))
        assert poly.sign_at(x) == (value > 0) - (value < 0)
    # a root gives 0, an int is a rational, and zero is 0 everywhere
    assert RationalPoly(["-1/4", 0, 1]).sign_at(Fraction(1, 2)) == 0
    assert RationalPoly([-5, 1]).sign_at(7) == 1
    assert RationalPoly(["-1e-300", "1e-100"]).sign_at(Fraction(1, 10**201)) == -1
    assert RationalPoly.zero().sign_at(Fraction(3)) == 0


def _squarefree_products(count, seed):
    """Random real squarefree polynomials with no root at 0: a rational
    multiple of distinct y - r (r != 0) and distinct irreducible
    y^2 + b y + c (c != 0, b^2 - 4c not a rational square)."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        roots = {Fraction(rnd.randint(-60, 60), rnd.randint(1, 20)) for _ in range(rnd.randint(0, 4))}
        quadratics = set()
        for _ in range(rnd.randint(0, 3)):
            b, c = (Fraction(rnd.randint(-30, 30), rnd.randint(1, 9)) for _ in range(2))
            if c and rational_nth_root(b * b - 4 * c, 2) is None:
                quadratics.add((b, c))
        poly = RationalPoly.constant(Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 50),
                                              rnd.randint(1, 50)))
        for r in roots - {0}:
            poly = poly * RationalPoly([-r, 1])
        for b, c in quadratics:
            poly = poly * RationalPoly([c, b, 1])
        if poly.degree > 0:
            out.append(poly)
    return out


_TINY = Fraction(1, 10**200)
# a linear polynomial, roots 10^-200 apart, a root of size 10^-200, and a
# pair 10^-100 i off the axis
_CLOSE_ROOTS = [
    RationalPoly(["3/4", -6]),
    RationalPoly([-1, 1]) * RationalPoly([-1 - _TINY, 1]) * RationalPoly([-2, 0, 1]),
    RationalPoly([-_TINY, 1]) * RationalPoly([-3, 0, 1]),
    RationalPoly([1 + _TINY, -2, 1]) * RationalPoly(["-1/2", 1]),
    RationalPoly(["-1/7"]) * RationalPoly([-5, 0, 1]) * RationalPoly([_TINY, 0, 1]),
]


def test_real_root_intervals_match_sympy_real_roots():
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")

    def exact(x):
        return sympy.Rational(x.numerator, x.denominator)

    for poly in _squarefree_products(24, 5) + _CLOSE_ROOTS:
        roots = sympy.real_roots(sympy.Poly([exact(c.re) for c in reversed(poly.coeffs)], y))
        intervals = poly.real_root_intervals()
        assert len(intervals) == len(roots)
        assert all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
        for lo, hi in intervals:
            if lo == hi:  # a linear polynomial gives its root
                assert poly.degree == 1 and roots == [exact(lo)]
                continue
            assert (hi - lo) * 2**60 <= abs(lo)
            assert sum(bool(exact(lo) < r) and bool(r <= exact(hi)) for r in roots) == 1
