"""Exact Gaussian-rational arithmetic for polynomials in one and two variables.

The eigenvalue-branch analysis in :mod:`rigidity.symdom` manipulates
characteristic polynomials P(t, y) whose coefficients must stay exact while
Newton polygons, shifts and Puiseux substitutions are applied.  Scalars here
are complex numbers with rational real and imaginary parts
(GaussianRational); inputs are read and single coefficients are shown in
that form.  A univariate polynomial is one tuple of Gaussian-integer
numerators, ascending, over one positive common denominator, in lowest
terms; all of its arithmetic, and the exact real-root kernel (signs at
rationals, rational roots, Sturm isolation, Descartes' test) run on integers.
Bivariate polynomials are stored as one such polynomial in t per power of y.
"""

import math
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "RationalPoly",
    "BivariatePolynomial",
    "gram_charpoly",
    "rational_roots",
    "rational_nth_root",
]

MAX_DEGREE_Y = 8  # degree in y of a discriminant; its cost grows steeply with it
MAX_DIVISOR_STEPS = 10**7  # trial divisions of rational_roots, about 1.5 s at the cap
MAX_ROOT_CANDIDATES = 10**6  # candidate pairs p, q of rational_roots


def _to_fraction(x):
    """Coerce exact inputs to Fraction; floats are rejected on purpose."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact value (int, Fraction or str), got {type(x).__name__}")


class GaussianRational:
    """Complex scalar with exact rational real and imaginary parts: the input
    and display form of one coefficient; RationalPoly does the arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _to_fraction(re)
        self.im = _to_fraction(im)

    @classmethod
    def ensure(cls, x):
        if isinstance(x, GaussianRational):
            return x
        return cls(x)

    @property
    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __mul__(self, other):
        other = GaussianRational.ensure(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = GaussianRational.ensure(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal int or Fraction does
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    def __bool__(self):
        return not self.is_zero

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


_ZERO = GaussianRational(0)


class RationalPoly:
    """Univariate polynomial with Gaussian-rational coefficients.

    Stored as ``num``, a tuple of (re, im) int pairs in ascending powers with
    no trailing (0, 0), over ``den``, one positive int, in lowest terms:
    gcd(den, every re and im) == 1, and the zero polynomial is ((), 1).  So
    equal polynomials have equal fields.  All arithmetic runs on the
    Gaussian-integer kernel below; ``coeffs`` and ``coeff`` are
    GaussianRational views.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        cs = [GaussianRational.ensure(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        # a prime power dividing the lcm exactly divides some denominator,
        # whose numerator it does not divide: the result is in lowest terms
        den = math.lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
        self.num = tuple((c.re.numerator * (den // c.re.denominator),
                          c.im.numerator * (den // c.im.denominator)) for c in cs)
        self.den = den

    @classmethod
    def _make(cls, num, den):
        """num / den in lowest terms, for trimmed (re, im) pairs and den > 0."""
        g = math.gcd(den, *(x for pair in num for x in pair))
        self = object.__new__(cls)
        self.num = tuple(num) if g == 1 else tuple((re // g, im // g) for re, im in num)
        self.den = den // g
        return self

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def zero(cls):
        return cls._make((), 1)

    @classmethod
    def one(cls):
        return cls._make(((1, 0),), 1)

    @classmethod
    def from_json(cls, pairs, shape="a polynomial must be a list of [re, im] pairs"):
        """Ascending [re, im] coefficient pairs, each an int or an exact
        decimal or fraction string (rigidity.data.read_json keeps any other
        JSON number as its text; a float is read from its repr).  Anything
        but a list of two-element lists raises ValueError(shape)."""
        if not (isinstance(pairs, list)
                and all(isinstance(c, list) and len(c) == 2 for c in pairs)):
            raise ValueError(shape)
        return cls([GaussianRational(str(re), str(im)) for re, im in pairs])

    @property
    def is_zero(self):
        return not self.num

    @property
    def degree(self):
        """Degree, with the zero polynomial reported as -1."""
        return len(self.num) - 1

    @property
    def valuation(self):
        """Lowest exponent with a nonzero coefficient; None for zero."""
        return next((k for k, c in enumerate(self.num) if c != (0, 0)), None)

    @property
    def is_real(self):
        return not any(im for _, im in self.num)

    def _scalar(self, pair):
        return GaussianRational(Fraction(pair[0], self.den), Fraction(pair[1], self.den))

    @property
    def coeffs(self):
        """Ascending coefficients as GaussianRationals."""
        return tuple(self._scalar(c) for c in self.num)

    def coeff(self, k):
        if 0 <= k < len(self.num):
            return self._scalar(self.num[k])
        return _ZERO

    def __add__(self, other):
        (a, b), den = _common((self, self._ensure(other)))
        return RationalPoly._make(_gi_dot(((a, _UNIT), (b, _UNIT))), den)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._ensure(other)
        return RationalPoly._make(_gi_dot(((self.num, other.num),)), self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def _ensure(x):
        if isinstance(x, RationalPoly):
            return x
        if isinstance(x, int):
            return RationalPoly._make(((x, 0),) if x else (), 1)
        return RationalPoly.constant(x)

    def shift_down(self, k):
        """Exact division by t**k; requires valuation >= k."""
        if any(c != (0, 0) for c in self.num[:k]):
            raise ValueError(f"polynomial is not divisible by t**{k}")
        return RationalPoly._make(self.num[k:], self.den)

    def derivative(self):
        return RationalPoly._make(
            [(k * re, k * im) for k, (re, im) in enumerate(self.num)][1:], self.den)

    def eval_complex(self, z):
        out = 0j
        for c in reversed(self.complex_coeffs()):
            out = out * z + c
        return out

    def complex_coeffs(self):
        """Ascending coefficients as complex floats, each part correctly
        rounded (int / int true division), as complex(GaussianRational) is.
        Raises ValueError when a part is too large for a float."""
        try:
            return [complex(re / self.den, im / self.den) for re, im in self.num]
        except OverflowError:
            raise ValueError("a coefficient is too large for a float") from None

    def monic(self):
        """self / lead = num conj(L) / |L|**2 for the leading numerator L."""
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lr, li = self.num[-1]
        return RationalPoly._make(_gi_dot(((self.num, [(lr, -li)]),)), lr * lr + li * li)

    def divmod(self, other):
        """Quotient and remainder over the Gaussian rationals.

        With L the leading numerator of other and k = deg self - deg other
        + 1, |L|**(2k) self.num is pseudo-divided by other.num conj(L),
        whose leading coefficient is the integer |L|**2, so every
        coefficient quotient is a Gaussian integer.
        """
        other = self._ensure(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        k = len(self.num) - len(other.num) + 1
        if k <= 0:
            return RationalPoly.zero(), self
        lr, li = other.num[-1]
        scale = (lr * lr + li * li) ** k
        quot, rem = _gi_divmod([(re * scale, im * scale) for re, im in self.num],
                               _gi_dot(((other.num, [(lr, -li)]),)))
        den = self.den * scale
        quot = _gi_dot(((quot, [(lr * other.den, -li * other.den)]),))
        return RationalPoly._make(quot, den), RationalPoly._make(rem, den)

    def gcd(self, other):
        """Monic greatest common divisor over the Gaussian rationals."""
        a, b = self, self._ensure(other)
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        if a.is_zero:
            return a
        return a.monic()

    def sign_at(self, x):
        """Sign of the real polynomial at the rational x = a/b: that of the
        integer b**d den self(a/b), from _homogeneous_value."""
        powers = [1]
        for _ in range(self.degree):
            powers.append(powers[-1] * x.denominator)
        acc = _homogeneous_value([re for re, _ in self.num], x.numerator, powers) if self.num else 0
        return (acc > 0) - (acc < 0)

    def real_root_intervals(self):
        """Exact intervals (lo, hi), in increasing order, each holding one real
        root of the real squarefree polynomial self and no other root, nor 0
        (self(0) != 0).  A linear self gives its root.  Otherwise bisection
        splits (-2**e, 2**e], e from Fujiwara's bound on the numerators, until
        each part holds one root, none at lo, and hi - lo <= 2**-60 |lo|.
        Sturm's theorem counts the roots in (lo, hi] exactly: the sign changes
        of self, self', -rem(self, self'), ... at lo less those at hi."""
        d = self.degree
        if d == 1:
            return [(Fraction(-self.num[0][0], self.num[1][0]),) * 2]
        bits = [abs(re).bit_length() for re, _ in self.num]
        e = 1 + max(-((bits[d] - 1 - bits[d - k]) // k) for k in range(1, d + 1))
        seq = [self, self.derivative()]
        while seq[-1].degree > 0:
            seq.append(seq[-2].divmod(seq[-1])[1] * -1)

        def changes(x):
            signs = [s for s in (p.sign_at(x) for p in seq) if s]
            return sum(s != r for s, r in zip(signs, signs[1:]))

        bound = Fraction(2) ** e
        out, todo = [], [(-bound, bound, changes(-bound), changes(bound))]
        while todo:
            lo, hi, at_lo, at_hi = todo.pop()
            if at_lo - at_hi == 1 and (hi - lo) * 2**60 <= abs(lo) and self.sign_at(lo):
                out.append((lo, hi))
            elif at_lo > at_hi:
                mid = (lo + hi) / 2
                at_mid = changes(mid)
                todo += [(mid, hi, at_mid, at_hi), (lo, mid, at_lo, at_mid)]
        return out

    def has_positive_root(self):
        """Whether the real polynomial self, with self(0) != 0, has a positive
        root: Descartes' rule of signs settles no sign change and an odd count."""
        signs = [re > 0 for re, _ in self.num if re]
        changes = sum(a != b for a, b in zip(signs, signs[1:]))
        if changes % 2 or not changes:
            return bool(changes)
        free = self.divmod(self.gcd(self.derivative()))[0]
        return any(lo > 0 for lo, _ in free.real_root_intervals())

    def __eq__(self, other):
        if isinstance(other, RationalPoly):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __reduce__(self):
        return RationalPoly._make, (self.num, self.den)

    def __repr__(self):
        if self.is_zero:
            return "RationalPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if c.im == 0:
                s = str(c.re)
            else:
                s = f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)"
            terms.append(s if k == 0 else f"{s}*t^{k}")
        return "RationalPoly(" + " + ".join(terms) + ")"


def _int_nth_root(a, n):
    """Floor of the n-th root of a non-negative integer, by isqrt for n = 2
    and by integer Newton steps from above otherwise."""
    if a < 0:
        raise ValueError("negative radicand")
    if n == 2:
        return math.isqrt(a)
    if a == 0:
        return 0
    # 2**ceil(bits / n) is at least the root; Newton's step on x**n - a then
    # decreases strictly until it reaches the floor of the root
    x = 1 << -(-a.bit_length() // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def rational_nth_root(x, n):
    """Exact Fraction n-th root of x, or None when irrational.

    For even n the non-negative root is returned.  Only integer arithmetic is
    used, so inputs of any size are answered in time polynomial in their
    number of digits.
    """
    x = Fraction(x)
    if n <= 0:
        raise ValueError("root order must be positive")
    if x < 0:
        if n % 2 == 0:
            return None
        r = rational_nth_root(-x, n)
        return None if r is None else -r
    p = _int_nth_root(x.numerator, n)
    q = _int_nth_root(x.denominator, n)
    if p**n == x.numerator and q**n == x.denominator:
        return Fraction(p, q)
    return None


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return out


def _homogeneous_value(coeffs, p, q_powers):
    """q**d * f(p/q) = sum_k a_k p**k q**(d-k) for integer a_k, by Horner."""
    d = len(coeffs) - 1
    acc = coeffs[d]
    for k in range(d - 1, -1, -1):
        acc = acc * p + coeffs[k] * q_powers[d - k]
    return acc


def rational_roots(poly):
    """All rational roots of a RationalPoly, found exactly.

    Zero roots are split off by the valuation.  The roots are those of the
    numerator, whose coefficients a_k = re_k + i im_k are Gaussian integers.
    A root p/q in lowest terms has p dividing g_0 = gcd(re_0, im_0) and q
    dividing g_d = gcd(re_d, im_d) (rational root theorem), and is a root
    exactly when sum_k a_k p**k q**(d-k) vanishes, which integer Horner
    steps check on the real part and then the imaginary part.  Candidates
    with gcd(p, q) > 1 are skipped, since their reduced form is a candidate
    too.

    Two exact tests drop most candidates before Horner's rule.  A root s/q
    (gcd(s, q) = 1) of an integer polynomial f makes q y - s a factor of f
    over the integers (Gauss's lemma), so (q - s) | f(1) and (q + s) | f(-1);
    both tests run on the real and on the imaginary part, and a test whose
    divisor is 0 (the candidates +-1) is skipped.  They cost four sums of
    the coefficients per call and at most four remainders per candidate.
    The Horner cost is O(d) big-integer products for each of at most
    2 tau(g_0) tau(g_d) candidates left (tau counts divisors), plus the
    trial division that lists the divisors of g_0 and g_d once each, in
    isqrt(g_0) + isqrt(g_d) steps.  ValueError is raised when these steps pass
    MAX_DIVISOR_STEPS or the pairs p, q pass MAX_ROOT_CANDIDATES.
    """
    if poly.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    val = poly.valuation
    roots = [Fraction(0)] if val > 0 else []
    re, im = zip(*poly.num[val:])
    degree = len(re) - 1
    if degree == 0:
        return roots
    # f(1) and f(-1) of the real and of the imaginary part
    at_one = (sum(re), sum(im))
    at_minus_one = (sum(re[::2]) - sum(re[1::2]), sum(im[::2]) - sum(im[1::2]))
    ends = math.gcd(re[0], im[0]), math.gcd(re[-1], im[-1])
    if sum(map(math.isqrt, ends)) > MAX_DIVISOR_STEPS:
        raise ValueError(f"rational roots: over {MAX_DIVISOR_STEPS} trial divisions")
    numerators, denominators = map(_divisors, ends)
    if len(numerators) * len(denominators) > MAX_ROOT_CANDIDATES:
        raise ValueError(f"rational roots: over {MAX_ROOT_CANDIDATES} candidate pairs p/q")
    for q in denominators:
        q_powers = [q**j for j in range(degree + 1)]
        for p in numerators:
            if math.gcd(p, q) > 1:
                continue
            for s in (p, -p):
                if q != s and (at_one[0] % (q - s) or at_one[1] % (q - s)):
                    continue
                if q != -s and (at_minus_one[0] % (q + s) or at_minus_one[1] % (q + s)):
                    continue
                if all(_homogeneous_value(part, s, q_powers) == 0 for part in (re, im)):
                    roots.append(Fraction(s, q))
    return sorted(roots)


class BivariatePolynomial:
    """P(t, y) = sum_k c_k(t) * y**k with exact coefficient polynomials c_k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [RationalPoly._ensure(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        if not cs:
            raise ValueError("bivariate polynomial must not be identically zero")
        self.coeffs = tuple(cs)

    @classmethod
    def from_json(cls, rows):
        """One list of [re, im] t-coefficient pairs per power of y, ascending
        in both variables (see RationalPoly.from_json)."""
        shape = "a charpoly must be a list of one list of [re, im] pairs per power of y"
        if not isinstance(rows, list):
            raise ValueError(shape)
        return cls([RationalPoly.from_json(row, shape) for row in rows])

    @property
    def degree_y(self):
        return len(self.coeffs) - 1

    @property
    def is_monic(self):
        return self.coeffs[-1] == RationalPoly.one()

    def at_t_zero(self):
        """The univariate polynomial y -> P(0, y)."""
        nums, den = _common(self.coeffs)
        return RationalPoly._make(_gi_trim([n[0] if n else (0, 0) for n in nums]), den)

    def dy(self):
        """Partial derivative with respect to y; requires degree >= 1."""
        if self.degree_y < 1:
            raise ValueError("constant in y, no derivative branch data")
        return BivariatePolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def _substituted(self, q, p, c):
        """The y-coefficients of P(t**q, t**p (c + y)) for an exact scalar c,
        by the binomial theorem on integer numerators (a Taylor shift).

        Over one common denominator D, P = sum_k n_k(t) y**k / D, and
        c = (c_r + i c_i) / c_d.  With m the degree in y, the coefficient of
        y**j is sum_(k >= j) C(k, j) (c_r + i c_i)**(k-j) c_d**(m-k+j)
        n_k(t**q) t**(p k) over D c_d**m: the i-th numerator of n_k lands at
        t**(i q + p k).  So each y**j costs one scalar times list step per
        k >= j, O(m**2) in all, and one reduction to lowest terms.
        """
        nums, den = _common(self.coeffs)
        c = GaussianRational.ensure(c)
        cd = math.lcm(c.re.denominator, c.im.denominator)
        cr, ci = (x.numerator * (cd // x.denominator) for x in (c.re, c.im))
        m = self.degree_y
        # powers[e] = (c_r + i c_i)**e c_d**(m-e)
        powers, (pr, pi) = [], (1, 0)
        for e in range(m + 1):
            powers.append((pr * cd ** (m - e), pi * cd ** (m - e)))
            pr, pi = pr * cr - pi * ci, pr * ci + pi * cr
        den *= cd ** m
        out = []
        for j in range(m + 1):
            size = max((q * (len(nums[k]) - 1) + p * k + 1 for k in range(j, m + 1) if nums[k]),
                       default=0)
            re, im = [0] * size, [0] * size
            for k in range(j, m + 1):
                ar, ai = powers[k - j]
                if not (nums[k] and (ar or ai)):
                    continue
                ar, ai = ar * math.comb(k, j), ai * math.comb(k, j)
                for x, (nr, ni) in zip(range(p * k, size, q), nums[k]):
                    re[x] += ar * nr - ai * ni
                    im[x] += ar * ni + ai * nr
            out.append(RationalPoly._make(_gi_trim(list(zip(re, im))), den))
        return out

    def shift_y(self, a):
        """P(t, a + y)."""
        return BivariatePolynomial(self._substituted(1, 0, a))

    def substitute_puiseux(self, q, p, c):
        """Return P(tau**q, tau**p * (c + y)) / tau**N with N the minimal valuation.

        This is one resolution step of the Newton-Puiseux iteration; c must be
        exact (an int, Fraction, str or GaussianRational).
        """
        new = self._substituted(q, p, c)
        vals = [poly.valuation for poly in new if not poly.is_zero]
        if not vals:
            raise ValueError("substitution produced the zero polynomial")
        shift = min(vals)
        return BivariatePolynomial([poly.shift_down(shift) for poly in new])

    def discriminant(self):
        """Resultant of P and dP/dy with respect to y, as a polynomial in t.

        Vanishes identically exactly when P has a repeated factor in y.  Over
        one common denominator D, P = sum_k n_k y**k / D with Gaussian-integer
        polynomials n_k; let m be the degree in y and a = n_m.  Then
        Q(y) = a**(m-1) (D P)(y/a) is monic with Gaussian-integer polynomial
        coefficients, and its roots are a times those of P.  Newton's
        identities give their power sums s_0..s_(2m-2), and the Hankel
        determinant det(s_(i+j)), i, j < m, is the product of their squared
        differences (von zur Gathen and Gerhard, Modern Computer Algebra,
        ch. 6), taken by fraction-free Bareiss elimination.  So
        Res(P, P_y) = (-1)**(m(m-1)/2) a**(2m-1-m(m-1)) det / D**(2m-1),
        with one exact division when the exponent is negative (m >= 3).

        That is O(m**3) polynomial products and exact divisions on an
        m-square matrix, where the Sylvester route has a (2m - 1)-square
        one, but the entries grow faster with m: on monic P this route is
        two to three times as fast up to y-degree 8, gains little at 9 and
        loses from 10 on.  So a degree above MAX_DEGREE_Y raises ValueError.
        A lead a that depends on t enters the determinant as a**(m(m-1)):
        with a quadratic lead and 60-digit coefficients at y-degree 8 this
        route takes about three times as long as the Sylvester one.
        """
        m = self.degree_y
        if m < 1:
            raise ValueError("discriminant needs degree >= 1 in y")
        if m > MAX_DEGREE_Y:
            raise ValueError(f"degree {m} in y is over the discriminant's cap {MAX_DEGREE_Y}")
        if m == 1:
            return RationalPoly.one()
        nums, den = _common(self.coeffs)
        a = nums[m]
        # q[k] is the coefficient of y**(m-k) in Q: 1, then n_(m-k) a**(k-1)
        q, power = [_UNIT], _UNIT
        for k in range(1, m + 1):
            q.append(_gi_dot(((nums[m - k], power),)))
            power = _gi_dot(((power, a),))
        # Newton: s_k = -(sum_(0 < i < k, i <= m) q_i s_(k-i) + k q_k), q_k = 0 past m
        sums = [[(m, 0)]]
        for k in range(1, 2 * m - 1):
            terms = [(q[i], sums[k - i]) for i in range(1, min(k, m + 1))]
            if k <= m:
                terms.append((q[k], [(k, 0)]))
            sums.append([(-re, -im) for re, im in _gi_dot(terms)])
        det = _bareiss_det([sums[i:i + m] for i in range(m)])
        if m * (m - 1) // 2 % 2:
            det = [(-re, -im) for re, im in det]
        exponent = 2 * m - 1 - m * (m - 1)
        power = _UNIT
        for _ in range(abs(exponent)):
            power = _gi_dot(((power, a),))
        det = _gi_dot(((det, power),)) if exponent > 0 else _gi_exact_div(det, power)
        return RationalPoly._make(det, den ** (2 * m - 1))

    def __eq__(self, other):
        if isinstance(other, BivariatePolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __reduce__(self):
        return BivariatePolynomial, (self.coeffs,)

    def __repr__(self):
        parts = [f"({c!r})*y^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero]
        return "BivariatePolynomial(" + " + ".join(parts) + ")"


# The Gaussian-integer kernel: polynomials as ascending sequences of
# (re, im) int pairs without trailing zeros, so [] is the zero polynomial.
# Functions here never mutate their arguments, which lets matrix rows
# share coefficient lists.

_UNIT = ((1, 0),)


def _gi_trim(cs):
    while cs and cs[-1] == (0, 0):
        cs.pop()
    return cs


def _gi_dot(pairs):
    """Sum of the products a * b over an iterable of (a, b) pairs."""
    re, im = [], []
    for a, b in pairs:
        if not a or not b:
            continue
        grow = len(a) + len(b) - 1 - len(re)
        if grow > 0:
            re += [0] * grow
            im += [0] * grow
        for i, (ar, ai) in enumerate(a):
            if not (ar or ai):
                continue
            for j, (br, bi) in enumerate(b):
                re[i + j] += ar * br - ai * bi
                im[i + j] += ar * bi + ai * br
    return _gi_trim(list(zip(re, im)))


def _gi_divmod(a, b):
    """Quotient and remainder of Gaussian-integer polynomials: a = q b + r
    with deg r < deg b.

    Raises ArithmeticError when a coefficient quotient is not a Gaussian
    integer.  Scaling a by lead(b)**(deg a - deg b + 1) first makes every
    one exact (pseudo-division).
    """
    deg_b = len(b) - 1
    if len(a) <= deg_b:
        return [], list(a)
    lr, li = b[-1]
    norm = lr * lr + li * li
    rem = list(a)
    quot = [(0, 0)] * (len(a) - deg_b)
    for k in range(len(a) - 1, deg_b - 1, -1):
        cr, ci = rem[k]
        if not (cr or ci):
            continue
        if li == 0:
            qr, r_re = divmod(cr, lr)
            qi, r_im = divmod(ci, lr)
        else:
            qr, r_re = divmod(cr * lr + ci * li, norm)
            qi, r_im = divmod(ci * lr - cr * li, norm)
        if r_re or r_im:
            raise ArithmeticError("inexact polynomial division: coefficient remainder")
        quot[k - deg_b] = (qr, qi)
        for j, (br, bi) in enumerate(b):
            rr, ri = rem[k - deg_b + j]
            rem[k - deg_b + j] = (rr - qr * br + qi * bi, ri - qr * bi - qi * br)
    return quot, _gi_trim(rem[:deg_b])


def _gi_exact_div(a, b):
    """Quotient a / b of Gaussian-integer polynomials that must divide exactly;
    raises ArithmeticError otherwise."""
    quot, rem = _gi_divmod(a, b)
    if rem:
        raise ArithmeticError("inexact polynomial division: nonzero remainder")
    return quot


def _bareiss_det(rows):
    """Determinant of a square matrix of Gaussian-integer polynomials.

    Fraction-free elimination (Bareiss, Math. Comp. 1968): after step k every
    entry of the trailing block is a (k+1)-square minor of the input, so the
    division by the previous pivot is exact.  A zero pivot is replaced by a
    lower row with a nonzero entry in its column, flipping the sign; when no
    such row exists the determinant is zero.  The rows are overwritten.
    """
    size = len(rows)
    sign = 1
    prev = [(1, 0)]
    for k in range(size - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if swap is None:
                return []
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1:]:
            minus_lead = [(-re, -im) for re, im in row[k]]
            for j in range(k + 1, size):
                entry = _gi_dot(((row[j], pivot), (minus_lead, pivot_row[j])))
                row[j] = _gi_exact_div(entry, prev)
        prev = pivot
    det = rows[-1][-1]
    return det if sign > 0 else [(-re, -im) for re, im in det]


def _common(polys):
    """Numerators of the given RationalPolys over their least common
    denominator, and that denominator."""
    den = math.lcm(*(p.den for p in polys))
    return [[(re * (den // p.den), im * (den // p.den)) for re, im in p.num]
            for p in polys], den


def gram_charpoly(entries):
    """det(y I - V* V) for a matrix V of RationalPoly entries in t, exactly.

    V* conjugates the coefficients, which is the adjoint of V(t) at real t.
    With d the common denominator of all entries, W = d V is the matrix of
    their Gaussian-integer numerators over d, and G = W* W = d**2 V* V.
    Newton's identities on the power traces of G (tr G**k read off the
    diagonal of G**k for k < m, and tr G**m as sum_ij (G**(m-1))_ij G_ji,
    which needs no m-th power) give the coefficients c_k of y**(m-k) in
    det(y I - G) through k c_k = -sum_i c_(k-i) tr G**i.  Those are
    Gaussian-integer polynomials, so each division by k is exact and is
    checked by _gi_exact_div.  Scaling y by d**2 turns them into the
    coefficients of V* V: c_k is over d**(2k).  The result is monic in y of
    degree m, the number of columns, and its coefficients are real
    polynomials, since V* V is Hermitian at real t.  The cost is m - 2
    products of m x m polynomial matrices, all over the integers.
    """
    m = len(entries[0])
    nums, denom = _common([e for row in entries for e in row])
    w = [nums[i:i + m] for i in range(0, len(nums), m)]
    gram = [[_gi_dot(([(re, -im) for re, im in row[i]], row[j]) for row in w)
             for j in range(m)] for i in range(m)]
    power = gram
    traces = [_gi_dot((gram[i][i], _UNIT) for i in range(m))]
    for _ in range(m - 2):
        power = [[_gi_dot((power[i][k], gram[k][j]) for k in range(m))
                  for j in range(m)] for i in range(m)]
        traces.append(_gi_dot((power[i][i], _UNIT) for i in range(m)))
    if m > 1:
        traces.append(_gi_dot((power[i][j], gram[j][i])
                              for i in range(m) for j in range(m)))
    coeffs = [_UNIT]
    for k in range(1, m + 1):
        acc = _gi_dot((coeffs[k - i], traces[i - 1]) for i in range(1, k + 1))
        coeffs.append(_gi_exact_div(acc, [(-k, 0)]))
    return BivariatePolynomial([
        RationalPoly._make(coeffs[m - j], denom ** (2 * (m - j))) for j in range(m + 1)
    ])
