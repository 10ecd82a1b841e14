"""Exact arithmetic in Z[zeta_m] and exact polynomials.

CycInt stores the canonical residue modulo the m-th cyclotomic polynomial
(coefficient vector of length phi(m)), so equality is coefficient equality
and integrality certificates are exact. Group-ring vectors of length m are
accepted as raw input and reduced once.

IntPoly is the one polynomial type: its coefficients are ints for Z[T],
Fractions for Q[T], CycInts for Z[zeta_m][T], or finite-field elements
for the local expansions of pointcount (ints for F_p, QuadElements for
F_{p^2}).
"""

from fractions import Fraction
from math import gcd, lcm

from .field import prime_factors


def totient(m):
    out = m
    for f in prime_factors(m):
        out -= out // f
    return out


def _divisors(m):
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


class IntPoly:
    """Dense polynomial, coefficients ascending, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly([other])
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPoly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])

    def __sub__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return IntPoly([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])

    def __mul__(self, other):
        if not isinstance(other, IntPoly):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self):
        """self divided by its leading coefficient, over Q; zero stays zero."""
        if not self.coeffs:
            return self
        lead = Fraction(self.coeffs[-1])
        return IntPoly([c / lead for c in self.coeffs])

    def primitive(self):
        """The primitive integer multiple of self with positive leading coefficient."""
        if not self.coeffs:
            return self
        fracs = [Fraction(c) for c in self.coeffs]
        den = lcm(*(c.denominator for c in fracs))
        ints = [(c * den).numerator for c in fracs]
        content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
        return IntPoly([c // content for c in ints])

    def __repr__(self):
        return f"IntPoly({self.format()})"

    def format(self, var="T"):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c}")
                continue
            mag = abs(c)
            body = var if i == 1 else f"{var}^{i}"
            if mag != 1:
                body = f"{mag}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def poly_divmod(num, den):
    """Quotient and remainder by a monic divisor (over Z, or over Q)."""
    if not den or den.coeffs[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num.coeffs)
    dn = den.degree
    quo = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - dn - 1, -1, -1):
        c = rem[i + dn]
        if c:
            quo[i] = c
            for j, dcoef in enumerate(den.coeffs):
                rem[i + j] -= c * dcoef
    return IntPoly(quo), IntPoly(rem)


def exact_quotient(num, den):
    """num / den over Q; raises ArithmeticError unless den divides num."""
    lead = Fraction(den.coeffs[-1])
    quo, rem = poly_divmod(num, den.monic())
    if rem:
        raise ArithmeticError("division was expected to be exact")
    return IntPoly([c / lead for c in quo.coeffs])


def poly_gcd(a, b):
    """Monic greatest common divisor over Q, by Euclid's algorithm."""
    while b:
        a, b = b, poly_divmod(a, b.monic())[1]
    return a.monic()


_cyclo_cache = {}


def cyclotomic_poly(m):
    """The m-th cyclotomic polynomial, by exact division of x^m - 1."""
    if m < 1:
        raise ValueError("m must be positive")
    if m in _cyclo_cache:
        return _cyclo_cache[m]
    if m == 1:
        poly = IntPoly([-1, 1])
    else:
        num = IntPoly([-1] + [0] * (m - 1) + [1])
        den = IntPoly([1])
        for d in _divisors(m)[:-1]:
            den = den * cyclotomic_poly(d)
        poly, rem = poly_divmod(num, den)
        if rem:
            raise AssertionError(f"cyclotomic division left a remainder at m={m}")
    _cyclo_cache[m] = poly
    return poly


class CycInt:
    """Element of Z[zeta_m] in canonical coordinates mod the m-th cyclotomic
    polynomial. Instances are immutable; build via reduce()/from_integer()."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        phi = cyclotomic_poly(m).degree
        c = tuple(coeffs)
        if len(c) != phi:
            raise ValueError(f"need {phi} coefficients for m={m}, got {len(c)}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, *a):
        raise AttributeError("CycInt is immutable")

    @classmethod
    def from_integer(cls, m, n):
        return cls(m, (n,) + (0,) * (cyclotomic_poly(m).degree - 1))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return isinstance(other, CycInt) and self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            return CycInt(self.m, (self.coeffs[0] + other,) + self.coeffs[1:])
        other = self._coerce(other)
        return CycInt(self.m, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return self + -other
        other = self._coerce(other)
        return CycInt(self.m, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return CycInt(self.m, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.m, tuple(other * a for a in self.coeffs))
        other = self._coerce(other)
        return reduce((IntPoly(self.coeffs) * IntPoly(other.coeffs)).coeffs, self.m)

    __rmul__ = __mul__

    def _coerce(self, other):
        if not isinstance(other, CycInt):
            raise TypeError(f"cannot combine CycInt with {type(other).__name__}")
        if other.m != self.m:
            raise ValueError(f"conductor mismatch: {self.m} vs {other.m}")
        return other

    def conj(self):
        """Image under zeta -> zeta^{-1}."""
        return self.galois_apply(self.m - 1)

    def galois_apply(self, u):
        """Image under zeta -> zeta^u for a unit u mod m."""
        m = self.m
        u %= m
        if gcd(u, m) != 1:
            raise ValueError(f"{u} is not a unit mod {m}")
        raw = [0] * m
        for j, c in enumerate(self.coeffs):
            if c:
                raw[u * j % m] += c
        return reduce(raw, m)

    def as_rational_integer(self):
        """The integer value, or None when any non-constant coefficient survives."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0] if self.coeffs else 0

    def __repr__(self):
        return f"CycInt(m={self.m}, {self.format()})"

    def format(self, var="z"):
        return IntPoly(self.coeffs).format(var) if any(self.coeffs) else "0"


def reduce(raw, m):
    """Canonical residue of sum raw[j] * zeta^j modulo the m-th cyclotomic
    polynomial. Accepts vectors of any length (exponents taken mod m)."""
    acc = [0] * m
    for j, c in enumerate(raw):
        if c:
            acc[j % m] += c
    phi_m = cyclotomic_poly(m)
    _, rem = poly_divmod(IntPoly(acc), phi_m)
    coeffs = list(rem.coeffs) + [0] * (phi_m.degree - len(rem.coeffs))
    return CycInt(m, coeffs)


def orbit_product(values):
    """prod (1 - v*T) over CycInt values, certified to have integer coefficients.

    The values must aggregate to a full Galois-stable multiset (e.g. one or
    more complete orbits); any non-integral product coefficient raises.
    """
    poly = IntPoly([1])
    for v in values:
        poly = poly * IntPoly([1, -v])
    out = []
    for i, c in enumerate(poly.coeffs):
        n = c if isinstance(c, int) else c.as_rational_integer()
        if n is None:
            raise ValueError(f"orbit product coefficient {i} is not a rational integer: {c!r}")
        out.append(n)
    return IntPoly(out)
