"""Reference fields and counts for the tests.

The package counts over prime fields only. QuadExtField is F_{p^2} =
F_p(sqrt r), with QuadElements a + b*sqrt(r) that combine with ordinary
+ - * and with ints on either side, so Tate's algorithm (tate_fiber)
runs over it as over a PrimeField. reference_elliptic_count is the
point count of an elliptic surface over either kind of field, one cubic
sum per good fiber: the tests check count_elliptic_smooth against it
over F_p, and the facts over F_{p^2} (Frobenius squared, fibers that
split there) through it alone.

round_by_round_local_model is _local_model as it read before it took its
valuations once: a Taylor shift at every t0, one minimality step per
round, and v(Delta) from a scan of Delta's coefficients in ascending
order, whatever v(A) and v(B) are.
"""

from k3fermat.cyclotomic import IntPoly
from k3fermat.field import PrimeField, make_field
from k3fermat.kernels import chi_cubic_sum
from k3fermat.pointcount import (
    _INF,
    _local_model,
    _taylor_shift,
    _valuation,
    fiber_points,
    tate_fiber,
)


def reference_dlog_table(p, g):
    """PrimeField's dlog table by the full walk: one product mod p per
    power g^j, j < p - 1; -1 marks 0."""
    table = [-1] * p
    acc = 1
    for j in range(p - 1):
        table[acc] = j
        acc = acc * g % p
    return table


class QuadElement:
    """a + b*sqrt(r) in F_{p^2} = F_p(sqrt r), with a and b reduced mod p.

    Instances are immutable. + - * combine two elements of one field, or an
    element and an int on either side.
    """

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b=0):
        p = field.p
        self.field = field
        self.a = a % p
        self.b = b % p

    def __add__(self, other):
        if isinstance(other, QuadElement):
            return QuadElement(self.field, self.a + other.a, self.b + other.b)
        if isinstance(other, int):
            return QuadElement(self.field, self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, QuadElement):
            a, b, c, d = self.a, self.b, other.a, other.b
            return QuadElement(self.field, a * c + b * d * self.field.r, a * d + b * c)
        if isinstance(other, int):
            return QuadElement(self.field, self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.b == 0 and self.a == other % self.field.p
        if isinstance(other, QuadElement):
            return (self.a, self.b) == (other.a, other.b)
        return NotImplemented

    def __hash__(self):
        # an element of F_p hashes like its reduced int, as == implies
        return hash((self.a, self.b)) if self.b else hash(self.a)

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.field.r}))"


class QuadExtField:
    """F_{p^2} = F_p(sqrt r) for odd prime p and a fixed non-residue r.

    Elements are QuadElements; the methods below also accept ints. Just
    enough for fiberwise point counting: no dlog table, no characters beyond
    chi2 (computed through the norm).
    """

    def __init__(self, p):
        base = PrimeField(p)
        if p == 2:
            raise ValueError("quadratic extension of F_2 not supported")
        self.base = base
        self.p = p
        self.q = p * p
        if p % 4 == 3:
            self.r = p - 1  # -1 is a non-residue
        else:
            self.r = next(v for v in range(2, p) if base.chi2(v) == -1)

    def __repr__(self):
        return f"QuadExtField({self.p}, r={self.r})"

    def _element(self, x):
        return x if isinstance(x, QuadElement) else QuadElement(self, x)

    def elements(self):
        p = self.p
        return (QuadElement(self, a, b) for b in range(p) for a in range(p))

    def from_int(self, n):
        return QuadElement(self, n)

    def is_zero(self, x):
        return not self._element(x)

    def norm(self, x):
        x = self._element(x)
        return (x.a * x.a - self.r * x.b * x.b) % self.p

    def inv(self, x):
        x = self._element(x)
        n = self.norm(x)
        if n == 0:
            raise ZeroDivisionError("inverse of 0")
        ninv = pow(n, -1, self.p)
        return QuadElement(self, x.a * ninv, -x.b * ninv)

    def chi2(self, x):
        # chi2(z) = z^((q-1)/2) = Norm(z)^((p-1)/2)
        return self.base.chi2(self.norm(x))


def reference_elliptic_count(model, q):
    """F_q-points of the smooth model of y^2 = x^3 + A(t)x + B(t) over P^1,
    q a prime or a field object: one cubic sum per good fiber, and the
    configuration from Tate's algorithm at each bad one. Over F_p the sum
    is chi_cubic_sum; over any other field, chi2 term by term."""
    field = make_field(q) if isinstance(q, int) else q
    size = field.q
    if isinstance(field, PrimeField):
        chi2 = field.chi2_table()
        cubes = [x * x * x % size for x in range(size)]

        def cubic_sum(a, b):
            return chi_cubic_sum(chi2, cubes, a % size, b % size, size)
    else:
        def cubic_sum(a, b):
            return sum(field.chi2(x * x * x + a * x + b) for x in field.elements())
    disc = model.discriminant()
    total = 0
    for t0 in [*field.elements(), "inf"]:
        if t0 != "inf" and not field.is_zero(disc(t0)):
            a0, b0 = model.a(t0), model.b(t0)
        else:
            local = _local_model(model, field, t0)
            a, b, _va, vd = local
            if vd:
                total += fiber_points(tate_fiber(model, field, t0, local), size)
                continue
            a0, b0 = a.coeff(0), b.coeff(0)
        total += size + 1 + cubic_sum(a0, b0)
    return total


def scanned_discriminant_valuation(a, b, field):
    """_valuation of -16(4A^3 + 27B^2), from its coefficients in ascending
    order up to the first that is nonzero in the field."""
    a, b = a.coeffs, b.coeffs

    def coeff(x, y, i):
        return sum(x[j] * y[i - j] for j in range(max(0, i - len(y) + 1), min(i + 1, len(x))))

    a2 = []
    for i in range(max(3 * len(a) - 2, 2 * len(b) - 1)):
        a2.append(coeff(a, a, i))
        if not field.is_zero(-16 * (4 * coeff(a2, a, i) + 27 * coeff(b, b, i))):
            return i
    return _INF


def round_by_round_local_model(model, field, t0):
    """(A, B, v(A), v(Delta)) at t0 as _local_model gives it, one
    minimality step (A, B) -> (A/tau^4, B/tau^6) at a time, each after
    reading both valuations again; v(A) is read once more at the end."""
    if t0 == "inf":
        a = IntPoly([model.a.coeff(8 - i) for i in range(9)])
        b = IntPoly([model.b.coeff(12 - i) for i in range(13)])
    else:
        a = _taylor_shift(model.a, t0)
        b = _taylor_shift(model.b, t0)
    while (a or b) and _valuation(a, field) >= 4 and _valuation(b, field) >= 6:
        a = IntPoly(a.coeffs[4:])
        b = IntPoly(b.coeffs[6:])
    vd = scanned_discriminant_valuation(a, b, field)
    if vd == _INF:
        raise ValueError(f"discriminant vanishes identically mod {field.p}")
    return a, b, _valuation(a, field), vd
