"""Exact arithmetic in Z[zeta_m] and exact polynomials.

CycInt stores the canonical residue modulo the m-th cyclotomic polynomial
(coefficient vector of length phi(m)), so equality is coefficient equality
and integrality certificates are exact. Group-ring vectors of any length
are accepted as raw input and reduced once, by a table per conductor m that
holds the canonical coordinates of zeta^j for each j < m: reduce, products
and the Galois action read rows of it and never divide by Phi_m. A product
packs each factor's coordinates into signed slots of one integer
(Kronecker substitution), multiplies once and reduces the unpacked
convolution.

A product prod (1 - vT) that lies in Z[T], such as the factor of a Galois
orbit, is formed by no product in Z[zeta_m]: zeta -> 2^s is a ring map
into Z/Phi_m(2^s), where each value is its Kronecker value. The product is
expanded there and lifted to centred residues, exact once Phi_m(2^s)
exceeds twice the bound (1 + L)^n on every coefficient of n values with
|sigma(v)| <= L, and the T coefficient is certified against minus the
values' sum.

IntPoly is the one polynomial type: its coefficients are ints for Z[T],
CycInts for Z[zeta_m][T], or finite-field elements for the local
expansions of pointcount (ints for F_p, or the elements of any field
object the tests pass to tate_fiber). Over Z,
gcds come from primitive pseudo-remainders and quotients are exact
integer divisions, so no rational number is ever formed.
"""

from collections import Counter
from itertools import compress
from math import gcd, prod
from struct import pack, unpack

from .characters import units_mod
from .field import prime_factors


def totient(m):
    out = m
    for f in prime_factors(m):
        out -= out // f
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

    def primitive(self):
        """self over Z divided by its content, with positive leading
        coefficient; zero stays zero."""
        c = self.coeffs
        if not c:
            return self
        content = gcd(*c) if c[-1] > 0 else -gcd(*c)
        return self if content == 1 else IntPoly([x // content for x in c])

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


def exact_quotient(num, den):
    """num / den in Z[T]; raises ArithmeticError unless den divides num there.

    By Gauss's lemma a primitive den that divides num over Q leaves an
    integer quotient, so this is the exact division that Yun's algorithm
    over Z needs.
    """
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(num.coeffs)
    dn = den.degree
    d = den.coeffs
    lead = d[-1]
    quo = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - dn - 1, -1, -1):
        c = rem[i + dn]
        if c:
            c, r = divmod(c, lead)
            if r:
                raise ArithmeticError("division was expected to be exact")
            quo[i] = c
            for j in range(dn + 1):
                rem[i + j] -= c * d[j]
    if any(rem[:dn]):
        raise ArithmeticError("division was expected to be exact")
    return IntPoly(quo)


def _pseudo_remainder(num, den):
    """r with lead(den)^k num = quo * den + r and deg r < deg den, den
    nonzero; k counts the elimination steps whose top coefficient lead(den)
    does not divide, so r is the plain remainder when every one does."""
    rem = list(num.coeffs)
    dn = den.degree
    d = den.coeffs
    lead = d[-1]
    for i in range(len(rem) - dn - 1, -1, -1):
        c = rem.pop()
        if c:
            if c % lead:
                rem = [lead * x for x in rem]
            else:
                c //= lead
            for j in range(dn):
                rem[i + j] -= c * d[j]
    return IntPoly(rem)


def poly_gcd(a, b):
    """Greatest common divisor over Q, as a primitive polynomial in Z[T]
    with positive leading coefficient (zero when a = b = 0).

    Euclid's algorithm on primitive pseudo-remainders: every remainder is
    divided by its content, which keeps its coefficients from growing
    exponentially along the sequence.
    """
    a, b = a.primitive(), b.primitive()
    while b:
        a, b = b, _pseudo_remainder(a, b).primitive()
    return a


_cyclo_cache = {}


def cyclotomic_poly(m):
    """The m-th cyclotomic polynomial, from its sparse product formula.

    With r = rad m, Phi_m(x) = Phi_r(x^(m/r)), and for r > 1
    Phi_r(x) = prod over d | r of (1 - x^d)^mu(r/d) (Arnold and Monagan,
    Math. Comp. 80, 2011). Phi_r has degree n = phi(r), so the product is
    taken as a power series mod x^(n+1) on one list of n + 1 ints:
    multiplying by 1 - x^d subtracts a[i - d] from a[i] walking down,
    dividing by it adds a[i - d] to a[i] walking up, and a factor with
    d > n is 1 mod x^(n+1).
    """
    if m < 1:
        raise ValueError("m must be positive")
    if m in _cyclo_cache:
        return _cyclo_cache[m]
    if m == 1:
        poly = IntPoly([-1, 1])
    else:
        primes = prime_factors(m)
        r = prod(primes)
        n = prod(p - 1 for p in primes)
        # (d, mu(r/d)) for every divisor d of r
        signed = [(1, (-1) ** len(primes))]
        for p in primes:
            signed += [(d * p, -mu) for d, mu in signed]
        a = [1] + [0] * n
        for d, mu in signed:
            if d > n:
                continue
            if mu > 0:
                for i in range(n, d - 1, -1):
                    a[i] -= a[i - d]
            else:
                for i in range(d, n + 1):
                    a[i] += a[i - d]
        s = m // r
        coeffs = [0] * (n * s + 1)
        coeffs[::s] = a
        poly = IntPoly(coeffs)
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
        a, b = self.coeffs, other.coeffs
        # Kronecker substitution with B = 2^(8w): the product of
        # sum a_i B^i and sum b_j B^j is sum c_k B^k with
        # |c_k| <= max|a| max|b| phi < B/2, so every c_k reads back from
        # its own slot (see _kronecker_digits); a zero factor counts as 1
        # so that the other factor's coordinates still fit their slots
        n = len(a)
        bound = (max(map(abs, a)) or 1) * (max(map(abs, b)) or 1) * n
        w = _slot_width(bound)
        xy = _kronecker_value(a, w) * _kronecker_value(b, w)
        conv = _kronecker_digits(xy, 2 * n - 1, w)
        return reduce(conv, self.m)

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
        rows = _power_table(m)
        acc = [0] * len(self.coeffs)
        for j, c in enumerate(self.coeffs):
            if c:
                for i, a in rows[u * j % m]:
                    acc[i] += c * a
        return CycInt(m, acc)

    def as_rational_integer(self):
        """The integer value, or None when any non-constant coefficient survives."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0] if self.coeffs else 0

    def __repr__(self):
        return f"CycInt(m={self.m}, {self.format()})"

    def format(self, var="z"):
        return IntPoly(self.coeffs).format(var) if any(self.coeffs) else "0"


# struct formats of signed little-endian slots by width in bytes
_SLOT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _slot_width(bound):
    """Bytes per slot holding every integer of absolute value <= bound in
    two's complement: bound.bit_length() bits plus a sign bit, rounded up
    to a struct width when one is large enough."""
    w = bound.bit_length() + 8 >> 3
    return next((f for f in _SLOT_FORMATS if f >= w), w)


def _top_bits(n, w):
    """sum over k < n of 2^(8w-1) * 2^(8wk): the top bit of every slot."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _kronecker_value(coeffs, w):
    """sum coeffs[i] * 2^(8wi), for |coeffs[i]| < 2^(8w-1).

    Packing the two's complement slots gives sum (c_i mod B) B^i with
    B = 2^(8w). Flipping the top bit of a slot maps c mod B to c + B/2,
    so subtracting B/2 from every slot leaves sum c_i B^i.
    """
    n = len(coeffs)
    f = _SLOT_FORMATS.get(w)
    if f:
        packed = pack(f"<{n}{f}", *coeffs)
    else:
        packed = b"".join([c.to_bytes(w, "little", signed=True) for c in coeffs])
    top = _top_bits(n, w)
    return (int.from_bytes(packed, "little") ^ top) - top


def _kronecker_digits(value, n, w):
    """The c_k of value = sum over k < n of c_k 2^(8wk), |c_k| < 2^(8w-1).

    Adding 2^(8w-1) to every slot makes each digit c_k + B/2 lie in
    [0, B), so no slot borrows from the next; flipping each top bit back
    leaves c_k in two's complement, read as one signed slot.
    """
    top = _top_bits(n, w)
    data = ((value + top) ^ top).to_bytes(w * n, "little")
    f = _SLOT_FORMATS.get(w)
    if f:
        return unpack(f"<{n}{f}", data)
    return [int.from_bytes(data[k:k + w], "little", signed=True) for k in range(0, len(data), w)]


def _kronecker_at(coeffs, s):
    """sum coeffs[i] * 2^(s*i) by Horner's rule: the value at zeta = 2^s
    of an element's coordinates. Unlike _kronecker_value, s need not be a
    whole number of bytes and the coeffs need not fit their slots."""
    x = 0
    for c in reversed(coeffs):
        x = (x << s) + c
    return x


def reduce(raw, m):
    """Canonical residue of sum raw[j] * zeta^j modulo the m-th cyclotomic
    polynomial. Accepts vectors of any length (exponents taken mod m)."""
    rows = _power_table(m)
    acc = [0] * cyclotomic_poly(m).degree
    for j, c in enumerate(raw):
        if c:
            for i, a in rows[j % m]:
                acc[i] += c * a
    return CycInt(m, acc)


# The largest power_table_bound that the jacobi command accepts. For scale: m = 18480 has a bound of 7.0e6, its
# table holds 3.4e6 pairs, takes 2.8 s to build and peaks at 47 MB
# (CPython 3.11, one core of a 2-vCPU machine).
POWER_TABLE_LIMIT = 10 ** 7


def power_table_bound(m):
    """An upper bound on the (index, coefficient) pairs of _power_table(m).

    With r = rad m and s = m / r, Phi_m(x) = Phi_r(x^s), so for j = s*a + b,
    b < s, zeta^j = zeta^b (zeta^s)^a has at most phi(r) canonical terms;
    the phi(m) rows j < phi(m) are single monomials.
    """
    phi = totient(m)
    return phi + (m - phi) * totient(prod(prime_factors(m)))


# The largest jacobi_work that the jacobi command accepts, so that no
# admitted input runs much over two minutes. Python's integer product is
# Karatsuba's, so time grows faster than the bits: jacobi --m 925901
# --q 1851803, priced 2.9999e8 and nearly all product bits, took 105 s
# and peaked at 605 MB; --m 34304 --q 102913, the longest table walk the
# limit admits, took 12 s; --m 40009 --q 880199, priced 1.2e7, took 1.8 s
# (CPython 3.11, one core of a 2-vCPU machine).
JACOBI_WORK_LIMIT = 3 * 10 ** 8


def jacobi_work(m, q):
    """The steps of one Jacobi sum in Z[zeta_m] over F_q and its norm, as
    kernels.jacobi_counts and CycInt.__mul__ take them.

    The count pass walks the q - 2 elements x and the m residues, q + m
    steps. The cyclic convolution and the norm check j * conj(j) are each
    one integer product, priced at its bit size: two factors of m slots of
    w bytes, w holding (q - 2)^2, and two of phi(m) slots, each holding
    a product of two coordinates summed phi(m) times. A coordinate of j is
    booked at q^2, above the sum of the counts. reduce first builds
    _power_table(m), whose dense walk shifts and scans phi(m) coordinates
    for each of its m - phi(m) folded rows.
    """
    conv = 2 * m * 8 * max(1, ((q - 2) ** 2).bit_length() + 7 >> 3)
    phi = totient(m)
    norm = 2 * phi * 8 * _slot_width(q ** 4 * phi)
    return q + m + conv + norm + (m - phi) * phi


_table_cache = {}


def _power_table(m):
    """Row j holds the canonical coordinates of zeta^j mod Phi_m, j < m, as
    sparse (index, coefficient) pairs; built on first use.

    Rows j < phi(m) are monomials. From there, shift and fold on one dense
    list: zeta^(j+1) is zeta^j shifted up one place, with its top
    coefficient c folded back through x^phi = x^phi - Phi_m(x) mod Phi_m,
    which touches only the nonzero low terms of Phi_m. Equal pairs are
    interned, so the rows share them.
    """
    if m not in _table_cache:
        phi_m = cyclotomic_poly(m)
        phi = phi_m.degree
        fold = [(i, -a) for i, a in enumerate(phi_m.coeffs[:-1]) if a]
        intern = {}.setdefault
        rows = [(intern((j, 1), (j, 1)),) for j in range(min(phi, m))]
        row = [0] * (phi - 1) + [1]
        for _ in range(phi, m):
            c = row.pop()
            row.insert(0, 0)
            if c:
                for i, a in fold:
                    row[i] += c * a
            rows.append(tuple([intern(p, p) for p in compress(enumerate(row), row)]))
        _table_cache[m] = rows
    return _table_cache[m]


def _linear_product(values):
    """prod (1 - vT) in Z[T] for a list of CycInt values of one conductor m
    whose product lies in Z[T], such as a full Galois orbit.

    zeta -> B = 2^s is a ring map Z[zeta_m] -> Z/N with N = Phi_m(B), since
    Phi_m(B) = 0 mod N; it sends v to its Kronecker value v(B) mod N. The
    product is expanded in (Z/N)[T] and each coefficient lifted to
    (-N/2, N/2]. The lift is exact: a coefficient e_k is a rational integer
    and every conjugate has |sigma(v)| <= ||v||_1, the sum of v's absolute
    coordinates, so |e_k| <= prod (1 + ||v||_1) <= (1 + L)^n for n values
    of norm at most L, and s is the least with N > 2 prod (1 + ||v||_1).
    N = prod |B - zeta| grows with B and stays below (B + 1)^phi, which
    gives the search its start.

    One exact certificate stays: the values' sum must be a rational
    integer, and the lifted T coefficient minus it, or ValueError. The sum
    refuses a list that is not Galois-stable when its sum is irrational;
    the T coefficient, |e_1| being far inside the lift, checks the
    evaluation and the expansion against it. A list with a rational sum
    whose product is not in Z[T] passes, so callers certify Galois
    stability first.
    """
    if not values:
        return IntPoly([1])
    m = values[0].m
    total = [sum(col) for col in zip(*(v.coeffs for v in values))]
    if any(total[1:]):
        raise ValueError(f"the values sum to {CycInt(m, total)!r}, not a rational integer")
    phi_m = cyclotomic_poly(m)
    bound = 2 * prod([1 + sum(map(abs, v.coeffs)) for v in values])
    s = max(1, (bound.bit_length() - 1) // phi_m.degree)
    while phi_m(1 << s) <= bound:
        s += 1
    n = phi_m(1 << s)
    poly = [1]
    for v in values:
        x = _kronecker_at(v.coeffs, s) % n
        poly.append(0)
        for i in range(len(poly) - 1, 0, -1):
            poly[i] = (poly[i] - x * poly[i - 1]) % n
    half = n >> 1
    poly = [c - n if c > half else c for c in poly]
    if poly[1] != -total[0]:
        raise ValueError(f"T coefficient {poly[1]} is not minus the values' sum {total[0]}")
    return IntPoly(poly)


def orbit_product(values):
    """prod (1 - v*T) over a Galois-stable multiset of CycInt values, in Z[T].

    The multiset is split into Galois orbits {sigma_u(v)}, and each orbit
    must be present in full with the same multiplicity c for every member,
    so the product lies in Z[T]. _linear_product then expands it in one
    pass through the evaluation map zeta -> 2^s into Z/Phi_m(2^s), lifts
    each coefficient exactly under the (1 + L)^n bound and checks the T
    coefficient against minus the values' sum. A value that is not a
    CycInt, mixed conductors, a missing conjugate or uneven multiplicities
    raise ValueError.
    """
    values = list(values)
    counts = Counter()
    m = None
    for v in values:
        if not isinstance(v, CycInt):
            raise ValueError(f"orbit product needs CycInt values, got {type(v).__name__}")
        if m is None:
            m = v.m
        elif v.m != m:
            raise ValueError(f"conductor mismatch: {m} vs {v.m}")
        counts[v] += 1
    while counts:
        v = next(iter(counts))
        c = counts[v]
        # units_mod(m) starts with 1, and is empty for m = 1
        orbit = {v}.union(v.galois_apply(u) for u in units_mod(m)[1:])
        for w in orbit:
            n = counts.pop(w, 0)
            if n != c:
                raise ValueError(f"not Galois-stable: {v!r} occurs {c} times, "
                                 f"its conjugate {w!r} {n} times")
    return _linear_product(values)
