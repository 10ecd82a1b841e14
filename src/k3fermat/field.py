"""Prime fields with eager discrete-log tables, and one small quadratic
extension type for counting over F_{p^2}.

PrimeField elements are plain ints; QuadExtField elements are QuadElements
a + b*sqrt(r) for a fixed non-residue r. Elements of both fields combine
with ordinary + - * and with ints on either side, so the point counters run
over either. Ints may be left unreduced mod p along the way: each field's
is_zero, inv and chi2 reduce their argument, and elements() and from_int
return reduced values.
"""

from math import gcd

# Eager dlog tables make nth_power_count and character sums O(1) per lookup.
# The benchmark's largest prime is 4027, a table of a few thousand entries;
# the hard cap keeps an accidental huge p from allocating gigabytes.
MAX_PRIME = 1 << 22


def is_prime(n):
    """Deterministic primality test by trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_modulus(p):
    """Raise ValueError unless p is a prime that PrimeField accepts."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus {p!r} is not prime")
    if p > MAX_PRIME:
        raise ValueError(f"p={p} exceeds the dlog table cap 2^22")


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


class PrimeField:
    """F_p with a fixed primitive root g and the full table dlog[g^j] = j.

    The canonical g is the smallest primitive root, making every downstream
    character value reproducible run to run. An alternate root may be forced
    (used by the character-independence tests).
    """

    def __init__(self, p, primitive_root=None):
        check_modulus(p)
        self.p = p
        self.q = p
        if primitive_root is None:
            self.g = self._smallest_primitive_root()
        else:
            self._check_primitive(primitive_root)
            self.g = primitive_root % p
        # dlog_table[v] = j with g^j = v; -1 marks v = 0
        table = [-1] * p
        acc = 1
        for j in range(p - 1):
            table[acc] = j
            acc = acc * self.g % p
        self.dlog_table = table
        self._power_tables = {}
        self._chi2_table = None

    def _smallest_primitive_root(self):
        if self.p == 2:
            return 1
        fs = _prime_factors(self.p - 1)
        for c in range(2, self.p):
            if all(pow(c, (self.p - 1) // f, self.p) != 1 for f in fs):
                return c
        raise AssertionError("no primitive root found")  # unreachable for prime p

    def _check_primitive(self, g):
        g %= self.p
        if g == 0:
            raise ValueError("0 is not a primitive root")
        if self.p == 2:
            return
        fs = _prime_factors(self.p - 1)
        if any(pow(g, (self.p - 1) // f, self.p) == 1 for f in fs):
            raise ValueError(f"{g} is not a primitive root mod {self.p}")

    def __repr__(self):
        return f"PrimeField({self.p}, g={self.g})"

    def dlog(self, v):
        v %= self.p
        if v == 0:
            raise ValueError("dlog(0) is undefined")
        return self.dlog_table[v]

    def nth_power_count(self, c, m):
        """#{u in F_p : u^m = c}."""
        c %= self.p
        if c == 0:
            return 1
        d = gcd(m, self.p - 1)
        return d if self.dlog_table[c] % d == 0 else 0

    def power_count_table(self, m):
        """List t with t[c] = nth_power_count(c, m), for the counting loops."""
        if m not in self._power_tables:
            self._power_tables[m] = [self.nth_power_count(c, m) for c in range(self.p)]
        return self._power_tables[m]

    def chi2(self, v):
        """Quadratic character: 0 at 0, else +/-1 by dlog parity.

        At p=2 squaring is a bijection, so the character is identically 0
        (keeps #{y : y^2 = v} = 1 + chi2(v) exact).
        """
        v %= self.p
        if v == 0 or self.p == 2:
            return 0
        return 1 if self.dlog_table[v] % 2 == 0 else -1

    def chi2_table(self):
        if self._chi2_table is None:
            self._chi2_table = [self.chi2(v) for v in range(self.p)]
        return self._chi2_table

    # -- elements are plain ints --

    def elements(self):
        return range(self.p)

    def from_int(self, n):
        return n % self.p

    def is_zero(self, v):
        return v % self.p == 0

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)


def make_field(p):
    """Field with the smallest primitive root and a full dlog table."""
    return PrimeField(p)


def as_field(q):
    """q itself when it is already a field object, else make_field(q)."""
    return make_field(q) if isinstance(q, int) else q


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
