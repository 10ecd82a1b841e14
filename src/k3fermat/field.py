"""Prime fields with discrete-log tables built on first read.

PrimeField elements are plain ints, combined with ordinary + - *. Ints
may be left unreduced mod p along the way: is_zero, inv and chi2 reduce
their argument, and elements() and from_int return reduced values. Tate's
algorithm in pointcount reads a field only through these methods, so the
tests also run it over their own reference field F_{p^2}.
"""

from functools import cached_property

# The dlog table makes character sums O(1) per lookup. Building it is a
# walk of (p-1)/2 products mod p, paid only by the first reader, so a
# field that only refuses a non-prime or hands out g costs O(sqrt p).
# Jacobi sums are linear in q, so zeta runs at q near 10^6 in about a
# second; the hard cap keeps an accidental huge p from allocating gigabytes.
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


def prime_factors(n):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
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
    """F_p with a fixed primitive root g and the table dlog[g^j] = j.

    The table is built on first read and kept; until then a field holds
    only p and g.

    The canonical g is the smallest primitive root, making every downstream
    character value reproducible run to run. An alternate root may be forced
    (used by the character-independence tests).
    """

    def __init__(self, p, primitive_root=None):
        check_modulus(p)
        self.p = p
        self.q = p
        fs = prime_factors(p - 1)

        def primitive(c):
            return c % p != 0 and all(pow(c, (p - 1) // f, p) != 1 for f in fs)

        if primitive_root is None:
            self.g = next(c for c in range(1, p) if primitive(c))
        elif primitive(primitive_root):
            self.g = primitive_root % p
        else:
            raise ValueError(f"{primitive_root % p} is not a primitive root mod {p}")
        self._chi2_table = None

    @cached_property
    def dlog_table(self):
        """dlog_table[v] = j with g^j = v; -1 marks v = 0.

        g^h = -1 for h = (p-1)/2, so p - g^j = g^(j+h): one walk over
        j < h writes both halves, one product per two entries.
        """
        p, g = self.p, self.g
        table = [-1] * p
        if p == 2:
            table[1] = 0
            return table
        h = (p - 1) // 2
        acc = 1
        for j in range(h):
            table[acc] = j
            table[p - acc] = j + h
            acc = acc * g % p
        return table

    def __repr__(self):
        return f"PrimeField({self.p}, g={self.g})"

    def dlog(self, v):
        v %= self.p
        if v == 0:
            raise ValueError("dlog(0) is undefined")
        return self.dlog_table[v]

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
        """[chi2(v) for v in range(p)], read off the dlog parities on first use."""
        if self._chi2_table is None:
            if self.p == 2:
                self._chi2_table = [0, 0]
            else:
                sign = (1, -1)
                self._chi2_table = [sign[j & 1] for j in self.dlog_table]
                self._chi2_table[0] = 0
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
    """Field with the smallest primitive root; its dlog table is built on
    first read."""
    return PrimeField(p)


def as_field(q):
    """q itself when it is already a field object, else make_field(q)."""
    return make_field(q) if isinstance(q, int) else q
