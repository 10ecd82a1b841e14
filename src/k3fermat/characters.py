"""Character quadruples attached to a degree-m Fermat surface.

A character vector is (a0, a1, a2, a3) with every coordinate nonzero mod m
and coordinate sum divisible by m. Its weight (the representative sum in
(0, m) divided by m) lies in {1, 2, 3} and fixes the Hodge type of the
two-form eigenspace the vector indexes. Tables elsewhere abbreviate a
vector by [a1, a2, a3]; a0 is recovered from the sum condition.

Record, the package's one immutable value base, lives here because this
module imports nothing from the package, so every module that defines a
value (catalog, delsarte, jacobi_zeta, lattice) can import it. So does
rational_text, which catalog, cli and lattice print rationals with.
"""

from math import gcd


class Record:
    """Immutable record with its fields named in order in _fields.

    A subclass lists its fields as both __slots__ and _fields (a slot
    outside _fields, such as a cache, enters neither equality nor the hash)
    and sets them in __init__ through _set. Equality is class-strict, the
    hash is the hash of the field tuple and the repr reads
    Name(field=value, ...).
    """

    __slots__ = ()
    _fields = ()

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, *a):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({body})"


class CharacterVector(Record):
    """Immutable character vector (m, a) with a reduced into (0, m)."""

    __slots__ = _fields = ("m", "a")

    def __init__(self, m, a):
        if m < 2:
            raise ValueError("degree must be at least 2")
        a = tuple(a)
        if len(a) != 4:
            raise ValueError(f"need four coordinates, got {len(a)}")
        norm = tuple(x % m for x in a)
        if any(x == 0 for x in norm):
            raise ValueError(f"coordinates must be nonzero mod {m}: {a}")
        if sum(norm) % m != 0:
            raise ValueError(f"coordinate sum must vanish mod {m}: {a}")
        self._set(m, norm)

    @classmethod
    def from_triple(cls, m, triple):
        a1, a2, a3 = triple
        a0 = -(a1 + a2 + a3) % m
        return cls(m, (a0, a1, a2, a3))

    @property
    def triple(self):
        return self.a[1:]

    def scaled(self, u):
        """Coordinatewise multiple u * alpha for a unit u mod m."""
        if gcd(u, self.m) != 1:
            raise ValueError(f"{u} is not a unit mod {self.m}")
        return CharacterVector(self.m, tuple(u * x % self.m for x in self.a))


def units_mod(m):
    return [u for u in range(1, m) if gcd(u, m) == 1]


def alpha_norm(alpha):
    """Weight of alpha: representative sum over m, always 1, 2 or 3."""
    return sum(alpha.a) // alpha.m


def rational_text(pair):
    """The rational num/den of a (num, den) pair, den > 0, in lowest terms:
    "n" for an integer, else "n/d"."""
    num, den = pair
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"
