"""Jacobi sums and the zeta factors they assemble.

For q = 1 mod m the Frobenius eigenvalues on a degree-m Fermat surface are
q itself plus one Jacobi sum j(alpha) per character vector alpha; products
over full Galois orbits land in Z[T]. The order-k quotient surfaces in the
catalog inherit the transcendental part of their zeta function from the
orbit attached to the covering map, while the algebraic part is a sign
pattern in (1 -/+ qT) fixed by k and q mod 4. The order-3 surface has no
Fermat cover and is handled through its CM structure instead.
"""

from dataclasses import dataclass
from math import gcd, isqrt

from .characters import CharacterVector, units_mod, enumerate_A
from .cyclotomic import CycInt, IntPoly, orbit_product, reduce, totient
from .field import PrimeField, as_field, is_prime, make_field
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


def _orbit_values(field, alphas):
    """j(alpha) for every vector in a Galois-stable set, one sum per orbit.

    Orbit mates are filled in through galois_apply, so the double loop in
    jacobi_sum runs once per orbit rather than once per character.
    """
    values = {}
    for alpha in alphas:
        if alpha in values:
            continue
        j = jacobi_sum(field, alpha.m, alpha)
        for u in units_mod(alpha.m):
            mate = alpha.scaled(u)
            if mate not in values:
                values[mate] = j.galois_apply(u)
    return values


def fermat_zeta_factor(m, q):
    """(1 - qT) * prod over all alpha of (1 - j(alpha)T), in Z[T]."""
    field = _admissible_field(q, m)
    if m == 1:
        return IntPoly([1, -field.q])
    values = _orbit_values(field, enumerate_A(m))
    return IntPoly([1, -field.q]) * orbit_product(values.values())


def transcendental_factor(k, q):
    """Degree-phi(k) factor carried by the transcendental orbit of surface k."""
    if k == 3:
        raise ValueError("the order-3 surface has no Fermat cover; use cm_factor_k3")
    from .catalog import transcendental_row

    row = transcendental_row(k)
    m = row[0].m
    field = _admissible_field(q, m)
    values = _orbit_values(field, row)
    poly = orbit_product([values[alpha] for alpha in row])
    if poly.degree != totient(k):
        raise AssertionError(f"transcendental factor has degree {poly.degree}")
    return poly


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
    poly = IntPoly([1])
    for _ in range(n_plus):
        poly = poly * IntPoly([1, -q])
    for _ in range(n_minus):
        poly = poly * IntPoly([1, q])
    return n_minus, n_plus, poly


def cm_factor_k3(p):
    """Transcendental factor of the order-3 surface at p.

    Inert p (2 mod 3): 1 - p^2 T^2. Split p: 1 - tT + p^2 T^2 where t runs
    over the traces of pi^2 for the norm-p elements pi of Z[zeta_3]; the
    unit ambiguity in pi leaves three candidate traces, and the brute-force
    point count over F_p selects the right one.
    """
    if p in (2, 3):
        raise ValueError("p must be a prime of good reduction, not 2 or 3")
    field = make_field(p)
    if p % 3 == 2:
        return IntPoly([1, 0, -p * p])
    candidates = set()
    bound = isqrt(4 * p) + 2
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a * a - a * b + b * b == p:
                # trace of (a + b zeta_3)^2
                candidates.add(2 * a * a - b * b - 2 * a * b)
    from .catalog import catalog_entry
    from .pointcount import count_elliptic_smooth

    model = catalog_entry(3).model
    trace = count_elliptic_smooth(model, field) - 1 - p * p - 20 * p
    if trace not in candidates:
        raise AssertionError(f"oracle trace {trace} not among CM candidates {sorted(candidates)}")
    return IntPoly([1, -trace, p * p])


@dataclass(frozen=True)
class ZetaReport:
    """Assembled reciprocal Frobenius data for one catalog surface at one q."""

    k: int
    q: int
    m: "int | None"  # None for the order-3 surface, which has no cover
    n_plus: int
    n_minus: int
    r_a: IntPoly
    r_t: IntPoly
    jacobi_values: tuple
    trace: int
    predicted_count: int
    notes: tuple


def zeta_report(k, q):
    """R_a, R_t and the point count 1 + q^2 + (n_plus - n_minus) q + trace."""
    from .catalog import catalog_entry, transcendental_row

    entry = catalog_entry(k)
    notes = []
    if k == 3:
        r_t = cm_factor_k3(q)
        trace = -r_t.coeff(1)
        jacobi_values = ()
        m = None
        notes.append("order 3: CM transcendental factor, no Fermat cover")
    else:
        m = entry.m
        field = _admissible_field(q, m)
        row = transcendental_row(k)
        values = _orbit_values(field, row)
        total = CycInt.from_integer(m, 0)
        for alpha in row:
            total = total + values[alpha]
        trace = total.as_rational_integer()
        if trace is None:
            raise AssertionError("transcendental trace is not a rational integer")
        r_t = orbit_product([values[alpha] for alpha in row])
        jacobi_values = tuple((alpha, values[alpha]) for alpha in row)
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


def default_primes(m, count=2):
    """The count smallest primes q with q = 1 mod m."""
    if m < 1 or count < 1:
        raise ValueError("need m >= 1 and count >= 1")
    out = []
    q = 2
    while len(out) < count:
        if q % m == 1 % m and is_prime(q):
            out.append(q)
        q += 1
    return out
