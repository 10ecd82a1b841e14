from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3fermat.catalog import ORDERS, catalog_entry, transcendental_row
from k3fermat.characters import CharacterVector, units_mod
from k3fermat.cyclotomic import (
    CycInt,
    IntPoly,
    _power_table,
    cyclotomic_poly,
    orbit_product,
    power_table_bound,
    reduce,
    totient,
)
from k3fermat.field import is_prime, make_field
from k3fermat.jacobi_zeta import default_primes, jacobi_sum, zeta_report
from zeta_reference import orbit_values, poly_divmod


def brute_totient(m):
    return sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)


def test_totient_matches_brute_force():
    for m in range(1, 120):
        assert totient(m) == brute_totient(m)


def test_intpoly_arithmetic():
    p = IntPoly([1, 2])       # 1 + 2T
    q = IntPoly([-1, 0, 3])   # -1 + 3T^2
    assert (p + q).coeffs == (0, 2, 3)
    assert (p - q).coeffs == (2, 2, -3)
    assert (p * q).coeffs == (-1, -2, 3, 6)
    assert p(2) == 5
    assert q(2) == 11
    assert IntPoly([1, 0, 0]).coeffs == (1,)
    assert IntPoly([]).degree == -1
    assert (p * IntPoly([])).coeffs == ()
    assert 3 * p == IntPoly([3, 6])


def test_poly_divmod_monic():
    num = IntPoly([-1, 0, 0, 0, 0, 0, 1])  # T^6 - 1
    den = IntPoly([-1, 1])                 # T - 1
    quo, rem = poly_divmod(num, den)
    assert rem == IntPoly([])
    assert quo == IntPoly([1, 1, 1, 1, 1, 1])
    quo2, rem2 = poly_divmod(IntPoly([1, 1, 1]), IntPoly([0, 1]))
    assert quo2 == IntPoly([1, 1])
    assert rem2 == IntPoly([1])
    with pytest.raises(ValueError):
        poly_divmod(num, IntPoly([1, 2]))


def test_cyclotomic_small_values():
    assert cyclotomic_poly(1) == IntPoly([-1, 1])
    assert cyclotomic_poly(2) == IntPoly([1, 1])
    assert cyclotomic_poly(3) == IntPoly([1, 1, 1])
    assert cyclotomic_poly(4) == IntPoly([1, 0, 1])
    assert cyclotomic_poly(6) == IntPoly([1, -1, 1])
    assert cyclotomic_poly(12) == IntPoly([1, 0, -1, 0, 1])


def test_cyclotomic_structure():
    # Degree phi(m); Phi_m(0) = 1 and Phi_m(1) = p on prime powers, 1 otherwise
    # (m > 1); the product over divisors of m reassembles x^m - 1.
    for m in range(1, 67):
        poly = cyclotomic_poly(m)
        assert poly.degree == totient(m)
        assert poly.coeffs[-1] == 1
        if m == 1:
            assert poly(0) == -1
            assert poly(1) == 0
        else:
            assert poly(0) == 1
            n, p = m, None
            for f in range(2, m + 1):
                if n % f == 0:
                    p = f
                    while n % f == 0:
                        n //= f
                    break
            is_prime_power = n == 1
            assert poly(1) == (p if is_prime_power else 1)
        prod = IntPoly([1])
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic_poly(d)
        assert prod == IntPoly([-1] + [0] * (m - 1) + [1])


_reference_cache = {}


def reference_cyclotomic_poly(m):
    """Phi_m by recursive long division, (x^m - 1) / prod over the proper
    divisors d of m of Phi_d: the construction that cyclotomic_poly's
    product formula replaced."""
    if m not in _reference_cache:
        if m == 1:
            poly = IntPoly([-1, 1])
        else:
            den = IntPoly([1])
            for d in range(1, m):
                if m % d == 0:
                    den = den * reference_cyclotomic_poly(d)
            poly, rem = poly_divmod(IntPoly([-1] + [0] * (m - 1) + [1]), den)
            assert not rem, m
        _reference_cache[m] = poly
    return _reference_cache[m]


@pytest.mark.parametrize("ms", [
    range(1, 401),
    (128, 243),                # prime powers: Phi_r(x^(m/r)) with r prime
    (1000, 2310, 4620),        # not squarefree; five prime factors
], ids=["to-400", "prime-powers", "composite"])
def test_cyclotomic_poly_matches_the_recursive_division(ms):
    for m in ms:
        assert cyclotomic_poly(m) == reference_cyclotomic_poly(m), m


def test_cyclotomic_poly_with_six_prime_factors():
    # The recursive division takes about a minute at m = 30030, so Phi_30030
    # is checked one prime step above the reference instead: for p not
    # dividing n, Phi_(pn)(x) Phi_n(x) = Phi_n(x^p), and Z[x] has no zero
    # divisors, so this identity determines Phi_30030 from Phi_2310.
    phi_2310 = reference_cyclotomic_poly(2310)
    spread = [0] * (13 * phi_2310.degree + 1)
    spread[::13] = phi_2310.coeffs
    assert cyclotomic_poly(30030) * phi_2310 == IntPoly(spread)
    assert cyclotomic_poly(30030).degree == totient(30030) == 5760


def test_reduce_examples():
    # zeta_4^2 = -1
    assert reduce([0, 0, 1, 0], 4) == CycInt.from_integer(4, -1)
    # 1 + zeta_3 + zeta_3^2 = 0
    assert reduce([1, 1, 1], 3) == CycInt.from_integer(3, 0)
    # zeta_12^6 = -1
    assert reduce([0] * 6 + [1] + [0] * 5, 12) == CycInt.from_integer(12, -1)
    # exponents wrap mod m
    assert reduce([0, 0, 0, 0, 0, 1], 5) == CycInt.from_integer(5, 1)
    # already-canonical vectors pass through
    assert reduce([2, -1, 0, 3], 5).coeffs == (2, -1, 0, 3)


def test_mul_example_m5():
    # (1 + zeta)(1 + zeta^4) = 2 + zeta + zeta^4 in Z[zeta_5]
    a = reduce([1, 1, 0, 0, 0], 5)
    b = reduce([1, 0, 0, 0, 1], 5)
    assert a * b == reduce([2, 1, 0, 0, 1], 5)


def test_integer_on_the_left():
    i = reduce([0, 1], 4)
    assert 1 + i == i + 1 == reduce([1, 1], 4)
    assert 1 - i == -(i - 1) == reduce([1, -1], 4)
    assert 3 * i == i * 3 == reduce([0, 3], 4)
    # IntPoly over Z[i]: (t + i)(t - i) = t^2 + 1
    assert IntPoly([i, 1]) * IntPoly([-i, 1]) == IntPoly([1, 0, 1])


def test_reduce_is_ring_hom():
    import random

    rng = random.Random(7)
    for m in (4, 5, 7, 12):
        for _ in range(20):
            a = [rng.randrange(-9, 10) for _ in range(m)]
            b = [rng.randrange(-9, 10) for _ in range(m)]
            conv = [0] * (2 * m)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    conv[i + j] += x * y
            assert reduce(conv, m) == reduce(a, m) * reduce(b, m)
            s = [x + y for x, y in zip(a, b)]
            assert reduce(s, m) == reduce(a, m) + reduce(b, m)


def reference_reduce(raw, m):
    """Canonical residue of sum raw[j] * zeta^j by long division by Phi_m."""
    acc = [0] * m
    for j, c in enumerate(raw):
        if c:
            acc[j % m] += c
    phi_m = cyclotomic_poly(m)
    _, rem = poly_divmod(IntPoly(acc), phi_m)
    return CycInt(m, list(rem.coeffs) + [0] * (phi_m.degree - len(rem.coeffs)))


CATALOG_CONDUCTORS = sorted({catalog_entry(k).m for k in ORDERS if k != 3})


def test_power_table_rows_are_remainders_of_powers():
    # every m <= 200: m = 1 and 2, prime powers and all catalog conductors
    assert set(CATALOG_CONDUCTORS) <= set(range(1, 201))
    for m in range(1, 201):
        rows = _power_table(m)
        assert len(rows) == m
        phi_m = cyclotomic_poly(m)
        for j, row in enumerate(rows):
            dense = [0] * phi_m.degree
            for i, a in row:
                assert a and dense[i] == 0, (m, j)
                dense[i] = a
            assert IntPoly(dense) == poly_divmod(IntPoly([0] * j + [1]), phi_m)[1], (m, j)
        assert sum(map(len, rows)) <= power_table_bound(m), m


def test_power_table_bound_values():
    # phi(m) monomial rows plus (m - phi(m)) rows of at most phi(rad m) terms
    assert power_table_bound(1) == 1
    assert power_table_bound(2) == 2 == sum(map(len, _power_table(2)))
    assert power_table_bound(4620) == 960 + (4620 - 960) * 480
    assert power_table_bound(15015) == 5760 + (15015 - 5760) * 5760
    # a prime p has one folded row, -(1 + zeta + ... + zeta^(p-2))
    assert power_table_bound(199) == 2 * 198 == sum(map(len, _power_table(199)))


@st.composite
def raw_vectors(draw):
    m = draw(st.sampled_from(CATALOG_CONDUCTORS))
    raw = draw(st.lists(st.integers(-50, 50), max_size=3 * m))
    return m, raw


@settings(deadline=None, max_examples=150)
@given(raw_vectors())
def test_reduce_matches_long_division(case):
    m, raw = case
    assert reduce(raw, m) == reference_reduce(raw, m)


@st.composite
def elements_and_units(draw):
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 12] + CATALOG_CONDUCTORS))
    phi = totient(m)
    coords = st.lists(st.integers(-20, 20), min_size=phi, max_size=phi)
    x, y = CycInt(m, draw(coords)), CycInt(m, draw(coords))
    units = st.sampled_from(units_mod(m) if m > 1 else [1])
    return x, y, draw(units), draw(units)


@settings(deadline=None, max_examples=150)
@given(elements_and_units())
def test_galois_action_is_a_ring_automorphism(case):
    x, y, u, v = case
    m = x.m
    assert x.galois_apply(1) == x
    assert (x * y).galois_apply(u) == x.galois_apply(u) * y.galois_apply(u)
    assert (x + y).galois_apply(u) == x.galois_apply(u) + y.galois_apply(u)
    assert x.galois_apply(u).galois_apply(v) == x.galois_apply(u * v % m)


@settings(deadline=None, max_examples=150)
@given(elements_and_units())
def test_mul_matches_the_polynomial_product(case):
    x, y, _, _ = case
    product = IntPoly(x.coeffs) * IntPoly(y.coeffs)
    assert x * y == reference_reduce(product.coeffs, x.m)


def schoolbook_mul(x, y):
    """x * y by the phi(m)^2 convolution of coordinates, then reduce."""
    a, b = x.coeffs, y.coeffs
    conv = [0] * (2 * len(a) - 1)
    for i, u in enumerate(a):
        for k, v in enumerate(b, i):
            conv[k] += u * v
    return reduce(conv, x.m)


@st.composite
def signed_pairs(draw):
    m = draw(st.sampled_from(CATALOG_CONDUCTORS))
    phi = totient(m)
    size = draw(st.sampled_from([1, 100, 2 ** 31, 2 ** 64, 2 ** 200]))
    coords = st.lists(st.integers(-size, size), min_size=phi, max_size=phi)
    return CycInt(m, draw(coords)), CycInt(m, draw(coords))


@settings(deadline=None, max_examples=200)
@given(signed_pairs())
def test_kronecker_product_matches_the_schoolbook_loop(case):
    x, y = case
    assert x * y == schoolbook_mul(x, y)
    assert x * -y == schoolbook_mul(x, -y)


def test_kronecker_product_at_slot_boundaries():
    # all coordinates +-(2^k +- 1) put max|a| max|b| phi itself in the
    # middle coordinate of the convolution, so every slot width is filled
    # to its sign bit somewhere along k
    for m in CATALOG_CONDUCTORS:
        phi = totient(m)
        zero = CycInt(m, [0] * phi)
        for k in range(0, 70):
            for v in (2 ** k - 1, 2 ** k, 2 ** k + 1):
                x = CycInt(m, [v] * phi)
                alternating = CycInt(m, [v if i % 2 else -v for i in range(phi)])
                for y in (x, -x, alternating):
                    assert x * y == schoolbook_mul(x, y), (m, k, v)
                assert zero * x == x * zero == zero
        assert zero * zero == zero


def test_conj_and_galois():
    z = reduce([0, 1], 4)  # zeta_4
    assert z.conj() == -z
    assert CycInt.from_integer(4, 7).conj() == CycInt.from_integer(4, 7)
    a = reduce([0, 1, 2, 0, 0], 5)  # zeta + 2 zeta^2
    assert a.conj() == reduce([0, 0, 0, 2, 1], 5)
    assert a.galois_apply(1) == a
    assert a.galois_apply(2) == reduce([0, 0, 1, 0, 2], 5)
    # sigma_u is a ring automorphism and composes multiplicatively
    b = reduce([3, 0, -1, 0, 0], 5)
    assert (a * b).galois_apply(3) == a.galois_apply(3) * b.galois_apply(3)
    assert a.galois_apply(2).galois_apply(3) == a.galois_apply(6)
    with pytest.raises(ValueError):
        a.galois_apply(5)
    with pytest.raises(ValueError):
        reduce([1, 1], 4).galois_apply(2)


def test_as_rational_integer():
    assert CycInt.from_integer(12, -3).as_rational_integer() == -3
    assert reduce([0, 1], 4).as_rational_integer() is None
    # 1 + zeta_3 has canonical form 1 + zeta_3 (not rational)
    assert reduce([1, 1, 0], 3).as_rational_integer() is None
    # -zeta_3 - zeta_3^2 = 1
    assert reduce([0, -1, -1], 3).as_rational_integer() == 1


def test_conductor_mismatch_rejected():
    with pytest.raises(ValueError):
        reduce([1], 1)._coerce(reduce([1, 0], 3))
    with pytest.raises(ValueError):
        _ = reduce([1, 1, 0], 3) + reduce([1, 1], 4)


def test_orbit_product():
    q = 5
    two_fixed = [CycInt.from_integer(4, q), CycInt.from_integer(4, q)]
    assert orbit_product(two_fixed) == IntPoly([1, -2 * q, q * q])
    # conjugate pair 5*zeta_4, -5*zeta_4: (1 - 5zT)(1 + 5zT) = 1 + 25 T^2
    z = reduce([0, 5], 4)
    assert orbit_product([z, -z]) == IntPoly([1, 0, 25])
    assert orbit_product([]) == IntPoly([1])
    with pytest.raises(ValueError):
        orbit_product([z])
    with pytest.raises(ValueError):
        orbit_product([z, CycInt.from_integer(3, 1)])


def reference_orbit_product(values):
    """prod (1 - v*T) factor by factor over Z[zeta_m][T], certified by
    every coefficient being a rational integer."""
    poly = IntPoly([1])
    for v in values:
        poly = poly * IntPoly([1, -v])
    out = []
    for c in poly.coeffs:
        n = c if isinstance(c, int) else c.as_rational_integer()
        if n is None:
            raise ValueError(f"coefficient {c!r} is not a rational integer")
        out.append(n)
    return IntPoly(out)


@st.composite
def galois_stable_multisets(draw):
    """One or two full orbits with multiplicities 1-3, shuffled. A value
    may be summed over the cyclic group of units generated by h, so that
    its stabiliser is nontrivial."""
    m = draw(st.sampled_from([3, 4, 5, 7, 8, 9, 12, 66]))
    units = units_mod(m)
    values = []
    for _ in range(draw(st.integers(1, 2))):
        w = CycInt(m, draw(st.lists(st.integers(-3, 3), min_size=totient(m),
                                    max_size=totient(m))))
        h = draw(st.sampled_from(units))
        group = {pow(h, e, m) for e in range(totient(m))}
        v = CycInt.from_integer(m, 0)
        for x in group:
            v = v + w.galois_apply(x)
        orbit = {v.galois_apply(u) for u in units}
        values += list(orbit) * draw(st.integers(1, 3))
    return draw(st.permutations(values))


@settings(deadline=None, max_examples=60)
@given(galois_stable_multisets())
def test_orbit_product_matches_the_factor_by_factor_product(values):
    assert orbit_product(values) == reference_orbit_product(values)


def test_orbit_product_matches_on_every_catalog_row():
    for k in ORDERS:
        if k == 3:
            continue
        row = transcendental_row(k)
        for q in default_primes(catalog_entry(k).m):
            values = orbit_values(make_field(q), row)
            row_values = [values[alpha] for alpha in row]
            poly = orbit_product(row_values)
            assert poly == reference_orbit_product(row_values), (k, q)
            assert poly.degree == totient(k)


def test_orbit_product_refuses_multisets_that_are_not_galois_stable():
    v = reduce([1, 2, 0, -1], 5)
    orbit = [v.galois_apply(u) for u in units_mod(5)]
    fixed = CycInt.from_integer(5, 3)
    with pytest.raises(ValueError):
        orbit_product(orbit[:-1])                     # one conjugate missing
    with pytest.raises(ValueError):
        orbit_product(orbit + orbit[:1])              # uneven multiplicities
    with pytest.raises(ValueError):
        orbit_product([fixed, fixed] + orbit + orbit[1:])
    with pytest.raises(ValueError):
        orbit_product(orbit + [CycInt.from_integer(4, 3)])   # mixed conductors
    with pytest.raises(ValueError):
        orbit_product(orbit + [3])                    # not a CycInt
    with pytest.raises(ValueError):
        orbit_product([IntPoly([1])])


def test_orbit_product_counts_a_nontrivial_stabiliser():
    # sqrt(-3) = 1 + 2 zeta_3 as an element of Z[zeta_12], fixed by u = 7
    # (zeta_3 = zeta_12^4); its orbit {sqrt(-3), -sqrt(-3)} has size 2
    r = reduce([1, 0, 0, 0, 2], 12)
    assert r.galois_apply(7) == r
    assert orbit_product([r, -r]) == IntPoly([1, 0, 3])
    assert orbit_product([r, r, -r, -r]) == IntPoly([1, 0, 6, 0, 9])


def test_a_real_orbit_takes_no_functional_equation():
    # sqrt(3) = zeta_12 + zeta_12^11 is real and sqrt(3) conj(sqrt(3)) = 3
    # is rational, yet its factor is 1 - 3T^2: the functional equation of a
    # Weil orbit, which needs conj(v) != v, would give 1 + 3T^2
    r = reduce([0, 1] + [0] * 9 + [1], 12)
    assert r.conj() == r and (r * r.conj()).as_rational_integer() == 3
    assert orbit_product([r, -r]) == reference_orbit_product([r, -r]) == IntPoly([1, 0, -3])


def test_primitive_roots_of_unity_give_the_cyclotomic_polynomial():
    # the Q = 1 case of the functional equation: prod (1 - zeta T) over the
    # primitive m-th roots is T^phi Phi_m(1/T), which is Phi_m for m >= 2
    # (Phi_m is palindromic) and 1 - T for m = 1
    for m in range(1, 61):
        roots = [reduce([0] * u + [1], m) for u in range(m) if gcd(u, m) == 1]
        poly = orbit_product(roots)
        assert poly == reference_orbit_product(roots), m
        assert poly == (cyclotomic_poly(m) if m > 1 else IntPoly([1, -1])), m


def admissible_primes(m, bound=400):
    return [q for q in range(m + 1, bound, m) if is_prime(q)]


JACOBI_CONDUCTORS = [m for m in range(3, 25) if admissible_primes(m)]


@st.composite
def jacobi_orbits(draw):
    """(q, the Galois orbit of j(alpha) over F_q listed once per unit) at a
    random conductor m < 25, admissible prime q < 400 and vector alpha. A
    vector alpha = d beta with d | m, d > 1, is fixed by the units u = 1
    mod m/d, so its Jacobi sum has a stabiliser of order > 1 and each
    conjugate occurs that many times."""
    m = draw(st.sampled_from(JACOBI_CONDUCTORS))
    q = draw(st.sampled_from(admissible_primes(m)))
    d = draw(st.sampled_from([d for d in range(1, m) if m % d == 0 and m // d > 1]))
    n = m // d
    triple = draw(st.lists(st.integers(1, n - 1), min_size=3, max_size=3))
    assume(sum(triple) % n)
    alpha = CharacterVector.from_triple(m, [d * a for a in triple])
    j = jacobi_sum(make_field(q), m, alpha)
    return q, [j.galois_apply(u) for u in units_mod(m)]


@settings(deadline=None, max_examples=80)
@given(jacobi_orbits())
def test_jacobi_orbit_factors_match_the_factor_by_factor_product(case):
    q, values = case
    poly = orbit_product(values)
    assert poly == reference_orbit_product(values)
    # |j|^2 = q^2 for each of the phi(m) values
    assert poly.coeffs[-1] == q ** len(values)


def test_a_weil_orbit_with_one_conjugate_missing_is_refused():
    field = make_field(13)
    j = jacobi_sum(field, 12, CharacterVector.from_triple(12, (1, 2, 4)))
    assert (j * j.conj()).as_rational_integer() == 13 ** 2 and j.conj() != j
    orbit = [j.galois_apply(u) for u in units_mod(12)]
    assert orbit_product(orbit) == reference_orbit_product(orbit)
    for i in range(len(orbit)):
        with pytest.raises(ValueError):
            orbit_product(orbit[:i] + orbit[i + 1:])


def test_zeta_report_makes_a_linear_number_of_multiplications(monkeypatch):
    # Newton's identities need |orbit| / 2 = 10 products for k = 66, v^2 ..
    # v^10 and v conj(v); the full loop made 19 and the factor-by-factor
    # product 380
    calls = []
    mul = CycInt.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(CycInt, "__mul__", counting_mul)
    zeta_report(66, 4027)
    assert 0 < len(calls) <= totient(66) // 2 + 1


def test_cycint_immutable_and_hashable():
    a = reduce([1, 2], 5)
    with pytest.raises(AttributeError):
        a.m = 7
    assert len({a, reduce([1, 2, 0, 0], 5), reduce([0, 1], 5)}) == 2
