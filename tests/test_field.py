import pytest
from field_reference import QuadExtField

from k3fermat.field import PrimeField, is_prime, make_field


def brute_smallest_primitive_root(p):
    # independent oracle: exhaustive order check of candidates
    if p == 2:
        return 1
    units = set(range(1, p))
    for c in range(2, p):
        if {pow(c, j, p) for j in range(p - 1)} == units:
            return c
    raise AssertionError


def test_make_field_primitive_roots():
    assert make_field(13).g == 2
    assert make_field(2).g == 1
    for p in [3, 5, 7, 11, 13, 19, 23, 29, 37, 43, 67, 89, 101, 103, 109, 191]:
        assert make_field(p).g == brute_smallest_primitive_root(p)


def test_is_prime_matches_sieve():
    n = 3000
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, n):
        if sieve[d]:
            for multiple in range(d * d, n, d):
                sieve[multiple] = False
    assert [v for v in range(-5, n) if is_prime(v)] == [v for v in range(n) if sieve[v]]


def test_make_field_rejects_non_primes():
    for bad in [12, 1, 0, -7, 91]:
        with pytest.raises(ValueError):
            make_field(bad)
    with pytest.raises(ValueError):
        make_field((1 << 22) + 5)  # beyond the table cap (if prime it still must fail)


def test_forced_primitive_root():
    f = PrimeField(13, primitive_root=6)
    assert f.g == 6
    assert all(pow(6, f.dlog_table[v], 13) == v for v in range(1, 13))
    with pytest.raises(ValueError):
        PrimeField(13, primitive_root=3)  # 3 has order 3 mod 13


def test_dlog_round_trip():
    for p in [13, 101]:
        f = make_field(p)
        for v in range(1, p):
            assert pow(f.g, f.dlog(v), p) == v
    f13 = make_field(13)
    assert f13.dlog(1) == 0
    assert f13.dlog(2) == 1
    assert f13.dlog(8) == 3
    with pytest.raises(ValueError):
        f13.dlog(0)


def test_quadratic_character():
    f = make_field(13)
    assert f.chi2(0) == 0
    assert f.chi2(4) == 1
    assert f.chi2(2) == -1
    for p in [2, 3, 13, 19]:
        f = make_field(p)
        for v in range(p):
            solutions = sum(1 for y in range(p) if y * y % p == v)
            assert solutions == 1 + f.chi2(v)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 101, 4001])
def test_chi2_table_matches_chi2(p):
    f = make_field(p)
    assert f.chi2_table() == [f.chi2(v) for v in range(p)]


def test_quad_ext_field():
    F = QuadExtField(7)
    els = list(F.elements())
    assert len(els) == 49
    one = F.from_int(1)
    # inv round trip on all nonzero elements
    for z in els:
        if not F.is_zero(z):
            assert z * F.inv(z) == one
    # chi2: half the units are squares; every square has chi2 = +1
    vals = [F.chi2(z) for z in els if not F.is_zero(z)]
    assert vals.count(1) == 24 and vals.count(-1) == 24
    for z in els:
        if not F.is_zero(z):
            assert F.chi2(z * z) == 1
    # multiplicativity
    assert all(
        F.chi2(x * y) == F.chi2(x) * F.chi2(y)
        for x in els[:10]
        for y in els[:10]
        if not (F.is_zero(x) or F.is_zero(y))
    )
    # base-field embedding: nonzero rational constants are squares in F_{p^2}
    for n in range(1, 7):
        assert F.chi2(F.from_int(n)) == 1


def test_quad_ext_chi2_counts_square_roots():
    F = QuadExtField(7)
    els = list(F.elements())
    for v in els[:25]:
        solutions = sum(1 for y in els if y * y == v)
        expect = 1 + F.chi2(v) if not F.is_zero(v) else 1
        assert solutions == expect
