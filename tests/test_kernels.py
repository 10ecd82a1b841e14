"""The counting kernels against their definitions, by direct enumeration."""

import sys
from collections import Counter
from itertools import count, product
from math import isqrt
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3fermat.field import is_prime, make_field
from k3fermat.kernels import backend_name, chi_cubic_sum, fermat_affine, jacobi_counts


def brute_jacobi_counts(dlog, q, m, a1, a2, a3):
    """The O(q^2) reference for jacobi_counts: every pair (v1, v2) with
    v1, v2 and v3 = -1-v1-v2 nonzero, one at a time.

    For each v1 the values a2*dlog(v2) + a3*dlog(v3) of all its pairs are
    tallied under a1*dlog(v1) mod m, and counts[e] sums the tallies whose
    total is e mod m.
    """
    t2 = [a2 * d % m for d in dlog]
    t3 = [a3 * d % m for d in dlog]
    rows = [Counter() for _ in range(m)]
    for v1 in range(1, q):
        w = q - 1 - v1  # v2 = w is the one v2 with v3 = 0
        row = rows[a1 * dlog[v1] % m]
        # v2 = 1..w-1 has v3 = w-1..1 and v2 = w+1..q-1 has v3 = q-1..w+1
        if w:
            row.update(map(add, t2[1:w], t3[w - 1:0:-1]))
        row.update(map(add, t2[w + 1:q], t3[q - 1:w:-1]))
    counts = [0] * m
    for b, row in enumerate(rows):
        for e, n in row.items():
            counts[(b + e) % m] += n
    return counts


def reference_jacobi_counts(dlog, q, m, a1, a2, a3):
    """The O(q + m^2) reference for jacobi_counts: the same two marginals,
    convolved mod m by a loop over every pair of residues instead of one
    integer product."""
    s = a1 + a2
    h = dlog[q - 1]
    counts = [0] * m
    for r in range(m):
        counts[(s * r + (a2 + a3) * h) % m] += (q - 1) // m
    p1 = [0] * m
    p2 = [0] * m
    shift = (s + a3) * h
    for d, e in zip(dlog[2:], dlog[q - 1:1:-1]):
        p1[(a1 * d + a2 * e) % m] += 1
        p2[(s * d + a3 * e + shift) % m] += 1
    for i, n1 in enumerate(p1):
        if n1:
            for j, n2 in enumerate(p2):
                counts[(i + j) % m] += n1 * n2
    return counts


def _straddling_primes(bits):
    """The largest and the smallest prime q = 1 mod 6 on either side of
    (q - 2)^2 = 2^bits."""
    below = next(q for q in range(isqrt(2 ** bits - 1) + 2, 1, -1)
                 if q % 6 == 1 and is_prime(q))
    above = next(q for q in count(isqrt(2 ** bits - 1) + 3)
                 if q % 6 == 1 and is_prime(q))
    return below, above


@pytest.mark.parametrize("bits", [8, 16, 24, 32])
def test_jacobi_counts_slot_width_at_byte_boundaries(bits):
    # Each slot of the packed product holds one convolution coefficient,
    # at most (q - 2)^2. Just below a byte boundary the marginals' product
    # fills the top byte of its slot, so a slot one byte short carries
    # into its neighbour; just above it the slot widens by one byte.
    below, above = _straddling_primes(bits)
    assert (below - 2) ** 2 < 2 ** bits <= (above - 2) ** 2
    for q in (below, above):
        field = make_field(q)
        for m in (2, 3, 6):
            for a in ((1, 1, 1), (1, 2, 3), (m - 1, m - 1, 1)):
                assert (jacobi_counts(field.dlog_table, q, m, *a)
                        == reference_jacobi_counts(field.dlog_table, q, m, *a)), (q, m, a)


@pytest.mark.parametrize("q,m", [(5, 2), (5, 4), (7, 3), (11, 10), (13, 12), (29, 14)])
def test_jacobi_counts_match_definition(q, m):
    field = make_field(q)
    for a1, a2, a3 in ((1, 1, 1), (1, 2, m - 1), (m - 1, m - 1, 1)):
        want = [0] * m
        for v1 in range(1, q):
            for v2 in range(1, q):
                v3 = (-1 - v1 - v2) % q
                if v3:
                    e = a1 * field.dlog(v1) + a2 * field.dlog(v2) + a3 * field.dlog(v3)
                    want[e % m] += 1
        assert jacobi_counts(field.dlog_table, q, m, a1, a2, a3) == want
        assert brute_jacobi_counts(field.dlog_table, q, m, a1, a2, a3) == want


@pytest.mark.parametrize("q", [q for q in range(2, 200) if is_prime(q)])
def test_jacobi_counts_match_the_brute_loop_for_every_degree(q):
    field = make_field(q)
    for m in (m for m in range(1, q) if (q - 1) % m == 0):
        # exponents past m, and each of a1, a2, a3, a1 + a2 and
        # a1 + a2 + a3 = 0 mod m in one of the triples
        for a in ((m, 2 * m + 1, m - 1), (m + 1, 2 * m - 1, 3 * m), (2, 3 * m, 5)):
            assert (jacobi_counts(field.dlog_table, q, m, *a)
                    == brute_jacobi_counts(field.dlog_table, q, m, *a)), (q, m, a)


@st.composite
def admissible_exponent_counts(draw):
    q = draw(st.sampled_from([q for q in range(2, 400) if is_prime(q)]))
    m = draw(st.sampled_from([m for m in range(1, q) if (q - 1) % m == 0]))
    a = draw(st.tuples(*[st.integers(0, 3 * m - 1)] * 3))
    return q, m, a


@settings(deadline=None, max_examples=40)
@given(admissible_exponent_counts())
def test_jacobi_counts_match_the_brute_loop_at_random(case):
    q, m, a = case
    field = make_field(q)
    assert (jacobi_counts(field.dlog_table, q, m, *a)
            == brute_jacobi_counts(field.dlog_table, q, m, *a))


def test_jacobi_counts_is_linear_in_q():
    # Line events, not time: the marginals take three per x and the rest a
    # few per residue, about 3(q + m) here. A fall back to the loop over
    # all pairs costs about 18M events, and one to the loop over all pairs
    # of residues two or three per pair, about 10^4 more.
    q, m = 2113, 66
    field = make_field(q)
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count_lines

    def enter(frame, event, arg):
        return count_lines if frame.f_code is jacobi_counts.__code__ else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        jacobi_counts(field.dlog_table, q, m, 1, 2, 63)
    finally:
        sys.settrace(previous)
    assert 0 < lines <= 4 * (q + m)


@pytest.mark.parametrize("q", [5, 7, 13, 29])
def test_chi_cubic_sum_matches_definition(q):
    field = make_field(q)
    cubes = [x * x * x % q for x in range(q)]
    for a, b in ((0, 1), (1, 0), (2, 3), (q - 1, q - 2)):
        want = sum(field.chi2(x ** 3 + a * x + b) for x in range(q))
        assert chi_cubic_sum(field.chi2_table(), cubes, a, b, q) == want


@settings(deadline=None, max_examples=100)
@given(st.sampled_from([p for p in range(5, 400) if is_prime(p)])
       .flatmap(lambda p: st.tuples(st.just(p), st.integers(1, p - 1))))
@example((5, 2))  # p = 2 mod 3: x -> x^3 is a bijection
@example((7, 3))  # p = 3 mod 4: chi2(-1) = -1
@example((11, 10))  # both
def test_chi_cubic_sum_of_a_nodal_cubic_is_the_sign_of_its_node(case):
    # x^3 - 3w^2 x + 2w^3 = (x - w)^2 (x + 2w): every x != w adds
    # chi2(x + 2w), and x = w would add chi2(3w), so the sum is
    # -chi2(3w) = -chi2(-2ab)
    p, w = case
    field = make_field(p)
    chi2 = field.chi2_table()
    cubes = [x * x * x % p for x in range(p)]
    a, b = -3 * w * w % p, 2 * w ** 3 % p
    assert chi_cubic_sum(chi2, cubes, a, b, p) == -field.chi2(-2 * a * b) == -field.chi2(3 * w)
    assert chi_cubic_sum(chi2, cubes, 0, 0, p) == 0


@pytest.mark.parametrize("q,m", [(5, 1), (5, 2), (7, 3), (11, 10), (13, 4)])
def test_fermat_affine_matches_definition(q, m):
    # every point (x0, x1, x2, x3) of F_q^4, one at a time
    powm = [pow(v, m, q) for v in range(q)]
    want = sum(1 for x in product(powm, repeat=4) if sum(x) % q == 0)
    assert fermat_affine(make_field(q).dlog_table, m, q) == want


def test_counts_total_is_complete():
    # each (v1, v2) pair with all three coordinates nonzero lands in
    # exactly one exponent bucket
    q, m = 29, 14
    field = make_field(q)
    counts = jacobi_counts(field.dlog_table, q, m, 1, 2, 3)
    pairs = sum(1 for v1 in range(1, q) for v2 in range(1, q)
                if (-1 - v1 - v2) % q != 0)
    assert sum(counts) == pairs


def test_backend_is_pure():
    assert backend_name() == "pure"
