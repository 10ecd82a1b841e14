"""The counting kernels against their definitions, by direct enumeration."""

import pytest

from k3fermat.field import make_field
from k3fermat.kernels import backend_name, chi_cubic_sum, fermat_affine, jacobi_counts


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


@pytest.mark.parametrize("q", [5, 7, 13, 29])
def test_chi_cubic_sum_matches_definition(q):
    field = make_field(q)
    cubes = [x * x * x % q for x in range(q)]
    for a, b in ((0, 1), (1, 0), (2, 3), (q - 1, q - 2)):
        want = sum(field.chi2(x ** 3 + a * x + b) for x in range(q))
        assert chi_cubic_sum(field.chi2_table(), cubes, a, b, q) == want


@pytest.mark.parametrize("q,m", [(5, 1), (5, 2), (7, 3), (11, 10), (13, 4)])
def test_fermat_affine_matches_definition(q, m):
    field = make_field(q)
    powm = [pow(v, m, q) for v in range(q)]
    want = sum(1 for u in range(q) for v in range(q) for w in range(q)
               if (1 + u ** m + v ** m + w ** m) % q == 0)
    assert fermat_affine(powm, field.power_count_table(m), q) == want


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
