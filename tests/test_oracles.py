"""The brute-force oracles against the loops they replaced, and the rules
that keep them fast and independent of the closed form.

count_elliptic_smooth, count_fermat and count_affine_double_sextic count
over classes of an elementary symmetry rather than over every point. The
reference loops below are the point-by-point versions: one chi_cubic_sum
per good fiber, the double loop over (u, v) for the Fermat chart, and one
row over u per v for the double sextic.
"""

import ast
import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import k3fermat
from k3fermat import pointcount
from k3fermat.catalog import load_catalog
from k3fermat.cyclotomic import IntPoly
from k3fermat.cli import main
from k3fermat.field import is_prime, make_field
from k3fermat.kernels import chi_cubic_sum, fermat_affine
from k3fermat.pointcount import (
    WeierstrassModel,
    _local_model,
    count_affine_double_sextic,
    count_elliptic_smooth,
    count_fermat,
    fiber_points,
    tate_fiber,
)

PRIMES_5_400 = [q for q in range(5, 400) if is_prime(q)]
ELLIPTIC = [e for e in load_catalog() if e.elliptic]


# ---------------------------------------------------------------------------
# reference loops

def reference_elliptic_count(model, q):
    """count_elliptic_smooth over F_q, one chi_cubic_sum per good fiber."""
    field = make_field(q)
    chi2 = field.chi2_table()
    cubes = [x * x * x % q for x in range(q)]
    disc = model.discriminant()
    total = 0
    for t0 in list(range(q)) + ["inf"]:
        if t0 != "inf" and disc(t0) % q:
            a0, b0 = model.a(t0), model.b(t0)
        else:
            a, b, vd = _local_model(model, field, t0)
            if vd:
                total += fiber_points(tate_fiber(model, field, t0), q)
                continue
            a0, b0 = a.coeff(0), b.coeff(0)
        total += q + 1 + chi_cubic_sum(chi2, cubes, a0 % q, b0 % q, q)
    return total


def reference_fermat_affine(powm, rootcnt, q):
    """fermat_affine as the double loop over every (u, v)."""
    total = 0
    for u in range(q):
        w = -1 - powm[u]
        for v in range(q):
            total += rootcnt[(w - powm[v]) % q]
    return total


def reference_fermat_count(m, q):
    field = make_field(q)
    powm = [pow(v, m, q) for v in range(q)]
    rootcnt = field.power_count_table(m)
    curve = sum(rootcnt[(-1 - c) % q] for c in powm) + rootcnt[(q - 1) % q]
    return reference_fermat_affine(powm, rootcnt, q) + curve


def reference_double_sextic(f, q):
    """count_affine_double_sextic as one row over u for every v."""
    chi2 = make_field(q).chi2_table()
    terms = [(i, j, c % q) for (i, j), c in f.items() if c % q]
    upow = [[pow(u, i, q) for i in range(7)] for u in range(q)]
    total = q * q
    for pv in upow:
        for pu in upow:
            val = 0
            for i, j, c in terms:
                val += c * pu[i] * pv[j]
            total += chi2[val % q]
    return total


def outcome(count, *args):
    """The count, or the error message for a model with bad reduction."""
    try:
        return count(*args)
    except ValueError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# elliptic surfaces

@pytest.mark.parametrize("entry", ELLIPTIC, ids=lambda e: f"k{e.k}")
def test_elliptic_count_matches_the_fiber_loop_below_400(entry):
    for q in PRIMES_5_400:
        assert (outcome(count_elliptic_smooth, entry.model, q)
                == outcome(reference_elliptic_count, entry.model, q)), (entry.k, q)


@st.composite
def models_with_every_good_fiber_shape(draw):
    """(model, q) with good fibers at which A = 0, B = 0, and AB != 0.

    A vanishes at r1 and B at r2 != r1, so those fibers are good as long as
    the other coefficient is nonzero there.
    """
    q = draw(st.sampled_from([q for q in PRIMES_5_400 if q < 120]))
    r1, r2 = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
    small = st.integers(-q, q)
    a = IntPoly([-r1, 1]) * IntPoly(draw(st.lists(small, min_size=1, max_size=8)))
    b = IntPoly([-r2, 1]) * IntPoly(draw(st.lists(small, min_size=1, max_size=12)))
    try:
        model = WeierstrassModel(a, b)
    except ValueError:  # discriminant vanishes identically
        assume(False)
    disc = model.discriminant()
    good = [t for t in range(q) if disc(t) % q]
    shapes = {(a(t) % q == 0, b(t) % q == 0) for t in good}
    assume({(True, False), (False, True), (False, False)} <= shapes)
    return model, q


@settings(deadline=None, max_examples=60)
@given(models_with_every_good_fiber_shape())
def test_elliptic_count_matches_the_fiber_loop_at_random(case):
    model, q = case
    assert outcome(count_elliptic_smooth, model, q) == outcome(reference_elliptic_count, model, q)


def test_elliptic_count_runs_one_cubic_sum_per_class(monkeypatch):
    # y^2 = x^3 + t^7 x - t: every good fiber with t != 0 falls in the class
    # of r = t^21 / t^2 = t^19, which takes (q-1)/19 values; a fall back to
    # one sum per fiber makes about q calls
    calls = 0
    original = pointcount.chi_cubic_sum

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(pointcount, "chi_cubic_sum", counted)
    q = 1901
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["count", "--k", "19", "--q", str(q), "--json"]) == 0
    assert 0 < calls <= (q - 1) // 19 + 2


# ---------------------------------------------------------------------------
# Fermat surfaces

@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12, 66])
def test_fermat_count_matches_the_double_loop_below_200(m):
    for q in (q for q in range(2, 200) if is_prime(q)):
        assert count_fermat(m, q) == reference_fermat_count(m, q), (m, q)


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2), (37, 5), (61, 12), (67, 66), (101, 7)])
def test_fermat_affine_matches_the_double_loop(q, m):
    field = make_field(q)
    powm = [pow(v, m, q) for v in range(q)]
    rootcnt = field.power_count_table(m)
    assert fermat_affine(powm, rootcnt, q) == reference_fermat_affine(powm, rootcnt, q)


# ---------------------------------------------------------------------------
# double sextics

def test_k25_double_sextic_matches_the_row_loop_below_400():
    f = next(e for e in load_catalog() if e.k == 25).sextic_coeffs()
    for q in PRIMES_5_400:
        assert count_affine_double_sextic(f, q) == reference_double_sextic(f, q), q


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([3, 5, 7, 13, 31, 37]),
       st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                       st.integers(-40, 40), max_size=5))
def test_double_sextic_matches_the_row_loop_at_random(q, f):
    assert count_affine_double_sextic(f, q) == reference_double_sextic(f, q)


# ---------------------------------------------------------------------------
# independence from the closed form

@pytest.mark.parametrize("name", ["pointcount.py", "kernels.py"])
def test_oracles_use_no_jacobi_sums(name):
    # kernels.py defines jacobi_counts for the closed form; the oracles
    # next to it must neither import nor name it, nor anything from the
    # Jacobi-sum and character modules
    tree = ast.parse(Path(k3fermat.__file__).with_name(name).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = set((node.module or "").split("."))
            assert not parts & {"jacobi_zeta", "characters"}, ast.dump(node)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                assert not set(alias.name.split(".")) & {"jacobi_zeta", "characters"}
                assert not alias.name.startswith("jacobi"), alias.name
        if isinstance(node, ast.Name):
            assert not node.id.startswith("jacobi"), node.id
        if isinstance(node, ast.Attribute):
            assert not node.attr.startswith("jacobi"), node.attr
