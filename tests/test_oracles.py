"""The brute-force oracles against the loops they replaced, and the rules
that keep them fast and independent of the closed form.

count_fermat counts over classes of the scaling symmetry rather than over
every point. count_elliptic_smooth sums the monomial models and the A = 0
models, and count_affine_double_sextic the single-v-term sextics, as
coset character sums with no sum per fiber or row; count_elliptic_smooth
refuses every other elliptic model, which would take one cubic sum per
good fiber. The reference loops are the point-by-point versions: one
chi_cubic_sum per good fiber (field_reference.reference_elliptic_count),
the double loop over (u, v) for the Fermat chart, and one row over u per
v for the double sextic.
"""

import ast
import sys
import tracemalloc
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from field_reference import reference_elliptic_count
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_fiber_properties import models

import k3fermat
from k3fermat import pointcount
from k3fermat.catalog import load_catalog
from k3fermat.cyclotomic import IntPoly
from k3fermat.field import PrimeField, is_prime, make_field, prime_factors
from k3fermat.kernels import chi_cubic_sum, fermat_affine
from k3fermat.pointcount import (
    WeierstrassModel,
    _coset_sums,
    _cubic_sums,
    _degenerate_count,
    count_affine_double_sextic,
    count_elliptic_smooth,
    count_fermat,
    tate_fiber,
)

PRIMES_5_400 = [q for q in range(5, 400) if is_prime(q)]
ELLIPTIC = [e for e in load_catalog() if e.elliptic]


# ---------------------------------------------------------------------------
# reference loops

def reference_fermat_cone(m, q):
    """fermat_affine as the double loop: u^m + v^m tallied over every
    (u, v), each sum c then paired with -c."""
    powm = [pow(v, m, q) for v in range(q)]
    n2 = Counter((a + b) % q for a in powm for b in powm)
    return sum(n * n2[-c % q] for c, n in n2.items())


def reference_fermat_count(m, q):
    """count_fermat chart by chart: the double loop over (u, v) on
    x0 = 1, then the plane curve on x0 = 0."""
    powm = [pow(v, m, q) for v in range(q)]
    roots = Counter(powm)
    affine = sum(roots[(-1 - a - b) % q] for a in powm for b in powm)
    curve = sum(roots[(-1 - a) % q] for a in powm) + roots[q - 1]
    return affine + curve


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


def reference_single_v_term_sum(field, rest, i, j, c):
    """_single_v_term_sum as one walk over every u = g^d, d < q - 1, with
    no orbit of u -> zeta u folded."""
    p, g, dlog, chi2 = field.p, field.g, field.dlog_table, field.chi2_table()
    n = p - 1
    at_zero, table = _coset_sums(field, 1, j, 0)
    period = len(table)
    terms = [(k, coeff % p) for k, coeff in enumerate(rest.coeffs) if coeff % p]
    vals = [coeff for _, coeff in terms]
    steps = [pow(g, k, p) for k, _ in terms]
    dc = dlog[c]
    gu = rest.coeff(0) % p  # u = 0
    roots = [] if gu else [0]
    if i:  # b = 0
        total, rows = p * chi2[gu], 0
    else:
        v = table[(dlog[gu] - dc) % period] if gu else at_zero
        total, rows = chi2[gu], -v if dc & 1 else v
    for d in range(n):  # u = g^d
        gu = sum(vals) % p
        total += chi2[gu]
        db = dc + i * d  # dlog(c u^i)
        if gu:
            v = table[(dlog[gu] - db) % period]
        else:
            v = at_zero
            roots.append(pow(g, d, p))
        rows += -v if db & 1 else v
        for k, step in enumerate(steps):
            vals[k] = vals[k] * step % p
    return total + gcd(j, n) * rows, roots


def outcome(count, *args):
    """The count, or the error message for a model with bad reduction."""
    try:
        return count(*args)
    except ValueError as exc:
        return str(exc)


def has_linear_count(model, q):
    """A = 0 mod q, or A and B each one term mod q: the two shapes that
    count_elliptic_smooth counts in O(q)."""
    def terms(poly):
        return sum(1 for c in poly.coeffs if c % q)

    return terms(model.a) == 0 or terms(model.a) == terms(model.b) == 1


def assert_counted_or_refused(model, q):
    """count_elliptic_smooth equals the fiber loop on the two O(q) shapes,
    and refuses, with its reason, every other model."""
    if has_linear_count(model, q):
        assert outcome(count_elliptic_smooth, model, q) == outcome(reference_elliptic_count, model, q)
    else:
        with pytest.raises(ValueError, match=r"no O\(p\) count"):
            count_elliptic_smooth(model, q)


# ---------------------------------------------------------------------------
# elliptic surfaces

@pytest.mark.parametrize("entry", ELLIPTIC, ids=lambda e: f"k{e.k}")
def test_elliptic_count_matches_the_fiber_loop_below_400(entry):
    for q in PRIMES_5_400:
        assert (outcome(count_elliptic_smooth, entry.model, q)
                == outcome(reference_elliptic_count, entry.model, q)), (entry.k, q)


def test_every_elliptic_catalog_model_keeps_an_o_q_shape_at_every_prime():
    # A = 0, or A and B single terms, over Z, with no coefficient divisible
    # by a prime >= 5: the shape then holds mod every p >= 5, so neither
    # count --k nor verify can meet count_elliptic_smooth's refusal
    for entry in ELLIPTIC:
        a, b = entry.model.a.coeffs, entry.model.b.coeffs
        terms = [sum(1 for c in poly if c) for poly in (a, b)]
        assert terms[0] == 0 or terms == [1, 1], entry.k
        assert all(max(prime_factors(abs(c)), default=1) < 5 for c in [*a, *b] if c), entry.k


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
def test_elliptic_count_refuses_models_with_every_good_fiber_shape(case):
    # a good fiber with A = 0 rules out A = 0 mod q, and B vanishing at
    # r2 != 0 or A at r1 != 0 rules out single-term A and B, so no such
    # model has an O(q) count
    model, q = case
    assert not has_linear_count(model, q)
    with pytest.raises(ValueError, match=r"no O\(p\) count"):
        count_elliptic_smooth(model, q)


def edge_models(q):
    """Models that stress count_elliptic_smooth at the prime q: the row
    sum of y^2 = x^3 + B(t) when A = 0 mod q, the coset sums when A and B
    are monomials mod q, and the refusal of every other shape ("B = 0",
    "B = 0 mod q", "A constant mod q", "B constant mod q", "non-minimal",
    "additive")."""
    return {
        "A = 0": WeierstrassModel([], [1, 0, 0, 0, 0, 1]),
        # non-minimal at infinity (deg A <= 4, deg B <= 6)
        "B = 0": WeierstrassModel([1, 0, 0, 0, 1], []),
        "A = 0 mod q": WeierstrassModel([q, 0, 0, q], [0, -1, 0, 0, 0, 0, 0, 1]),
        "B = 0 mod q": WeierstrassModel([2, 0, 0, 0, 0, 1], [0, 0, q]),
        "A constant mod q": WeierstrassModel([3, 0, 0, 0, q], [0, 1, 0, 0, 0, 0, 1]),
        "B constant mod q": WeierstrassModel([0, -1, 0, 1], [2] + [0] * 8 + [q]),
        "A and B constant": WeierstrassModel([1], [1]),
        # II at t = 0 and III at infinity
        "k = 19": WeierstrassModel([0] * 7 + [1], [0, -1]),
        # non-minimal at t = 0, I0* at infinity
        "non-minimal": WeierstrassModel([0, 0, 0, 0, 1, 1], [0] * 6 + [2, 0, 0, 1]),
        # I2* at t = 0 and IV* at infinity
        "additive": WeierstrassModel([0, 0, -3, 0, 1], [0, 0, 0, 2, 0, 1, 0, 0, 1]),
    }


@pytest.mark.parametrize("q", [5, 7, 11])
@pytest.mark.parametrize("name", sorted(edge_models(5)))
def test_elliptic_count_matches_the_fiber_loop_on_edge_models(name, q):
    # the fiber loop where an O(q) path exists, and the refusal elsewhere
    assert_counted_or_refused(edge_models(q)[name], q)


@settings(deadline=None, max_examples=60)
@given(models(), st.sampled_from([5, 7, 11]))
def test_elliptic_count_matches_the_fiber_loop_with_fibers_at_zero_and_infinity(model, q):
    # models() adds powers of t, so additive fibers at t = 0 are common,
    # and its short A and B leave degenerate fibers at infinity; the draws
    # with neither O(q) shape are refused
    assert_counted_or_refused(model, q)


PRIMES_5_100 = [q for q in PRIMES_5_400 if q < 100]
PRIMES_5_200 = [q for q in PRIMES_5_400 if q < 200]


@st.composite
def j_zero_models(draw, primes=PRIMES_5_100):
    """(model, q) with A = 0 mod q, q in primes, and B of degree <= 12 over Z.

    B is a random cofactor times forced factors: rational roots mod q, a
    repeated root, and t^6, which makes the model non-minimal at t = 0
    (A = 0 mod q has every valuation there). A is q times a random
    polynomial, or 0. q runs over both classes mod 3: for q = 2 mod 3,
    x -> x^3 is a bijection and every good fiber has q + 1 points.
    """
    q = draw(st.sampled_from(primes))
    forced = IntPoly([1])
    for r in draw(st.lists(st.integers(0, q - 1), max_size=4)):
        forced = forced * IntPoly([-r, 1])
    if draw(st.booleans()):
        r = draw(st.integers(0, q - 1))
        forced = forced * IntPoly([r * r, -2 * r, 1])
    if draw(st.booleans()):
        forced = forced * IntPoly([0] * 6 + [1])
    assume(forced.degree <= 12)
    small = st.integers(-q, q)
    b = forced * IntPoly(draw(st.lists(small, min_size=1, max_size=13 - forced.degree)))
    a = IntPoly(draw(st.lists(small, max_size=9))) * q
    try:
        return WeierstrassModel(a, b), q
    except ValueError:  # discriminant vanishes identically
        assume(False)


@settings(deadline=None, max_examples=80)
@given(j_zero_models())
@example((WeierstrassModel([], [0, -1] + [0] * 10 + [-1]), 13))  # k = 66, q = 1 mod 3
@example((WeierstrassModel([], [0, -1] + [0] * 10 + [-1]), 11))  # k = 66, q = 2 mod 3
@example((WeierstrassModel([0, 7], [0] * 6 + [1, 1]), 7))  # t^6 | B, A = 7t
@example((WeierstrassModel([], [-2, 3, 0, -1]), 7))  # -(t - 1)^2 (t + 2)
@example((WeierstrassModel([], [0] * 5 + [1, -2, 1]), 13))  # k = 3
@example((WeierstrassModel([5], [5, 0, 5]), 5))  # A = B = 0 mod q
def test_j_zero_elliptic_count_matches_the_fiber_loop(case):
    # A = 0 mod q: the good fibers are one row sum of x^3 + B(t), the bad
    # ones are the roots of B
    model, q = case
    assert outcome(count_elliptic_smooth, model, q) == outcome(reference_elliptic_count, model, q)


@st.composite
def monomial_models(draw, primes=PRIMES_5_100, shapes=("free", "zero", "e = 0", "bad fiber")):
    """(model, q) with A = alpha t^i, B = beta t^j, 0 <= i <= 8, 0 <= j <= 12,
    q in primes, in one of the shapes below.

    Besides free draws: alpha or beta = 0 mod q, which the row sum counts
    (alpha = 0) or count_elliptic_smooth refuses (beta = 0);
    e = 3i - 2j = 0 mod q-1, which makes r = c t^e constant; and a bad
    fiber at a rational t0 != 0, from alpha t0^i = -3 w^2 and
    beta t0^j = 2 w^3, which make 4A^3 + 27B^2 vanish there.
    """
    q = draw(st.sampled_from(primes))
    i = draw(st.integers(0, 8))
    shape = draw(st.sampled_from(shapes))
    if shape == "e = 0":
        j = draw(st.sampled_from([j for j in range(13) if (3 * i - 2 * j) % (q - 1) == 0]
                                 or [0]))
    else:
        j = draw(st.integers(0, 12))
    unit = st.integers(-2 * q, 2 * q).filter(lambda c: c % q)
    alpha, beta = draw(unit), draw(unit)
    if shape == "zero":
        zero = draw(st.sampled_from([0, q, -q]))
        alpha, beta = draw(st.sampled_from([(zero, beta), (alpha, zero)]))
    elif shape == "bad fiber":
        t0, w = draw(st.integers(1, q - 1)), draw(st.integers(1, q - 1))
        alpha = -3 * w * w * pow(t0, -i, q) % q
        beta = 2 * w ** 3 * pow(t0, -j, q) % q
    try:
        return WeierstrassModel([0] * i + [alpha], [0] * j + [beta]), q
    except ValueError:  # discriminant vanishes identically
        assume(False)


@settings(deadline=None, max_examples=100)
@given(monomial_models())
@example((WeierstrassModel([0, 0, 0, 5], [0, 1]), 5))  # A = 0 mod q
@example((WeierstrassModel([1], [0] * 7 + [1]), 13))  # i = 0, as for k = 28
@example((WeierstrassModel([0, 0, 1], [0, 0, 0, 1]), 7))  # e = 0
@example((WeierstrassModel([0, 0, 1], [1]), 7))  # e = 6 = 0 mod q-1
@example((WeierstrassModel([0, 4], [0, 2]), 7))  # I1 at t = 1
@example((WeierstrassModel([3], [0] * 5 + [1]), 5))  # split I5 at t = 1, 4
@example((WeierstrassModel([0, 0, -3], [0, 0, 0, 13]), 11))  # Delta = 0 mod q
def test_monomial_elliptic_count_matches_the_fiber_loop(case):
    # beta = 0 mod q leaves B with no term, so that draw is refused
    model, q = case
    assert_counted_or_refused(model, q)


def direct_cubic_sum(a, b, q):
    """S(a, b), the sum of chi2(x^3 + a x + b) over F_q, term by term."""
    chi2 = make_field(q).chi2_table()
    return sum(chi2[(x * x * x + a * x + b) % q] for x in range(q))


def fiber_and_cubic_counts(model, q, t0):
    """(_degenerate_count at t0, q + 1 + S(A(t0), B(t0))): equal when the
    fiber is the singular cubic itself, as the good-fiber formula counts it."""
    field = make_field(q)
    return (_degenerate_count(model, field, t0, _cubic_sums(field)),
            q + 1 + direct_cubic_sum(model.a(t0), model.b(t0), q))


@settings(deadline=None, max_examples=60)
@given(j_zero_models(PRIMES_5_200))
@example((WeierstrassModel([], [0, -1] + [0] * 10 + [-1]), 199))  # k = 66
@example((WeierstrassModel([], [-2, 3, 0, -1]), 7))  # -(t - 1)^2 (t + 2)
def test_a_simple_root_of_b_is_one_component(case):
    # A = 0 mod q: at a simple root of B, v(Delta) = 2 and the fiber is
    # the cusp y^2 = x^3 (type II), so the row sum has counted it already
    model, q = case
    slope = model.b.derivative()
    simple = [t for t in range(q) if model.b(t) % q == 0 and slope(t) % q]
    assume(simple)
    for t0 in simple:
        count, cubic = fiber_and_cubic_counts(model, q, t0)
        assert count == cubic, t0


@settings(deadline=None, max_examples=60)
@given(monomial_models(PRIMES_5_200, ["bad fiber"]))
@example((WeierstrassModel([0, 4], [0, 2]), 7))  # I1 at t = 1
@example((WeierstrassModel([0] * 7 + [1], [0, -1]), 199))  # k = 19, I1 at t = 43
def test_a_bad_fiber_off_zero_is_one_component_when_q_does_not_divide_3i_minus_2j(case):
    # 4 alpha^3 t^3i + 27 beta^2 t^2j has simple roots off t = 0 unless q
    # divides 3i - 2j, and at a simple root the fiber is the node (type I1)
    model, q = case
    assume((3 * model.a.degree - 2 * model.b.degree) % q)
    disc = model.discriminant()
    bad = [t for t in range(1, q) if disc(t) % q == 0]
    assume(bad)
    for t0 in bad:
        count, cubic = fiber_and_cubic_counts(model, q, t0)
        assert count == cubic, t0


def test_k28_mod_7_has_a_bad_fiber_of_more_than_one_component():
    # A = 1, B = t^7: 3i - 2j = -14, so at q = 7 the bad fibers off t = 0
    # are multiple roots of Delta, and the count needs Tate's algorithm there
    model = next(e for e in ELLIPTIC if e.k == 28).model
    assert tate_fiber(model, 7, 5).kind == "I7"
    count, cubic = fiber_and_cubic_counts(model, 7, 5)
    assert (count, cubic) == (49, 7)


@st.composite
def coset_sum_cases(draw):
    """(q, c, e, alternate) for _coset_sums: q < 80, e past q - 1, and a
    coset of even length (q-1)/gcd(e, q-1) whenever alternate is odd."""
    q = draw(st.sampled_from([q for q in PRIMES_5_100 if q < 80]))
    c, e = draw(st.integers(1, q - 1)), draw(st.integers(0, 2 * q))
    alternate = draw(st.integers(0, 3))
    assume(alternate % 2 == 0 or (q - 1) // gcd(e, q - 1) % 2 == 0)
    return q, c, e, alternate


@settings(deadline=None, max_examples=300)
@given(coset_sum_cases())
@example((5, 1, 0, 0))  # e = 0: a coset of one element
@example((7, 3, 6, 2))  # e = q - 1, alternate even
@example((13, 2, 3, 1))  # alternating over a coset of even length 4
@example((13, 5, 2, 3))  # length 6
@example((79, 7, 13, 1))  # gcd 13, length 6
def test_coset_sums_match_their_definition(case):
    q, c, e, alternate = case
    field = make_field(q)
    g, n = field.g, q - 1
    reach = n // gcd(e, n)

    def literal(w):
        return sum((-1) ** (alternate * tau) * field.chi2(w + c * pow(g, e * tau, q))
                   for tau in range(reach))

    at_zero, table = _coset_sums(field, c, e, alternate)
    assert at_zero == literal(0)
    assert [table[k % len(table)] for k in range(n)] == [literal(pow(g, k, q)) for k in range(n)]


@pytest.mark.parametrize("q,e", [(7, 2), (7, 0), (13, 4), (31, 10)])
def test_coset_sums_refuse_an_alternating_sum_over_a_coset_of_odd_length(q, e):
    # (-1)^tau is then no function of the dlog class, so a tally would be wrong
    with pytest.raises(ValueError, match="odd length"):
        _coset_sums(make_field(q), 1, e, 1)


def count_cubic_sums(monkeypatch, count):
    """chi_cubic_sum calls made by count()."""
    calls = 0
    original = pointcount.chi_cubic_sum

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(pointcount, "chi_cubic_sum", counted)
    count()
    monkeypatch.setattr(pointcount, "chi_cubic_sum", original)
    return calls


# The catalog counts leave at most one fiber to a cubic sum: t = 0 for
# the monomial models k = 44 and 28. Every other fiber is a coset or row
# sum, or a bad fiber counted in closed form; the A = 0 models read
# S(0, b) at infinity and at the multiple roots of B off the row sum's
# coset table.
ONE_CUBIC_SUM = {44, 28}


def test_elliptic_catalog_counts_make_one_cubic_sum_or_none(monkeypatch):
    calls = {(e.k, q): count_cubic_sums(monkeypatch, lambda: count_elliptic_smooth(e.model, q))
             for e in ELLIPTIC for q in (1009, 1901, 2113, 4003)}
    assert calls == {(k, q): int(k in ONE_CUBIC_SUM) for k, q in calls}


@pytest.mark.parametrize("q", [103, 101])  # 1 and 2 mod 3
def test_cubic_sums_read_s_0_b_off_the_coset_table(q, monkeypatch):
    # S(0, b) = chi2(b) + gcd(3, q-1) D(b), D the coset sum over <g^3>;
    # for q = 2 mod 3, x -> x^3 is a bijection and S(0, b) = 0
    field = make_field(q)
    chi2, cubes = field.chi2_table(), [x * x * x % q for x in range(q)]
    cubic_sum = _cubic_sums(field, _coset_sums(field, 1, 3, 0))
    sums = []
    assert count_cubic_sums(monkeypatch, lambda: sums.extend(
        cubic_sum(a, b) for a in (0, q, -2 * q) for b in range(-q, q))) == 0
    assert sums == [chi_cubic_sum(chi2, cubes, 0, b % q, q) for _ in range(3) for b in range(-q, q)]
    # any other a keeps its O(q) sum
    assert count_cubic_sums(monkeypatch, lambda: sums.append(cubic_sum(1, 5))) == 1
    assert sums[-1] == direct_cubic_sum(1, 5, q)


def catalog_count(entry):
    """(the count function, its first argument) for a catalog entry."""
    if entry.elliptic:
        return count_elliptic_smooth, entry.model
    return count_affine_double_sextic, entry.sextic_coeffs()


LINEAR_COUNTS = [pytest.param(*catalog_count(e), id=str(e.k)) for e in load_catalog()] + [
    pytest.param(count_fermat, m, id=f"fermat{m}") for m in (4, 66)]


@pytest.mark.parametrize("count,arg", LINEAR_COUNTS)
def test_monomial_counts_are_linear_in_q(count, arg):
    # Line events, not time, over everything the count calls, field
    # included; count has no budget but the cap q <= 2^22, so this keeps
    # every catalog count and the Fermat count linear. At these q,
    # gcd(19, q-1) = gcd(5, q-1) = 1, so one cubic sum per class of
    # r = t^19, or one row per value of v^5, would cost about q^2 events;
    # the coset sums cost a few dozen per element, the whole count of an
    # A = 0 model at most about 16 (k = 3, whose walk visits every t),
    # and fewer where the walk folds orbits of t -> zeta t. A sum over
    # pairs of values of u^4 would cost some q^2/16.
    for q in (1009, 4003):
        limit = 50 * q
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
                if lines > limit:
                    raise AssertionError(f"over {limit} line events at q = {q}")
            return count_lines

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: count_lines)
        try:
            count(arg, q)
        finally:
            sys.settrace(previous)
        assert 0 < lines <= limit


def test_a_zero_row_sum_walks_one_u_per_orbit():
    # Line events inside _single_v_term_sum only. k = 66 has B = -t - t^12,
    # so at q = 2113 (11 | q - 1) u -> zeta u with zeta^11 = 1 scales B(u)
    # by zeta, and the walk visits (q-1)/11 values of u, then spreads a
    # tally of period^2 classes (period 6 here) over their orbits. A walk
    # over every u would cost about 9 (q - 1) events.
    q, period = 2113, 6
    model = next(e for e in ELLIPTIC if e.k == 66).model
    walk = pointcount._single_v_term_sum.__code__
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count_lines if frame.f_code is walk else None)
    try:
        count_elliptic_smooth(model, q)
    finally:
        sys.settrace(previous)
    assert 0 < lines <= 12 * (q - 1) // 11 + 12 * period ** 2, lines


@pytest.fixture(scope="module")
def field_100003():
    """F_100003 with its dlog and chi2 tables built."""
    field = PrimeField(100003)
    field.chi2_table()
    return field


@pytest.mark.parametrize("k", [7, 19, 28, 25, 66])
def test_coset_sums_hold_no_table_of_q_sums(k, field_100003, monkeypatch):
    # Peak bytes allocated per field element, over a field whose tables
    # exist already: the coset sums keep a tally by dlog class and a
    # period table, both far shorter than q, and no list of q sums,
    # tuples or logs. k = 28 makes one cubic sum, so it also holds the
    # cubes list of _cubic_sums (about 40); k = 7 and 19 make none, so
    # _cubic_sums builds no cubes, and neither the A = 0 model k = 66,
    # whose row walk keeps a tally of period^2 classes and reads S(0, b)
    # off the row's coset table, nor the double sextic k = 25 has any.
    field = field_100003
    q = field.p
    monkeypatch.setattr(pointcount, "make_field", lambda p: field)
    count, arg = catalog_count(next(e for e in load_catalog() if e.k == k))
    tracemalloc.start()
    try:
        count(arg, field if count is count_elliptic_smooth else q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (64 * q if k in ONE_CUBIC_SUM else q // 8), peak / q


# ---------------------------------------------------------------------------
# Fermat surfaces

@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12, 66])
def test_fermat_count_matches_the_double_loop_below_200(m):
    for q in (q for q in range(2, 200) if is_prime(q)):
        assert count_fermat(m, q) == reference_fermat_count(m, q), (m, q)


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2), (37, 5), (61, 12), (67, 66), (101, 7)])
def test_fermat_affine_matches_the_double_loop(q, m):
    assert fermat_affine(make_field(q).g, m, q) == reference_fermat_cone(m, q)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3] + PRIMES_5_100[:12]), st.integers(1, 150))
@example(2, 3)  # q - 1 = 1 divides every m
@example(3, 2)  # m a multiple of q - 1; -1 lies outside H = {1}
@example(5, 4)  # H = {1} again
@example(13, 24)  # m a multiple of q - 1 = 12
@example(5, 2)  # -1 in H = {1, 4}
@example(7, 3)  # -1 in H = {1, 6}
@example(7, 2)  # -1 outside H = {1, 2, 4}
@example(11, 5)  # -1 in H = {1, 10}
@example(13, 6)  # d = 6, -1 in H
@example(7, 5)  # d = 1: the one class, in closed form
def test_fermat_count_matches_the_double_loop_at_random(q, m):
    # H = <g^d>, d = gcd(m, q-1), the nonzero values of u^m
    assert fermat_affine(make_field(q).g, m, q) == reference_fermat_cone(m, q)
    assert count_fermat(m, q) == reference_fermat_count(m, q)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.sampled_from(PRIMES_5_400), st.integers(1, 150))
def test_fermat_cone_does_not_depend_on_the_primitive_root(data, q, m):
    # the classes mod d are read off powers of g, but the count is not
    roots = [c for c in range(2, q)
             if all(pow(c, (q - 1) // f, q) != 1 for f in prime_factors(q - 1))]
    g = data.draw(st.sampled_from(roots), label="g")
    assert fermat_affine(g, m, q) == fermat_affine(make_field(q).g, m, q)


# ---------------------------------------------------------------------------
# double sextics

def test_k25_double_sextic_matches_the_row_loop_below_400():
    f = next(e for e in load_catalog() if e.k == 25).sextic_coeffs()
    for q in PRIMES_5_400:
        assert count_affine_double_sextic(f, q) == reference_double_sextic(f, q), q


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([3] + PRIMES_5_100),
       st.dictionaries(st.integers(0, 6), st.integers(-40, 40), max_size=4),
       st.integers(0, 6), st.integers(1, 6),
       st.one_of(st.sampled_from([0, 37, -37]), st.integers(-40, 40)))
@example(37, {5: 1, 0: -1}, 1, 5, 37)  # c = 0 mod q: no v at all
@example(7, {1: 2}, 0, 1, 3)  # i = 0, gcd(j, q-1) = 1
@example(5, {5: 1, 0: -1}, 1, 2, 1)  # gcd 2
@example(7, {0: 3}, 0, 3, -1)  # gcd 3
@example(13, {6: 1}, 2, 4, 5)  # gcd 4
@example(11, {5: 1, 0: -1}, 1, 5, 1)  # gcd 5, as for k = 25
@example(13, {}, 0, 6, 2)  # gcd 6
def test_single_v_term_double_sextic_matches_the_row_loop(q, g, i, j, c):
    # f = g(u) + c u^i v^j: v occurs in one term, so rows are coset sums
    f = {(k, 0): gk for k, gk in g.items()}
    f[(i, j)] = c
    assert count_affine_double_sextic(f, q) == reference_double_sextic(f, q)


def test_double_sextic_with_v_in_two_terms_is_refused():
    # no coset sum covers it, and the row loop over u for each value of the
    # powers of v would be quadratic in q
    with pytest.raises(ValueError, match="more than one term"):
        count_affine_double_sextic({(0, 2): 1, (1, 1): 3, (0, 0): -1}, 7)


def orbit_size(q, coeffs):
    """h = gcd(q - 1, every difference of the exponents of rest mod q): the
    u -> zeta u with zeta^h = 1 scale rest(u) by one power of zeta."""
    ks = [k for k, c in enumerate(coeffs) if c % q]
    return gcd(q - 1, *(k - ks[0] for k in ks)) if ks else q - 1


@pytest.mark.parametrize("q,coeffs,i,j,c,h", [
    (101, [0] * 5 + [1, -2, 1], 0, 3, 1, 1),  # k = 3's B
    (101, [3, 0, 1, 0, 5], 2, 4, 7, 2),
    (31, [0, 4, 0, 2], 2, 6, 1, 2),
    (109, [0, 1, 0, 0, 1], 1, 3, 2, 3),
    (31, [0, -4, 0, 0, 3], 1, 3, 1, 3),
    (101, [-1, 0, 0, 0, 0, 1], 1, 5, 1, 5),  # k = 25: u^5 - 1 + u v^5
    (109, [2] + [0] * 5 + [1] + [0] * 5 + [1], 3, 6, 5, 6),
    (31, [0, 4, 0, 0, 0, 0, 0, -3], 0, 6, 1, 6),
    (109, [0, 0, 1] + [0] * 8 + [-1], 0, 2, 3, 9),
    (89, [0, -1] + [0] * 10 + [-1], 0, 3, 1, 11),  # k = 66's B
    (2113, [0, -1] + [0] * 10 + [-1], 0, 3, 1, 11),
    (7, [0, 1, 0, 0, 0, 0, 0, 1], 2, 3, 3, 6),  # t + t^7: a difference of q - 1
    (31, [0, 0, -3], 2, 3, 1, 30),  # one term
    (31, [], 0, 3, 1, 30),  # rest = 0: every u is a root
    (37, [], 2, 6, 5, 36),
    (37, [9], 0, 4, 1, 36),  # a constant
    (43, [-2], 5, 3, 2, 42),
])
def test_single_v_term_sum_matches_the_walk_over_every_u(q, coeffs, i, j, c, h):
    # the walk visits one u per orbit of u -> zeta u, zeta^h = 1, and
    # spreads its tally over the orbit; the q = 31 cases are ones where a
    # class's cycle along its orbit has a nonzero sum, so that a wrong
    # orbit weight or a dropped zeta^k0 shows (on the A = 0 shape,
    # i = 0 and j = 3, such cycles sum to zero)
    assert orbit_size(q, coeffs) == h
    field, rest = make_field(q), IntPoly(coeffs)
    total, roots = pointcount._single_v_term_sum(field, rest, i, j, c)
    want_total, want_roots = reference_single_v_term_sum(field, rest, i, j, c)
    assert total == want_total
    assert sorted(roots) == sorted(want_roots)


@st.composite
def single_v_term_cases(draw):
    """(q, coeffs, i, j, c): up to four terms of rest on one progression
    k0 + s t, so that h = gcd(q - 1, s) takes many values."""
    q = draw(st.sampled_from([3] + PRIMES_5_400))
    s = draw(st.sampled_from([1, 2, 3, 5, 6, 9, 11, q - 1]))
    k0 = draw(st.integers(0, 3))
    coeffs = [0] * (k0 + 3 * s + 1)
    for t in draw(st.sets(st.integers(0, 3), max_size=4)):
        coeffs[k0 + s * t] = draw(st.integers(-q, q))
    return q, coeffs, draw(st.integers(0, 6)), draw(st.integers(1, 6)), draw(st.integers(1, q - 1))


@settings(deadline=None, max_examples=200)
@given(single_v_term_cases())
def test_single_v_term_sum_matches_the_walk_over_every_u_at_random(case):
    q, coeffs, i, j, c = case
    field, rest = make_field(q), IntPoly(coeffs)
    total, roots = pointcount._single_v_term_sum(field, rest, i, j, c)
    want_total, want_roots = reference_single_v_term_sum(field, rest, i, j, c)
    assert total == want_total
    assert sorted(roots) == sorted(want_roots)


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
