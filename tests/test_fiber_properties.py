"""Property tests for Tate's algorithm over F_p and over the tests'
reference F_{p^2} (field_reference.QuadExtField), and for the F_{p^2}
element arithmetic it runs on."""

from field_reference import QuadElement, QuadExtField
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from k3fermat.cyclotomic import IntPoly
from k3fermat.field import PrimeField
from k3fermat.pointcount import WeierstrassModel, _local_model, tate_fiber

exact = settings(deadline=None, max_examples=50)

PRIMES = (5, 7, 11)
BASE = {p: PrimeField(p) for p in PRIMES}
EXT = {p: QuadExtField(p) for p in PRIMES}


@st.composite
def models(draw):
    """Small random models, with extra powers of t so that additive fibers
    (II ... II*, I_n*) at t = 0 are common."""
    small = st.integers(-3, 3)
    va = draw(st.integers(0, 4))
    vb = draw(st.integers(0, 6))
    a = draw(st.lists(small, max_size=9 - va))
    b = draw(st.lists(small, min_size=1, max_size=13 - vb))
    try:
        return WeierstrassModel([0] * va + a if a else [], [0] * vb + b)
    except ValueError:  # discriminant vanishes identically
        assume(False)


def projective_line(p):
    return list(range(p)) + ["inf"]


def good_reduction(model, p):
    """The discriminant is not identically 0 mod p (else tate_fiber refuses)."""
    return any(c % p for c in model.discriminant().coeffs)


@exact
@given(model=models(), p=st.sampled_from(PRIMES))
def test_kind_is_the_same_over_the_quadratic_extension(model, p):
    assume(good_reduction(model, p))
    ext = EXT[p]
    for t0 in projective_line(p):
        over_p = tate_fiber(model, BASE[p], t0)
        over_p2 = tate_fiber(model, ext, t0 if t0 == "inf" else ext.from_int(t0))
        assert over_p2.kind == over_p.kind, (t0, over_p, over_p2)


@exact
@given(model=models(), p=st.sampled_from(PRIMES))
def test_every_fiber_splits_over_the_quadratic_extension_but_inert_i0_star(model, p):
    assume(good_reduction(model, p))
    ext = EXT[p]
    for t0 in projective_line(p):
        over_p = tate_fiber(model, BASE[p], t0)
        over_p2 = tate_fiber(model, ext, t0 if t0 == "inf" else ext.from_int(t0))
        if over_p.kind == "I0":
            assert over_p2.splitting is None
        elif over_p.kind == "I0*" and over_p.splitting == "inert":
            # the cubic is irreducible over F_p, so its roots lie in F_{p^3}
            assert over_p2.splitting == "inert"
        else:
            assert over_p2.splitting == "split", (t0, over_p, over_p2)


@exact
@given(model=models(), p=st.sampled_from(PRIMES), lift=st.integers(-3, 3))
def test_unreduced_representatives_give_the_same_fiber(model, p, lift):
    assume(good_reduction(model, p))
    for t0 in range(p):
        fib = tate_fiber(model, BASE[p], t0)
        other = tate_fiber(model, BASE[p], t0 + lift * p)
        assert other == fib


# ---------------------------------------------------------------------------
# I_n* far components: the closed form against Silverman's step 7

def reference_instar_split(field, a, b, vd):
    """n and far-component splitting of an I_n* fiber (n >= 1) by the loop of
    Silverman, Advanced Topics, IV.9 step 7.

    The cubic T^3 + a2 T + b3 has a double root alpha; recentering x by
    alpha*tau gives y^2 = x^3 + c2 x^2 + c1 x + c0 with c2 = e*tau + ...,
    e = 3*alpha. Round k ends with n = 2k - 1 when the tau^(2k+2)
    coefficient of c0 is nonzero, with n = 2k when e X^2 + c1[k+2] X +
    c0[2k+3] has distinct roots, and otherwise translates x by the double
    root times tau^(k+1).
    """
    alpha = -3 * b.coeff(3) * field.inv(2 * a.coeff(2))
    e = 3 * alpha
    tau = IntPoly([0, 1])
    c2 = e * tau
    c1 = a + 3 * alpha * alpha * tau * tau
    c0 = b + alpha * tau * a + alpha * alpha * alpha * tau * tau * tau
    for k in range(1, vd + 1):
        r = c0.coeff(2 * k + 2)
        if not field.is_zero(r):
            return 2 * k - 1, field.chi2(r) == 1
        p = c1.coeff(k + 2)
        disc = p * p - 4 * e * c0.coeff(2 * k + 3)
        if not field.is_zero(disc):
            return 2 * k, field.chi2(disc) == 1
        shift = IntPoly([0] * (k + 1) + [-p * field.inv(2 * e)])
        c0 = c0 + shift * c1 + shift * shift * c2 + shift * shift * shift
        c1 = c1 + 2 * shift * c2 + 3 * shift * shift
        c2 = c2 + 3 * shift
    raise AssertionError("I_n* subprocedure failed to terminate")


def power(poly, n):
    out = IntPoly([1])
    for _ in range(n):
        out = out * poly
    return out


@st.composite
def double_root_models(draw):
    """Recipes for models with an I_n* fiber at tau = 0, tau = t or t^2 - r.

    A = c1 - 3 alpha^2 tau^2 and B = c0 - alpha tau c1 + 2 alpha^3 tau^3
    turn into y^2 = x^3 + 3 alpha tau x^2 + c1 x + c0 when x moves by
    alpha*tau, so T^3 + A2 T + B3 has the double root alpha(t0) != 0, and
    the orders of vanishing of c1 and c0 at tau = 0, at least j1 and j0,
    set n. With
    tau = t^2 - r (r the non-residue of QuadExtField) the place is
    sqrt(r), in F_{p^2} only, and alpha = alpha0 + alpha1*t there is not
    in F_p; the degree caps then halve the ranges of j1 and j0.
    """
    quadratic = draw(st.booleans())
    small = st.integers(-4, 4)
    alpha = IntPoly([draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])), draw(small)])
    j1 = draw(st.integers(3, 4 if quadratic else 6))
    j0 = draw(st.integers(4, 6 if quadratic else 10))
    deg = 2 if quadratic else 1
    p1 = IntPoly(draw(st.lists(small, max_size=9 - deg * j1)))
    p0 = IntPoly(draw(st.lists(small, max_size=13 - deg * j0)))
    return quadratic, alpha, j1, p1, j0, p0


@settings(deadline=None, max_examples=300)
@given(recipe=double_root_models(), p=st.sampled_from(PRIMES))
def test_in_star_splitting_matches_the_step_7_loop(recipe, p):
    quadratic, alpha, j1, p1, j0, p0 = recipe
    ext = EXT[p]
    if quadratic:
        tau = IntPoly([-ext.r, 0, 1])
        places = [(ext, QuadElement(ext, 0, 1))]
    else:
        tau = IntPoly([0, 1])
        places = [(BASE[p], 0), (ext, ext.from_int(0))]
    c1 = power(tau, j1) * p1
    c0 = power(tau, j0) * p0
    at = alpha * tau
    try:
        model = WeierstrassModel(c1 - 3 * at * at, c0 - at * c1 + 2 * at * at * at)
    except ValueError:  # c1 = c0 = 0: the discriminant vanishes identically
        assume(False)
    assume(good_reduction(model, p))
    for field, t0 in places:
        fib = tate_fiber(model, field, t0)
        a, b, _va, vd = _local_model(model, field, t0)
        n, split = reference_instar_split(field, a, b, vd)
        event(f"{fib.kind if n < 3 else 'n >= 3'} {fib.splitting} over F_{field.q}"
              + (" at sqrt(r)" if quadratic else ""))
        assert fib.kind == f"I{n}*"
        assert fib.splitting == ("split" if split else "nonsplit"), (field, t0, model)


# ---------------------------------------------------------------------------
# QuadElement ring laws

ints = st.integers(-30, 30)


@st.composite
def elements(draw, p):
    return QuadElement(EXT[p], draw(ints), draw(ints))


@exact
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_element_ring_laws(data, p):
    x, y, z = (data.draw(elements(p)) for _ in range(3))
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x * 0 == 0
    assert x - y == x + -y and x - x == 0
    assert -(-x) == x


@exact
@given(data=st.data(), p=st.sampled_from(PRIMES), n=ints)
def test_element_mixes_with_ints_on_either_side(data, p, n):
    ext = EXT[p]
    x = data.draw(elements(p))
    m = ext.from_int(n)
    assert n + x == x + n == m + x
    assert n * x == x * n == m * x
    assert n - x == m - x and x - n == x - m
    assert m == n and m == n + p and hash(m) == hash(n % p)
    assert bool(m) == (n % p != 0) == (not ext.is_zero(n))


@exact
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_element_hash_and_truth_agree_with_equality(data, p):
    x, y = data.draw(elements(p)), data.draw(elements(p))
    assert (x == y) == ((x.a, x.b) == (y.a, y.b))
    if x == y:
        assert hash(x) == hash(y)
    assert bool(x) == (x != 0) == (not EXT[p].is_zero(x))
