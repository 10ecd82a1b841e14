"""Property tests for Tate's algorithm over F_p and F_{p^2}, and for the
F_{p^2} element arithmetic it runs on."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3fermat.field import PrimeField, QuadElement, QuadExtField
from k3fermat.pointcount import WeierstrassModel, tate_fiber

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
