"""Brute-force point counting oracles.

Three counters live here: projective Fermat surfaces (from the affine
cone, O(q)), elliptic surfaces y^2 = x^3 + A(t)x + B(t) counted
fiberwise on the smooth model via Kodaira types, and affine double
sextics. The elliptic counter needs residue characteristic >= 5
throughout; that keeps Tate's procedure in its short-Weierstrass
(v(A), v(Delta)) form.
Tate's table lives in _kodaira_kind, for geometric_fibers over Q and
tate_fiber over F_q. The fiber invariants (rank and determinant of each
kind's root lattice) live in kodaira_lattice, here because a count reads
them at every bad fiber; lattice.disc_from_height reads the same table.
geometric_fibers splits the discriminant over Z[t] with one Yun
squarefree pass on each of Delta, A and B (on primitive polynomials; the
power of t is read off the coefficients, and Yun's loop runs on the rest),
then one gcd per Yun factor of A and of B; the counts over F_p run in
integer arithmetic too. When A and B are monomials mod p, when A = 0 mod
p (the fibers of y^2 = x^3 + B(t) are the rows of a double sextic in
(t, x)), and when v occurs in one term of a double sextic, the count is
a character sum over cosets of a subgroup of F_p^*, O(p); every other
model is refused, as its count would take one O(p) cubic sum per good
fiber. The row sums walk one u per orbit of u -> zeta u, for the zeta
that scale every term of the row polynomial alike (the t-part of the
non-symplectic automorphism on the A = 0 models), so they take O(p/h)
steps for an orbit of h elements.

Tate's procedure works on IntPoly expansions in the uniformizer at t0,
with ordinary + - * on the field elements. Over F_p those are plain ints
that may stay unreduced mod p; every decision (zero test, valuation,
chi2, inverse) goes through the field, which reduces them. tate_fiber
reads the field through those methods alone, so it also runs over any
field object that has them. For p >= 5 the valuation of
Delta = -16(4A^3 + 27B^2) is min(3 v(A), 2 v(B)) unless 3 v(A) = 2 v(B)
(Silverman, Advanced Topics, IV.9), so each local model reads v(A) and
v(B) once, and forms Delta only on that tie.
"""

from collections import Counter
from itertools import compress, islice, repeat
from math import gcd, lcm
from operator import mod

from .cyclotomic import IntPoly, exact_quotient, poly_gcd
from .field import PrimeField, as_field, check_modulus, make_field
from .kernels import chi_cubic_sum, fermat_affine

# valuation of the zero polynomial; larger than any honest valuation here
_INF = 10 ** 9


# ---------------------------------------------------------------------------
# factor-free analysis of Delta over Z[t]

def _yun_squarefree(f):
    """Yun decomposition of a nonzero f in Z[t]: (g_i, i) pairs with g_i
    primitive, non-constant and of positive leading coefficient, whose
    product of g_i^i is f.primitive(), in ascending i.

    The power t^v of f is read off its coefficients (v is the index of the
    first nonzero one), and Yun's loop runs once, on f / t^v only; t then
    joins the factor of multiplicity v, or enters as (t, v). Each step
    divides by a primitive gcd, so by Gauss's lemma every quotient stays
    in Z[t]; c and w carry one common scalar throughout, which the gcds do
    not see.
    """
    v = next(i for i, c in enumerate(f.coeffs) if c)
    f = IntPoly(f.coeffs[v:])
    out = []
    if f.degree > 0:
        d = f.derivative()
        g = poly_gcd(f, d)
        c = exact_quotient(f, g)
        w = exact_quotient(d, g) - c.derivative()
        i = 1
        while c.degree > 0:
            p = poly_gcd(c, w)
            if p.degree > 0:
                out.append((p, i))
            c2 = exact_quotient(c, p)
            w = exact_quotient(w, p) - c2.derivative()
            c = c2
            i += 1
    if v:
        # t g keeps g's content and leading coefficient; g = 1 when no
        # factor has multiplicity v
        factors = {i: g for g, i in out}
        factors[v] = IntPoly((0,) + factors.get(v, IntPoly([1])).coeffs)
        out = [(g, i) for i, g in sorted(factors.items())]
    return out


def _split_by_factors(f, factors):
    """Partition the roots of squarefree f by their multiplicity in a
    target whose _yun_squarefree factors are given; None stands for the
    zero target.

    f is primitive in Z[t] with positive leading coefficient. Returns
    (piece, v) pairs of such polynomials whose product is f, in ascending
    v: the rest of valuation 0 first, then one gcd per Yun factor of the
    target (they are coprime, so each takes the roots of one multiplicity).
    The zero target sends everything to valuation _INF.
    """
    if factors is None:
        return [(f, _INF)]
    out = []
    rest = f
    for g, v in factors:
        if rest.degree == 0:
            break
        piece = poly_gcd(rest, g)
        if piece.degree > 0:
            out.append((piece, v))
            rest = exact_quotient(rest, piece)
    return [(rest, 0)] + out if rest.degree > 0 else out


# ---------------------------------------------------------------------------
# models and fibers

def _discriminant(a, b):
    """-16(4A^3 + 27B^2), for A and B over Z or over a field's elements."""
    return -16 * (4 * a * a * a + 27 * b * b)


class WeierstrassModel:
    """y^2 = x^3 + A(t) x + B(t) with deg A <= 8, deg B <= 12.

    The degree caps are the elliptic-K3 normalization; the discriminant
    -16(4A^3 + 27B^2) must not vanish identically.
    """

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = a if isinstance(a, IntPoly) else IntPoly(a)
        b = b if isinstance(b, IntPoly) else IntPoly(b)
        if a.degree > 8:
            raise ValueError(f"deg A = {a.degree} exceeds 8")
        if b.degree > 12:
            raise ValueError(f"deg B = {b.degree} exceeds 12")
        if not _discriminant(a, b):
            raise ValueError("discriminant vanishes identically")
        self.a = a
        self.b = b

    def discriminant(self):
        return _discriminant(self.a, self.b)

    def __eq__(self, other):
        return isinstance(other, WeierstrassModel) and (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"WeierstrassModel(A={self.a.format('t')}, B={self.b.format('t')})"


# (rank, determinant) of A1, A2, E6, E7, E8 and of the empty lattice for II
_KODAIRA_NAMED = {"II": (0, 1), "III": (1, 2), "IV": (2, 3),
                  "IV*": (6, 3), "III*": (7, 2), "II*": (8, 1)}


def kodaira_lattice(kind):
    """(rank, determinant) of the root lattice spanned by the components of
    a Kodaira fiber that miss the zero section.

    I_n carries A_(n-1), I_n* carries D_(n+4), and III, IV, IV*, III*, II*
    carry A1, A2, E6, E7, E8; I0, I1 and II carry the empty lattice.
    """
    if kind in _KODAIRA_NAMED:
        return _KODAIRA_NAMED[kind]
    star = kind.endswith("*")
    index = kind[1:-1] if star else kind[1:]
    if not (kind.startswith("I") and index.isdecimal()):
        raise ValueError(f"unknown fiber kind {kind!r}")
    n = int(index)
    if star:
        return n + 4, 4
    return max(n - 1, 0), max(n, 1)


class KodairaFiber:
    """One fiber of the smooth model: location, Kodaira kind, and how
    Frobenius permutes the components (None for a smooth fiber). The
    component count and Euler number follow from the kind's root lattice."""

    __slots__ = ("location", "kind", "splitting", "component_count", "euler_number")

    def __init__(self, location, kind, splitting):
        rank, _det = kodaira_lattice(kind)
        self.location = location
        self.kind = kind
        self.splitting = splitting
        self.component_count = rank + 1
        self.euler_number = 0 if kind == "I0" else rank + (1 if _multiplicative(kind) else 2)

    def __repr__(self):
        tag = f", {self.splitting}" if self.splitting else ""
        return f"KodairaFiber({self.kind}{tag} at {self.location!r})"

    def __eq__(self, other):
        return isinstance(other, KodairaFiber) and (
            (self.location, self.kind, self.splitting)
            == (other.location, other.kind, other.splitting)
        )

    def __hash__(self):
        return hash((self.location, self.kind, self.splitting))


def _multiplicative(kind):
    """True for I_n, n >= 0."""
    return kind[1:].isdecimal()


def _kodaira_kind(va, vd):
    """Tate's table: the Kodaira kind of a minimal model with v(A) = va and
    v(Delta) = vd, in residue characteristic 0 or >= 5."""
    if vd == 0:
        return "I0"
    if va == 0:
        return f"I{vd}"
    if va == 2 and vd >= 7:
        return f"I{vd - 6}*"
    kind = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}.get(vd)
    if kind is None:
        raise AssertionError(f"impossible valuation pattern (v(A), v(Delta)) = ({va}, {vd})")
    return kind


# ---------------------------------------------------------------------------
# local expansions over a finite field

def _valuation(poly, field):
    """Index of the first coefficient that is nonzero in the field."""
    return next((i for i, c in enumerate(poly.coeffs) if not field.is_zero(c)), _INF)


def _discriminant_valuation(a, b, va, vb, field):
    """_valuation of -16(4A^3 + 27B^2), in residue characteristic >= 5,
    given va = _valuation(a, field) and vb = _valuation(b, field).

    There 16, 4 and 27 are units, so v(Delta) = min(3 v(A), 2 v(B)) unless
    the two are equal (Silverman, Advanced Topics, IV.9), and _INF when
    both are. Only on a tie can the leading terms cancel, where 27 B0^2 =
    -4 A0^3 for the leading coefficients A0 and B0 (an I_n fiber at a root
    of Delta, or an I_n* one); there Delta is formed and its valuation read.
    """
    if va == vb == _INF:
        return _INF
    if 3 * va != 2 * vb:
        return min(3 * va, 2 * vb)
    return _valuation(_discriminant(a, b), field)


def _taylor_shift(poly, t0):
    """poly(t + t0), by repeated synthetic division."""
    c = list(poly.coeffs)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += t0 * c[j + 1]
    return IntPoly(c)


def _local_model(model, field, t0):
    """Local expansions (A, B, v(A), v(Delta)) in the uniformizer at t0,
    minimality-reduced, in residue characteristic >= 5.

    v(A) and v(B) are read once. The reduction (A, B) -> (A/tau^4,
    B/tau^6) is taken min(v(A) // 4, v(B) // 6) times, in one slice that
    drops only coefficients zero in the field, so it lowers v(A) by 4 and
    v(B) by 6 per step (_INF stays _INF). In particular deg A <= 4 and
    deg B <= 6 give good reduction at infinity after at most two steps.
    v(Delta) is then min(3 v(A), 2 v(B)) unless the two are equal, where
    Delta is formed (see _discriminant_valuation). At t0 = 0 the
    expansions are A and B themselves. A model whose discriminant vanishes
    identically mod p has no fibers to classify and is refused.
    """
    if t0 == "inf":
        # s^8 A(1/s) and s^12 B(1/s): the twist that moves t = inf to s = 0
        a = IntPoly([model.a.coeff(8 - i) for i in range(9)])
        b = IntPoly([model.b.coeff(12 - i) for i in range(13)])
    elif field.is_zero(t0):
        a, b = model.a, model.b
    else:
        a = _taylor_shift(model.a, t0)
        b = _taylor_shift(model.b, t0)
    va, vb = _valuation(a, field), _valuation(b, field)
    # A = B = 0 mod p takes _INF // 6 steps, which empty both expansions
    steps = min(va // 4, vb // 6)
    if steps:
        a = IntPoly(a.coeffs[4 * steps:])
        b = IntPoly(b.coeffs[6 * steps:])
        va = va - 4 * steps if va < _INF else _INF
        vb = vb - 6 * steps if vb < _INF else _INF
    vd = _discriminant_valuation(a, b, va, vb, field)
    if vd == _INF:
        raise ValueError(f"discriminant vanishes identically mod {field.p}")
    return a, b, va, vd


def tate_fiber(model, q, t0, local=None):
    """Kodaira fiber of the smooth model at t0 (an element of F_q or "inf").

    q may be a prime or a field object; local is the _local_model quadruple at
    t0 when the caller has already built it. The kind comes from
    _kodaira_kind on (v(A), v(Delta)) in residue characteristic >= 5; the
    splitting data are the node tangents for I_n, the leading B
    coefficient for IV/IV*, the root field of the associated cubic for
    I_0*, and for I_n* with n >= 1 the square class of the leading
    coefficient of Delta, times 2 A2 B3 when n is odd. An int t0 is
    reduced into the field, so every representative of a point gives the
    same fiber.
    """
    field = as_field(q)
    if field.p in (2, 3):
        raise ValueError("residue characteristic must be at least 5")
    if isinstance(t0, int):
        t0 = field.from_int(t0)
    a, b, va, vd = local or _local_model(model, field, t0)
    kind = _kodaira_kind(va, vd)
    if kind == "I0":
        return KodairaFiber(t0, kind, None)
    if kind == "I0*":
        a2, b3 = a.coeff(2), b.coeff(3)
        roots = sum(1 for x in field.elements() if field.is_zero(x * x * x + a2 * x + b3))
        return KodairaFiber(t0, kind, {3: "split", 1: "partial", 0: "inert"}[roots])
    if _multiplicative(kind):
        # the node sits at x0 = -3 b0 / (2 a0), and it is split iff its
        # tangent slopes +-sqrt(3 x0) are rational
        x0 = -3 * b.coeff(0) * field.inv(2 * a.coeff(0))
        split = field.chi2(3 * x0) == 1
    elif kind in ("IV", "IV*"):
        split = field.chi2(b.coeff(2 if kind == "IV" else 4)) == 1
    elif kind in ("II", "III", "III*", "II*"):
        split = True
    else:  # I_n*, n = vd - 6 >= 1
        # Silverman's step 7 (Advanced Topics, IV.9) recenters x at the
        # double root alpha = -3 B3 / (2 A2) of T^3 + A2 T + B3, leaving e*tau
        # as the x^2 coefficient with e = 3 alpha, and ends with a square test
        # on c0[n+3] = -Delta[n+6] / (64 e^3) for odd n, or on
        # c1[n/2+2]^2 - 4 e c0[n+3] = Delta[n+6] / (16 e^2) for even n; its
        # x-translations change neither Delta nor e, and -e = 9 B3 / (2 A2)
        # up to squares
        d = _discriminant(a, b).coeff(vd)
        if vd % 2:
            d = 2 * a.coeff(2) * b.coeff(3) * d
        split = field.chi2(d) == 1
    return KodairaFiber(t0, kind, "split" if split else "nonsplit")


# components that Frobenius moves in a tree-shaped fiber, by splitting
_MOVED = {"split": 0, "nonsplit": 2, "partial": 2, "inert": 3}


def fiber_points(fiber, q):
    """F_q-points of a degenerate fiber, from its component configuration.

    Every Frobenius-stable component is a P^1 with q+1 points. I_n is a
    cycle of n components; every other degenerate fiber is a tree, so c
    stable components meet in c - 1 rational points and give c*q + 1.
    Frobenius moves the two far components of a non-split IV or I_n*,
    four of a non-split IV*, and two or three legs of a partial or inert
    I0*. These closed forms are checked against direct enumeration of the
    configurations in the test suite.
    """
    kind, split = fiber.kind, fiber.splitting
    if kind == "I0":
        raise ValueError("smooth fibers are counted from the curve, not the configuration")
    if _multiplicative(kind):
        n = fiber.component_count
        if split == "split":
            return n * q
        # non-split: Frobenius reflects the cycle through the identity component
        return 2 * q + 2 if n % 2 == 0 else q + 2
    moved = 4 if (kind, split) == ("IV*", "nonsplit") else _MOVED[split]
    return (fiber.component_count - moved) * q + 1


def count_elliptic_smooth(model, q):
    """F_p-points of the smooth model of y^2 = x^3 + A(t)x + B(t) over P^1,
    for a prime p >= 5 given as an int or a PrimeField.

    Good fibers via the quadratic character, degenerate fibers via their
    Kodaira configuration. Only t0 in P^1(F_p) can carry F_p-points, so
    degenerate fibers over higher-degree closed points never contribute.
    Two shapes of model count in O(p), with no loop over t:
    A and B each one monomial mod p (the catalog's k = 5, 7, 11, 13, 17,
    19, 28, 44) sum their fibers with t != 0 over cosets and count the
    bad ones in closed form, with no cubic sum (_monomial_fibers);
    A = 0 mod p (k = 3, 9, 12, 27, 36, 42, 66) has Delta = -432 B^2, so
    its bad fibers are the roots of B, S(0, 0) = 0 there, and the sum of
    S(0, B(t)) over every t is the row sum of the sextic B(t) + x^3
    (_single_v_term_sum), one walk over the orbits of t -> zeta t. Its
    coset table over <g^3> is built once and also gives S(0, b) at the
    other fibers that need a cubic sum, infinity and the multiple roots
    of B, where the local A stays 0 mod p (_cubic_sums); so these models
    make no O(p) cubic sum. Every other model, and every field that is
    not a PrimeField, raises ValueError before any field table is built:
    one cubic sum per good fiber would be quadratic in p.

    A fiber of type I1 or II is the singular cubic itself (Silverman,
    Advanced Topics, IV.9), with the p + 1 + S(A(t0), B(t0)) points that
    the good-fiber formula gives. So both O(p) paths run Tate's algorithm
    only where the fiber may have more components: at the roots of B
    with B'(t0) = 0 mod p when A = 0, which leaves the cusps (II) of the
    simple roots to the row sum, and off t = 0 for monomials only when
    p | 3i - 2j, as below.
    """
    if not isinstance(q, (int, PrimeField)):
        raise ValueError(f"{q!r} is not a prime field; only F_p is counted")
    p = q if isinstance(q, int) else q.p
    check_modulus(p)
    if p in (2, 3):
        raise ValueError("residue characteristic must be at least 5")
    a, b = _monomial(model.a, p), _monomial(model.b, p)
    a_zero = not any(c % p for c in model.a.coeffs)
    if not (a and b or a_zero):
        raise ValueError(
            f"no O(p) count for {model} mod {p}: A is not 0 and A, B are not single "
            "terms, and one cubic sum per good fiber would be quadratic in p")
    field = as_field(q)
    cosets = _coset_sums(field, 1, 3, 0) if a_zero else None
    cubic_sum = _cubic_sums(field, cosets)
    if a and b:
        total = _monomial_fibers(model, field, a, b, cubic_sum)
    else:
        rows, roots = _single_v_term_sum(field, model.b, 0, 3, 1, cosets)
        total = p * (p + 1) + rows
        slope = model.b.derivative()
        for t0 in roots:
            if slope(t0) % p == 0:  # a simple root is type II, p + 1 points
                total += _degenerate_count(model, field, t0, cubic_sum) - p - 1
    total += _degenerate_count(model, field, "inf", cubic_sum)
    return total


def _monomial(poly, p):
    """(i, c) with poly = c t^i mod p, c != 0 mod p; None when poly has
    no term or more than one mod p."""
    terms = [(i, c % p) for i, c in enumerate(poly.coeffs) if c % p]
    return terms[0] if len(terms) == 1 else None


def _monomial_fibers(model, field, a, b, cubic_sum):
    """The points over t in F_p when A = alpha t^i and B = beta t^j mod p,
    alpha beta != 0, with no cubic sum for t != 0.

    x -> mu x gives S(mu^2 a, mu^3 b) = chi2(mu) S(a, b), and mu = A/B
    takes (A, B) to (r, r). So for t != 0,
    S(A(t), B(t)) = chi2(alpha beta t^(i+j)) S(r, r) with
    r = c t^e, c = alpha^3 beta^-2 and e = 3i - 2j, and
    S(r, r) = chi2(-1) + sum over x != -1 of chi2(x + 1) chi2(x^3/(x + 1) + r).
    So S summed over t != 0 is
      chi2(-1) sum_s M(s) + sum over x != -1 of chi2(x + 1) D(x^3/(x + 1)),
    where M(s) sums chi2(alpha beta t^(i+j)) over the t with c t^e = s and
    D(w) = sum_s M(s) chi2(w + s). M lives on the (p-1)/gcd(e, p-1) values
    s = c g^(e tau) of the coset c <g^e>, each reached by the gcd(e, p-1)
    values of t with dlog t = tau mod (p-1)/gcd, whose characters cancel
    unless ((p-1)/gcd) (i+j) is even; then M(s) is
    chi2(alpha beta) gcd (-1)^(tau (i+j)), and D is that constant times
    _coset_sums, read off its period table at dlog(x^3/(x + 1)). The
    fibers with t != 0 are bad exactly where r = -27/4, at the tau with
    e tau = dlog(-27/4) - dlog(c). There x^3 + Ax + B = (x - u)^2 (x + 2u)
    with A = -3u^2 and B = 2u^3, so S = -chi2(3u) = -chi2(-2AB), the sign
    of the node. Off t = 0, Delta is a power of t times
    4 alpha^3 t^(3i-2j) + 27 beta^2 (or its mirror when 3i < 2j), whose
    roots are simple unless p | 3i - 2j. A simple root with A(t0) != 0 is
    a fiber of type I1, the nodal cubic, which the coset sum has counted.
    Only when p | 3i - 2j does each such fiber's S come out again and its
    configuration from Tate's algorithm go in. Everything is O(p).
    """
    (i, alpha), (j, beta) = a, b
    p, g, dlog = field.p, field.g, field.dlog_table
    n = p - 1
    e = (3 * i - 2 * j) % n
    d = gcd(e, n)
    reach = n // d  # values of c t^e
    c = alpha ** 3 * pow(beta, -2, p) % p
    total = _degenerate_count(model, field, 0, cubic_sum) + n * (p + 1)
    if reach * (i + j) % 2 == 0:
        at_zero, table = _coset_sums(field, c, e, i + j)
        period = len(table)
        # x = -1 and x = 0; sum_s M(s) vanishes when i + j is odd
        total_s = at_zero + (0 if (i + j) & 1 else field.chi2(-1) * reach)
        # x = 1 .. p-2: chi2(x + 1) and D at dlog(x^3/(x + 1))
        for dx, dx1 in zip(islice(dlog, 1, n), islice(dlog, 2, None)):
            v = table[(3 * dx - dx1) % period]
            total_s += -v if dx1 & 1 else v
        total += field.chi2(alpha * beta) * d * total_s
    # c g^(e tau) = -27/4 for tau = tau0 mod reach, when d divides the
    # shift; these t are simple roots of Delta unless p | 3i - 2j
    shift = dlog[-27 * pow(4, -1, p) % p] - dlog[c]
    if (3 * i - 2 * j) % p == 0 and shift % d == 0:
        tau0 = shift // d * pow(e // d, -1, reach) % reach
        for tau in range(tau0, n, reach):
            t = pow(g, tau, p)
            total += _degenerate_count(model, field, t, cubic_sum)
            total -= p + 1 - field.chi2(-2 * alpha * beta * pow(t, i + j, p))
    return total


def _coset_sums(field, c, e, alternate):
    """The character sums D(w) = sum over tau < r of
    (-1)^(alternate tau) chi2(w + c g^(e tau)), r = (p-1)/gcd(e, p-1), over
    the coset c <g^e> of F_p^*: (D(0), a period table V with
    D(g^k) = V[k mod len(V)]).

    r must be even or alternate even; else ValueError. With
    gamma = dlog c, chi2(g^k + c g^(e tau)) = (-1)^k chi2(1 + g^(gamma + e tau - k)),
    and e tau runs once over the multiples of d = gcd(e, p-1). So D(g^k)
    is (-1)^k times a sum of chi2(1 + x) over the x with
    dlog x = gamma - k mod d; when alternate is odd, r is even and the
    sign (-1)^tau is the parity of the step in d, so the x with
    dlog x = gamma - k mod 2d add and the others subtract. One pass over
    F_p^* tallies chi2(1 + x) by dlog x mod L, L = d or 2d, and V has
    length lcm(2, L). D(0) = chi2(c) sum over tau of
    (-1)^((e + alternate) tau). O(p), and both tables are far shorter
    than p unless d is.
    """
    p, dlog = field.p, field.dlog_table
    n = p - 1
    e %= n
    d = gcd(e, n)
    reach = n // d
    if alternate & 1 and reach & 1:
        raise ValueError(f"an alternating sum over a coset of odd length {reach}")
    size = 2 * d if alternate & 1 else d
    # every class of dlog x mod size holds n/size of the x != 0, one of
    # them -1 with chi2(0) = 0; chi2(1 + x) = 1 unless dlog(1 + x) is
    # odd, so only the x = 1 .. p-2 with odd dlog(1 + x) are tallied
    odd = Counter(map(mod, compress(islice(dlog, 1, n), map((1).__and__, islice(dlog, 2, None))),
                      repeat(size)))
    tally = [n // size - 2 * odd[k] for k in range(size)]
    tally[n // 2 % size] -= 1
    if alternate & 1:
        tally = [tally[k] - tally[(k + d) % size] for k in range(size)]
    gamma = dlog[c % p]
    period = size if size % 2 == 0 else 2 * size
    table = [(-1) ** k * tally[(gamma - k) % size] for k in range(period)]
    return field.chi2(c) * (reach & 1 if (e + alternate) & 1 else reach), table


def _degenerate_count(model, field, t0, cubic_sum):
    local = _local_model(model, field, t0)
    a, b, _va, vd = local
    if vd == 0:
        # good after minimality reduction (e.g. deg A <= 4, deg B <= 6 at inf)
        return field.p + 1 + cubic_sum(a.coeff(0), b.coeff(0))
    return fiber_points(tate_fiber(model, field, t0, local), field.p)


def _cubic_sums(field, cosets=None):
    """The function (a, b) -> S(a, b), the sum of chi2(x^3 + a x + b) over
    every x in F_p, one O(p) sum per call.

    cosets may be _coset_sums(field, 1, 3, 0): then S(0, b) is
    read off it in O(1). The x != 0 reach each value of <g^3> gcd(3, p-1)
    times, so S(0, b) = chi2(b) + gcd(3, p-1) D(b), with D the sum of
    chi2(b + s) over s in <g^3>.
    """
    p = field.p
    cubes = []

    def cubic_sum(a, b):
        if cosets and a % p == 0:
            at_zero, table = cosets
            b %= p
            return field.chi2(b) + gcd(3, p - 1) * (
                table[field.dlog_table[b] % len(table)] if b else at_zero)
        if not cubes:  # built on the first O(q) sum; most counts make none
            cubes.extend(x * x * x % p for x in range(p))
        return chi_cubic_sum(field.chi2_table(), cubes, a % p, b % p, p)

    return cubic_sum


# ---------------------------------------------------------------------------
# geometric (characteristic-zero) fiber analysis

def geometric_fibers(model):
    """Fiber types of the model over the algebraic closure of Q.

    Returns one row per squarefree piece of the discriminant (refined so
    every root in a piece shares the valuations of A and B), plus t = inf,
    as dicts with place/degree/kind/components/euler. The Euler numbers,
    weighted by degree, must sum to a multiple of 12.

    Delta, A and B each take one _yun_squarefree pass, whose t-adic part
    is read off the coefficients; each piece of Delta is then split by one
    gcd per Yun factor of A, and each of those by one per factor of B.
    """
    disc = model.discriminant()
    factors_a = _yun_squarefree(model.a) if model.a else None
    factors_b = _yun_squarefree(model.b) if model.b else None
    rows = []
    for g, vd in _yun_squarefree(disc):
        for piece_a, va in _split_by_factors(g, factors_a):
            for piece, vb in _split_by_factors(piece_a, factors_b):
                kind = _geometric_kind(va, vb, vd)
                if kind != "I0":  # I0: non-minimal model, good fiber after reduction
                    rows.append(_fiber_row(piece.format("t"), piece.degree, kind))
    va = 8 - model.a.degree if model.a else _INF
    vb = 12 - model.b.degree if model.b else _INF
    kind = _geometric_kind(va, vb, 24 - disc.degree)
    if kind != "I0":
        rows.append(_fiber_row("inf", 1, kind))
    total = sum(r["degree"] * r["euler"] for r in rows)
    if total % 12 != 0:
        raise AssertionError(f"local Euler numbers sum to {total}, not a multiple of 12")
    return rows


def _fiber_row(place, degree, kind):
    fiber = KodairaFiber(place, kind, None)
    return {"place": place, "degree": degree, "kind": kind,
            "components": fiber.component_count, "euler": fiber.euler_number}


def _geometric_kind(va, vb, vd):
    """The Kodaira kind after the minimality reduction (A, B) -> (A/t^4, B/t^6),
    taken min(v(A) // 4, v(B) // 6) times, as in _local_model; each step
    lowers v(Delta) by 12 (_INF stays _INF)."""
    steps = min(va // 4, vb // 6)
    return _kodaira_kind(va - 4 * steps if va < _INF else _INF, vd - 12 * steps)


# ---------------------------------------------------------------------------
# Fermat surfaces and double sextics

def count_fermat(m, q):
    """Points of x0^m + x1^m + x2^m + x3^m = 0 in P^3(F_q), q prime.

    The affine cone (kernels.fermat_affine, about (q/2d) log q products
    for d = gcd(m, q - 1), and no dlog table) less its vertex, over the
    q - 1 nonzero scalars.
    """
    if m < 1:
        raise ValueError("m must be positive")
    points, rest = divmod(fermat_affine(make_field(q).g, m, q) - 1, q - 1)
    if rest:
        raise ArithmeticError(f"the degree-{m} Fermat cone over F_{q} is not a union of lines")
    return points


def count_affine_double_sextic(f, q):
    """Affine points of y^2 = f(u, v) over F_q, f given as {(i, j): coeff}.

    f = rest(u) + c u^i v^j, with v in at most one term mod q
    (u^5 + u v^5 - 1 for k = 25); any other f raises ValueError. The sum
    over v at each u is one value of a coset character sum
    (_single_v_term_sum), O(q) in all, and a v-free f counts
    q (1 + chi2(rest(u))) points over each u.
    """
    if q % 2 == 0:
        raise ValueError("need odd q")
    terms = [(i, j, c % q) for (i, j), c in f.items() if c % q]
    v_terms = [term for term in terms if term[1]]
    if len(v_terms) > 1:
        raise ValueError("v occurs in more than one term of f")
    field = make_field(q)
    free = {i: c for i, j, c in terms if not j}
    rest = IntPoly([free.get(i, 0) for i in range(max(free, default=-1) + 1)])
    if not v_terms:
        chi2 = field.chi2_table()
        return q * q + q * sum(chi2[rest(u) % q] for u in range(q))
    return q * q + _single_v_term_sum(field, rest, *v_terms[0])[0]


def _single_v_term_sum(field, rest, i, j, c, cosets=None):
    """(Sum of chi2(f(u, v)) over F_p^2, the roots of rest in F_p) for
    f = rest(u) + c u^i v^j, c != 0 mod p and j > 0. With rest = B, i = 0,
    j = 3 and c = 1 the sum is that of S(0, B(t)) over every t, the cubic
    sums of the fibers of y^2 = x^3 + B(t). cosets is
    _coset_sums(field, 1, j, 0) when the caller has built it already.

    For u with b = c u^i != 0 the row over v is chi2(b) B(rest(u)/b), where
    B(w) = sum over v of chi2(v^j + w) = chi2(w) + gcd(j, p-1) D(w), the
    v = 0 term and one term per value of v^j != 0, each reached
    gcd(j, p-1) times: D is _coset_sums over <g^j>, read off its period
    table at dlog w. As chi2(b) chi2(w) = chi2(rest(u)), the row is
    chi2(rest(u)) + gcd(j, p-1) chi2(b) D(w). The row at b = 0 (u = 0,
    i > 0) is p chi2(rest(0)).

    The u != 0 are walked one orbit of u -> zeta u at a time. With k0 the
    lowest exponent of rest mod p and h = gcd(p-1, every difference of
    its exponents), rest(zeta u) = zeta^k0 rest(u) whenever zeta^h = 1.
    So u walks g^d, d < (p-1)/h, each term of rest stepping by one
    product with g^k, and each u is tallied by dlog rest(u) and i d, both
    mod the table's even period, which fix chi2(rest(u)), chi2(b) and the
    table entry. Along the orbit u zeta^e both classes step by multiples
    of (p-1)/h and repeat after `order` steps, so each class is spread
    over one such cycle, h/order times. A root of rest brings its h orbit
    mates. Everything is O(p/h) times the terms of rest, plus the period
    squared.
    """
    p, g, dlog = field.p, field.g, field.dlog_table
    n = p - 1
    at_zero, table = cosets or _coset_sums(field, 1, j, 0)
    period = len(table)
    terms = [(k, coeff % p) for k, coeff in enumerate(rest.coeffs) if coeff % p]
    k0 = terms[0][0] if terms else 0
    h = gcd(n, *(k - k0 for k, _ in terms))
    reach = n // h  # one u = g^d per orbit
    vals = [coeff for _, coeff in terms]
    steps = [pow(g, k, p) for k, _ in terms]
    dc = dlog[c]
    gu = rest.coeff(0) % p  # u = 0
    roots = [] if gu else [0]
    if i:  # b = 0
        total, rows = p * field.chi2(gu), 0
    else:
        v = table[(dlog[gu] - dc) % period] if gu else at_zero
        total, rows = field.chi2(gu), -v if dc & 1 else v
    tally = [0] * (period * period)
    for d in range(reach):  # u = g^d
        gu = sum(vals) % p
        if gu:
            tally[dlog[gu] % period * period + i * d % period] += 1
        else:  # the h roots u zeta^e, zeta = g^reach, at dlog b = dc + i (d + e reach)
            root, zeta = pow(g, d, p), pow(g, reach, p)
            for e in range(h):
                rows += -at_zero if (dc + i * (d + e * reach)) & 1 else at_zero
                roots.append(root)
                root = root * zeta % p
        for k, step in enumerate(steps):
            vals[k] = vals[k] * step % p
    # period divides p - 1, so the cycle length divides h
    sx, sy = k0 * reach % period, i * reach % period
    order = lcm(period // gcd(sx, period), period // gcd(sy, period))
    for cls, count in enumerate(tally):
        if count:
            x, y = divmod(cls, period)
            count *= h // order
            for e in range(order):
                xe, db = x + e * sx, dc + y + e * sy
                v = table[(xe - db) % period]
                total += -count if xe & 1 else count
                rows += -count * v if db & 1 else count * v
    return total + gcd(j, n) * rows, roots
