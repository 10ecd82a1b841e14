"""Brute-force point counting oracles.

Three counters live here: projective Fermat surfaces (chart by chart),
elliptic surfaces y^2 = x^3 + A(t)x + B(t) counted fiberwise on the smooth
model via Kodaira types, and affine double sextics. The elliptic counter
needs residue characteristic >= 5 throughout; that keeps Tate's procedure
in its short-Weierstrass (v(c4), v(Delta)) form.

Tate's procedure works on IntPoly expansions in the uniformizer at t0,
with ordinary + - * on the field elements. Over F_p those are plain ints
that may stay unreduced mod p; every decision (zero test, valuation,
chi2, inverse) goes through the field, which reduces them.
"""

from collections import Counter
from math import gcd

from .cyclotomic import IntPoly, exact_quotient, poly_gcd
from .field import PrimeField, as_field, make_field
from .kernels import chi_cubic_sum, fermat_affine

# valuation of the zero polynomial; larger than any honest valuation here
_INF = 10 ** 9


# ---------------------------------------------------------------------------
# factor-free analysis of Delta over Q

def _yun_squarefree(f):
    """Yun decomposition prod g_i^i of a non-constant polynomial over Q,
    as (g_i, i) pairs with g_i monic and non-constant."""
    d = f.derivative()
    g = poly_gcd(f, d)
    c = exact_quotient(f, g)
    w = exact_quotient(d, g) - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        p = poly_gcd(c, w)
        if p.degree > 0:
            out.append((p, i))
        c2 = exact_quotient(c, p)
        w = exact_quotient(w, p) - c2.derivative()
        c = c2
        i += 1
    return out


def _split_by_valuation(f, target):
    """Partition the roots of squarefree f by their multiplicity in target.

    Returns (piece, v) pairs whose product is f; target identically zero
    sends everything to valuation _INF.
    """
    if not target:
        return [(f, _INF)] if f.degree > 0 else []
    out = []
    rest = target
    roots = f
    v = 0
    while roots.degree > 0:
        deeper = poly_gcd(roots, rest)
        piece = exact_quotient(roots, deeper)
        if piece.degree > 0:
            out.append((piece, v))
        if deeper.degree > 0:
            rest = exact_quotient(rest, deeper)
        roots = deeper
        v += 1
    return out


# ---------------------------------------------------------------------------
# models and fibers

def _discriminant(a, b):
    """-16(4A^3 + 27B^2), for A and B over Z, F_p or F_{p^2}."""
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


# (component count, Euler number) for each Kodaira symbol; I_n handled in code
_FIBER_PROFILE = {
    "I0": (1, 0),
    "II": (1, 2),
    "III": (2, 3),
    "IV": (3, 4),
    "IV*": (7, 8),
    "III*": (8, 9),
    "II*": (9, 10),
}


def _kind_profile(kind):
    if kind in _FIBER_PROFILE:
        return _FIBER_PROFILE[kind]
    if kind.startswith("I") and kind.endswith("*"):
        n = int(kind[1:-1])
        if n < 0:
            raise ValueError(f"bad fiber kind {kind!r}")
        return n + 5, n + 6
    if kind.startswith("I"):
        n = int(kind[1:])
        if n < 1:
            raise ValueError(f"bad fiber kind {kind!r}")
        return n, n
    raise ValueError(f"bad fiber kind {kind!r}")


class KodairaFiber:
    """One fiber of the smooth model: location, Kodaira kind, and how
    Frobenius permutes the components (None for a smooth fiber)."""

    __slots__ = ("location", "kind", "splitting", "component_count", "euler_number")

    def __init__(self, location, kind, splitting, component_count, euler_number):
        m, e = _kind_profile(kind)
        if (component_count, euler_number) != (m, e):
            raise ValueError(
                f"{kind} must have {m} components and Euler number {e}, "
                f"got ({component_count}, {euler_number})"
            )
        self.location = location
        self.kind = kind
        self.splitting = splitting
        self.component_count = component_count
        self.euler_number = euler_number

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


def _make_fiber(location, kind, splitting):
    m, e = _kind_profile(kind)
    return KodairaFiber(location, kind, splitting, m, e)


# ---------------------------------------------------------------------------
# local expansions over a finite field

def _valuation(poly, field):
    """Index of the first coefficient that is nonzero in the field."""
    return next((i for i, c in enumerate(poly.coeffs) if not field.is_zero(c)), _INF)


def _taylor_shift(poly, t0):
    """poly(t + t0), by repeated synthetic division."""
    c = list(poly.coeffs)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += t0 * c[j + 1]
    return IntPoly(c)


def _local_model(model, field, t0):
    """Local expansions (A, B, v(Delta)) in the uniformizer at t0,
    minimality-reduced.

    The reduction (A, B) -> (A/tau^4, B/tau^6) runs while both valuations
    allow it; in particular deg A <= 4 and deg B <= 6 give good reduction at
    infinity after at most two steps. A model whose discriminant vanishes
    identically mod p has no fibers to classify and is refused.
    """
    if t0 == "inf":
        # s^8 A(1/s) and s^12 B(1/s): the twist that moves t = inf to s = 0
        a = IntPoly([model.a.coeff(8 - i) for i in range(9)])
        b = IntPoly([model.b.coeff(12 - i) for i in range(13)])
    else:
        a = _taylor_shift(model.a, t0)
        b = _taylor_shift(model.b, t0)
    # every round shortens a nonempty expansion, so this ends even when
    # A = B = 0 mod p
    while (a or b) and _valuation(a, field) >= 4 and _valuation(b, field) >= 6:
        a = IntPoly(a.coeffs[4:])
        b = IntPoly(b.coeffs[6:])
    vd = _valuation(_discriminant(a, b), field)
    if vd == _INF:
        raise ValueError(f"discriminant vanishes identically mod {field.p}")
    return a, b, vd


def _instar_data(field, a, b, vd):
    """n and far-component splitting for a type I_n* fiber (n >= 1).

    The cubic T^3 + a2 T + b3 has a double root alpha; recentering x by
    alpha*tau gives y^2 = x^3 + c2 x^2 + c1 x + c0 with c2 = e*tau + ...,
    e = 3*alpha. Round k (Silverman, Advanced Topics, IV.9 step 7) ends
    with n = 2k - 1 when the tau^(2k+2) coefficient of c0 is nonzero, with
    n = 2k when e X^2 + c1[k+2] X + c0[2k+3] has distinct roots, and
    otherwise translates x by the double root times tau^(k+1).
    """
    alpha = -3 * b.coeff(3) * field.inv(2 * a.coeff(2))
    e = 3 * alpha
    tau = IntPoly([0, 1])
    c2 = e * tau
    c1 = a + 3 * alpha * alpha * tau * tau
    c0 = b + alpha * tau * a + alpha * alpha * alpha * tau * tau * tau
    k = 1
    while k <= vd:
        r = c0.coeff(2 * k + 2)
        if not field.is_zero(r):
            n, split = 2 * k - 1, field.chi2(r) == 1
            break
        p = c1.coeff(k + 2)
        disc = p * p - 4 * e * c0.coeff(2 * k + 3)
        if not field.is_zero(disc):
            n, split = 2 * k, field.chi2(disc) == 1
            break
        shift = IntPoly([0] * (k + 1) + [-p * field.inv(2 * e)])
        c0 = c0 + shift * c1 + shift * shift * c2 + shift * shift * shift
        c1 = c1 + 2 * shift * c2 + 3 * shift * shift
        c2 = c2 + 3 * shift
        k += 1
    else:
        raise AssertionError("I_n* subprocedure failed to terminate")
    if n != vd - 6:
        raise AssertionError(f"I_n* loop found n={n} but v(Delta)={vd}")
    return n, split


def tate_fiber(model, q, t0, local=None):
    """Kodaira fiber of the smooth model at t0 (an element of F_q or "inf").

    q may be a prime or a field object; local is the _local_model triple at
    t0 when the caller has already built it. Classification is by
    (v(c4), v(Delta)) in residue characteristic >= 5, with splitting data:
    node tangents for I_n, the leading B coefficient for IV/IV*, the root
    field of the associated cubic for I_0*, and the far components for
    I_n* with n >= 1. An int t0 is reduced into the field, so every
    representative of a point gives the same fiber.
    """
    field = as_field(q)
    if field.p in (2, 3):
        raise ValueError("residue characteristic must be at least 5")
    if isinstance(t0, int):
        t0 = field.from_int(t0)
    a, b, vd = local or _local_model(model, field, t0)
    if vd == 0:
        return _make_fiber(t0, "I0", None)
    if _valuation(a, field) == 0:
        # multiplicative: the node sits at x0 = -3 b0 / (2 a0), and it is
        # split iff its tangent slopes +-sqrt(3 x0) are rational
        x0 = -3 * b.coeff(0) * field.inv(2 * a.coeff(0))
        split = "split" if field.chi2(3 * x0) == 1 else "nonsplit"
        return _make_fiber(t0, f"I{vd}", split)
    if vd == 2:
        return _make_fiber(t0, "II", "split")
    if vd == 3:
        return _make_fiber(t0, "III", "split")
    if vd == 4:
        split = "split" if field.chi2(b.coeff(2)) == 1 else "nonsplit"
        return _make_fiber(t0, "IV", split)
    a2, b3 = a.coeff(2), b.coeff(3)
    if not field.is_zero(4 * a2 * a2 * a2 + 27 * b3 * b3):
        if vd != 6:
            raise AssertionError("separable cubic forces v(Delta) = 6")
        roots = sum(1 for x in field.elements() if field.is_zero(x * x * x + a2 * x + b3))
        split = {3: "split", 1: "partial", 0: "inert"}[roots]
        return _make_fiber(t0, "I0*", split)
    if not field.is_zero(a2):
        n, far = _instar_data(field, a, b, vd)
        return _make_fiber(t0, f"I{n}*", "split" if far else "nonsplit")
    # triple root: only IV*, III*, II* remain
    if vd == 8:
        split = "split" if field.chi2(b.coeff(4)) == 1 else "nonsplit"
        return _make_fiber(t0, "IV*", split)
    if vd == 9:
        return _make_fiber(t0, "III*", "split")
    if vd == 10:
        return _make_fiber(t0, "II*", "split")
    raise ValueError(f"model is not minimal at {t0!r} and cannot be reduced")


def fiber_points(fiber, q):
    """F_q-points of a degenerate fiber, from its component configuration.

    Every Frobenius-stable component is a P^1 with q+1 points; stable
    intersection points are counted once. The per-type closed forms below
    are checked against direct enumeration of the configurations in the
    test suite.
    """
    kind, split = fiber.kind, fiber.splitting
    if kind == "I0":
        raise ValueError("smooth fibers are counted from the curve, not the configuration")
    if kind == "II":
        return q + 1
    if kind == "III":
        return 2 * q + 1
    if kind == "IV":
        return 3 * q + 1 if split == "split" else q + 1
    if kind == "IV*":
        return 7 * q + 1 if split == "split" else 3 * q + 1
    if kind == "III*":
        return 8 * q + 1
    if kind == "II*":
        return 9 * q + 1
    if kind == "I0*":
        rational_legs = {"split": 3, "partial": 1, "inert": 0}[split]
        return (2 + rational_legs) * q + 1
    if kind.endswith("*"):
        n = int(kind[1:-1])
        return (n + 5) * q + 1 if split == "split" else (n + 3) * q + 1
    n = int(kind[1:])
    if split == "split":
        return n * q
    # non-split: Frobenius reflects the cycle through the identity component
    return 2 * q + 2 if n % 2 == 0 and n > 1 else q + 2


def count_elliptic_smooth(model, q):
    """F_q-points of the smooth model of y^2 = x^3 + A(t)x + B(t) over P^1.

    Good fibers via the quadratic character, degenerate fibers via their
    Kodaira configuration. Only t0 in P^1(F_q) can carry F_q-points, so
    degenerate fibers over higher-degree closed points never contribute.
    """
    field = as_field(q)
    if field.p in (2, 3):
        raise ValueError("residue characteristic must be at least 5")
    size = field.q
    disc = model.discriminant()
    cubic_sum = _cubic_sums(field)
    fast = isinstance(field, PrimeField)
    if fast:
        p = field.p
        a_mod = [c % p for c in model.a.coeffs]
        b_mod = [c % p for c in model.b.coeffs]
        d_mod = [c % p for c in disc.coeffs]
    total = 0
    for t0 in field.elements():
        if fast:
            if _horner_mod(d_mod, t0, p) != 0:
                a0 = _horner_mod(a_mod, t0, p)
                b0 = _horner_mod(b_mod, t0, p)
                total += size + 1 + cubic_sum(a0, b0)
                continue
        elif not field.is_zero(disc(t0)):
            total += size + 1 + cubic_sum(model.a(t0), model.b(t0))
            continue
        total += _degenerate_count(model, field, t0, size, cubic_sum)
    total += _degenerate_count(model, field, "inf", size, cubic_sum)
    return total


def _degenerate_count(model, field, t0, size, cubic_sum):
    local = _local_model(model, field, t0)
    a, b, vd = local
    if vd == 0:
        # good after minimality reduction (e.g. deg A <= 4, deg B <= 6 at inf)
        return size + 1 + cubic_sum(a.coeff(0), b.coeff(0))
    return fiber_points(tate_fiber(model, field, t0, local), size)


def _cubic_sums(field):
    """The function (a, b) -> S(a, b), the sum of chi2(x^3 + a x + b) over
    every x in the field.

    Over F_p, x -> mu x gives S(mu^2 a, mu^3 b) = chi2(mu) S(a, b), so
    chi_cubic_sum runs once per class of that scaling, and a dict keeps
    each result under the class's representative:
      ab != 0: mu = a/b reaches (r, r) with r = a^3/b^2, so
        S(a, b) = chi2(a/b) S(r, r) = chi2(ab) S(r, r);
      a = 0: S(0, b) = S(0, g^e) with e = dlog(b) mod gcd(6, p-1);
      b = 0: S(a, 0) = S(g^e, 0) with e = dlog(a) mod gcd(4, p-1);
      a = b = 0: S = sum chi2(x^3) = sum chi2(x) = 0.
    The a = 0 rule: if 3 | p-1, b/g^e = g^(6j) and each mu with
    mu^3 = g^(6j) is g^(2j) times a cube root of 1, a square; otherwise
    x -> x^3 is a bijection and S(0, b) = 0 for every b. The b = 0 rule:
    if 4 | p-1, each mu with mu^2 = a/g^e = g^(4j) is +-g^(2j), a square
    because -1 is; otherwise chi2(-1) = -1 and x -> -x gives
    S(a, 0) = -S(a, 0) = 0.
    """
    if not isinstance(field, PrimeField):
        return lambda a, b: sum(field.chi2(x * x * x + a * x + b) for x in field.elements())
    p, g, dlog = field.p, field.g, field.dlog_table
    chi2_table = field.chi2_table()
    cubes = [x * x * x % p for x in range(p)]
    sums = {}

    def cubic_sum(a, b):
        a %= p
        b %= p
        if a and b:
            sign = chi2_table[a * b % p]
            r = a * a * a * pow(b * b, -1, p) % p
            key = (r, r)
        elif a:
            sign, key = 1, (pow(g, dlog[a] % gcd(4, p - 1), p), 0)
        elif b:
            sign, key = 1, (0, pow(g, dlog[b] % gcd(6, p - 1), p))
        else:
            return 0
        if key not in sums:
            sums[key] = chi_cubic_sum(chi2_table, cubes, key[0], key[1], p)
        return sign * sums[key]

    return cubic_sum


def _horner_mod(coeffs, x, p):
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % p
    return out


# ---------------------------------------------------------------------------
# geometric (characteristic-zero) fiber analysis

def geometric_fibers(model):
    """Fiber types of the model over the algebraic closure of Q.

    Returns one row per squarefree piece of the discriminant (refined so
    every root in a piece shares the valuations of A and B), plus t = inf,
    as dicts with place/degree/kind/components/euler. The Euler numbers,
    weighted by degree, must sum to a multiple of 12.
    """
    disc = model.discriminant()
    rows = []
    for g, vd in _yun_squarefree(disc):
        for piece_a, va in _split_by_valuation(g, model.a):
            for piece, vb in _split_by_valuation(piece_a, model.b):
                kind, m, e = _geometric_kind(va, vb, vd)
                if kind == "I0":  # non-minimal model, good fiber after reduction
                    continue
                poly = piece.primitive()
                rows.append({
                    "place": poly.format("t"),
                    "degree": poly.degree,
                    "kind": kind,
                    "components": m,
                    "euler": e,
                })
    va = 8 - model.a.degree if model.a else _INF
    vb = 12 - model.b.degree if model.b else _INF
    vd = 24 - disc.degree
    kind, m, e = _geometric_kind(va, vb, vd)
    if kind != "I0":
        rows.append({"place": "inf", "degree": 1, "kind": kind, "components": m, "euler": e})
    total = sum(r["degree"] * r["euler"] for r in rows)
    if total % 12 != 0:
        raise AssertionError(f"local Euler numbers sum to {total}, not a multiple of 12")
    return rows


def _geometric_kind(va, vb, vd):
    while va >= 4 and vb >= 6 and vd >= 12:
        va = va - 4 if va < _INF else _INF
        vb = vb - 6 if vb < _INF else _INF
        vd -= 12
    if vd == 0:
        return "I0", 1, 0
    if va == 0:
        return f"I{vd}", vd, vd
    table = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}
    if vd >= 7 and va == 2:
        kind = f"I{vd - 6}*"
    elif vd in table and not (vd >= 8 and va == 2):
        kind = table[vd]
    else:
        raise AssertionError(f"impossible valuation pattern (v(A), v(B), v(D)) = ({va}, {vb}, {vd})")
    m, e = _kind_profile(kind)
    return kind, m, e


# ---------------------------------------------------------------------------
# Fermat surfaces and double sextics

# Largest fermat_value_pairs(m, q) that the count command accepts: about
# a minute of fermat_affine, which visits some 17M value pairs per second
# in pure Python on a 2-vCPU machine. count --fermat 4 --q 4194301 would
# visit 2^40, about 1.1e12, pairs: many hours.
FERMAT_PAIR_LIMIT = 10 ** 9


def fermat_value_pairs(m, q):
    """Pairs of values of u^m that count_fermat visits over F_q, q prime."""
    return (1 + (q - 1) // gcd(m, q - 1)) ** 2


def count_fermat(m, q):
    """Points of x0^m + x1^m + x2^m + x3^m = 0 in P^3(F_q).

    Chart x0 = 1 is a double sum over the fermat_value_pairs(m, q) pairs
    of values of u^m and v^m, each weighted by how often it occurs, so
    O(q + (q/gcd(m, q-1))^2) rather than O(q^2); the leftover x0 = 0 locus
    is the plane Fermat curve, an O(q) sum over u.
    """
    if m < 1:
        raise ValueError("m must be positive")
    field = make_field(q)
    powm = [pow(v, m, q) for v in range(q)]
    rootcnt = field.power_count_table(m)
    affine = fermat_affine(powm, rootcnt, q)
    curve = sum(rootcnt[(-1 - powm[u]) % q] for u in range(q)) + rootcnt[(q - 1) % q]
    return affine + curve


def count_affine_double_sextic(f, q):
    """Affine points of y^2 = f(u, v) over F_q, f given as {(i, j): coeff}.

    f(u, v) depends on v only through the powers v^j that f uses, so the
    v with equal powers share one row sum over u, weighted by their number
    (for u^5 + u v^5 - 1, one row per value of v^5).
    """
    if q % 2 == 0:
        raise ValueError("need odd q")
    field = make_field(q)
    chi2_table = field.chi2_table()
    terms = [(i, j, c % q) for (i, j), c in sorted(f.items()) if c % q]
    if not terms:
        return q * q
    js = sorted({j for _, j, _ in terms})
    max_i = max(i for i, _, _ in terms)
    upow = [[pow(u, i, q) for i in range(max_i + 1)] for u in range(q)]
    rows = Counter(tuple(pow(v, j, q) for j in js) for v in range(q))
    total = q * q
    for powers, size in rows.items():
        pv = dict(zip(js, powers))
        row = [0] * (max_i + 1)
        for i, j, c in terms:
            row[i] += c * pv[j]
        row_terms = [(i, c % q) for i, c in enumerate(row) if c % q]
        row_sum = 0
        for pu in upow:
            val = 0
            for i, c in row_terms:
                val += c * pu[i]
            row_sum += chi2_table[val % q]
        total += size * row_sum
    return total
