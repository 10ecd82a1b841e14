"""Brute-force point counting oracles.

Three counters live here: projective Fermat surfaces (chart by chart),
elliptic surfaces y^2 = x^3 + A(t)x + B(t) counted fiberwise on the smooth
model via Kodaira types, and affine double sextics. The elliptic counter
needs residue characteristic >= 5 throughout; that keeps Tate's procedure
in its short-Weierstrass (v(c4), v(Delta)) form.
"""

from .cyclotomic import IntPoly, exact_quotient, poly_gcd
from .field import PrimeField, make_field
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
        if not (4 * a * a * a + 27 * b * b):
            raise ValueError("discriminant vanishes identically")
        self.a = a
        self.b = b

    def discriminant(self):
        return -16 * (4 * self.a * self.a * self.a + 27 * self.b * self.b)

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

def _as_field(q):
    if isinstance(q, int):
        return make_field(q)
    return q


def _field_coeffs(poly, field):
    return [field.from_int(c) for c in poly.coeffs]


def _taylor_shift(coeffs, t0, field):
    c = list(coeffs)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] = field.add(c[j], field.mul(t0, c[j + 1]))
    return c


def _reversed_chart(poly, weight, field):
    # s^weight * P(1/s): the degree-8/12 twist that moves t = inf to s = 0
    return [field.from_int(poly.coeff(weight - i)) for i in range(weight + 1)]


def _pval(coeffs, field):
    for i, c in enumerate(coeffs):
        if not field.is_zero(c):
            return i
    return _INF


def _at(coeffs, i, field):
    return coeffs[i] if i < len(coeffs) else field.from_int(0)


def _pmul(xs, ys, field):
    if not xs or not ys:
        return []
    zero = field.from_int(0)
    out = [zero] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if field.is_zero(x):
            continue
        for j, y in enumerate(ys):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def _padd(xs, ys, field):
    n = max(len(xs), len(ys))
    return [field.add(_at(xs, i, field), _at(ys, i, field)) for i in range(n)]


def _pscale(xs, c, field):
    return [field.mul(c, x) for x in xs]


def _local_model(model, field, t0):
    """Local expansions of (A, B) in the uniformizer at t0, minimality-reduced.

    The reduction (A, B) -> (A/tau^4, B/tau^6) runs while both valuations
    allow it; in particular deg A <= 4 and deg B <= 6 give good reduction at
    infinity after at most two steps.
    """
    if t0 == "inf":
        a = _reversed_chart(model.a, 8, field)
        b = _reversed_chart(model.b, 12, field)
    else:
        if isinstance(t0, int):
            t0 = field.from_int(t0)
        a = _taylor_shift(_field_coeffs(model.a, field), t0, field)
        b = _taylor_shift(_field_coeffs(model.b, field), t0, field)
    while _pval(a, field) >= 4 and _pval(b, field) >= 6:
        a = a[4:]
        b = b[6:]
    return a, b


def _local_disc(a, b, field):
    a3 = _pmul(_pmul(a, a, field), a, field)
    b2 = _pmul(b, b, field)
    four = field.from_int(4)
    t27 = field.from_int(27)
    s = _padd(_pscale(a3, four, field), _pscale(b2, t27, field), field)
    return _pscale(s, field.from_int(-16), field)


def _instar_data(field, a, b, vd):
    """n and far-component splitting for a type I_n* fiber (n >= 1).

    The cubic T^3 + a2 T + b3 has a double root alpha; recentering x by
    alpha*tau gives y^2 = x^3 + c2 x^2 + c1 x + c0 with c2 = e*tau + ...,
    e = 3*alpha. Each round either terminates (odd n on c0's leading
    coefficient, even n on the quadratic discriminant) or translates x to
    push the vanishing one level deeper.
    """
    zero = field.from_int(0)
    a2 = _at(a, 2, field)
    b3 = _at(b, 3, field)
    alpha = field.neg(field.mul(field.from_int(3), field.mul(b3, field.inv(field.mul(field.from_int(2), a2)))))
    e = field.mul(field.from_int(3), alpha)
    c2 = [zero, e]
    c1 = _padd(a, [zero, zero, field.mul(field.from_int(3), field.mul(alpha, alpha))], field)
    alpha3 = field.mul(field.mul(alpha, alpha), alpha)
    c0 = _padd(b, _padd([zero] + _pscale(a, alpha, field), [zero, zero, zero, alpha3], field), field)
    k = 1
    while k <= vd:
        r = _at(c0, k + 3, field)
        if not field.is_zero(r):
            n, split = 2 * k - 1, field.chi2(r) == 1
            break
        p = _at(c1, k + 2, field)
        disc = field.sub(
            field.mul(p, p),
            field.mul(field.from_int(4), field.mul(e, _at(c0, k + 4, field))),
        )
        if not field.is_zero(disc):
            n, split = 2 * k, field.chi2(disc) == 1
            break
        delta = field.neg(field.mul(p, field.inv(field.mul(field.from_int(2), e))))
        shift = [zero] * (k + 1) + [delta]
        d2 = _pmul(shift, shift, field)
        d3 = _pmul(d2, shift, field)
        c0 = _padd(c0, _padd(_pmul(shift, c1, field), _padd(_pmul(d2, c2, field), d3, field), field), field)
        c1 = _padd(c1, _padd(_pscale(_pmul(shift, c2, field), field.from_int(2), field), _pscale(d2, field.from_int(3), field), field), field)
        c2 = _padd(c2, _pscale(shift, field.from_int(3), field), field)
        k += 1
    else:
        raise AssertionError("I_n* subprocedure failed to terminate")
    if n != vd - 6:
        raise AssertionError(f"I_n* loop found n={n} but v(Delta)={vd}")
    return n, split


def tate_fiber(model, q, t0):
    """Kodaira fiber of the smooth model at t0 (an element of F_q or "inf").

    q may be a prime or a field object. Classification is by
    (v(c4), v(Delta)) in residue characteristic >= 5, with splitting data:
    node tangents for I_n, the leading B coefficient for IV/IV*, the root
    field of the associated cubic for I_0*, and the far components for
    I_n* with n >= 1.
    """
    field = _as_field(q)
    if field.p in (2, 3):
        raise ValueError("residue characteristic must be at least 5")
    a, b = _local_model(model, field, t0)
    delta = _local_disc(a, b, field)
    vd = _pval(delta, field)
    if vd == 0:
        return _make_fiber(t0, "I0", None)
    va = _pval(a, field)
    if va == 0:
        # multiplicative: split iff the node's tangent slopes are rational
        a0, b0 = a[0], _at(b, 0, field)
        x0 = field.neg(field.mul(field.from_int(3), field.mul(b0, field.inv(field.mul(field.from_int(2), a0)))))
        tangent = field.mul(field.from_int(3), x0)
        split = "split" if field.chi2(tangent) == 1 else "nonsplit"
        return _make_fiber(t0, f"I{vd}", split)
    if vd == 2:
        return _make_fiber(t0, "II", "split")
    if vd == 3:
        return _make_fiber(t0, "III", "split")
    if vd == 4:
        split = "split" if field.chi2(_at(b, 2, field)) == 1 else "nonsplit"
        return _make_fiber(t0, "IV", split)
    a2 = _at(a, 2, field)
    b3 = _at(b, 3, field)
    cubic_disc = field.add(
        field.mul(field.from_int(4), field.mul(field.mul(a2, a2), a2)),
        field.mul(field.from_int(27), field.mul(b3, b3)),
    )
    if not field.is_zero(cubic_disc):
        if vd != 6:
            raise AssertionError("separable cubic forces v(Delta) = 6")
        roots = 0
        for x in field.elements():
            val = field.add(field.add(field.mul(field.mul(x, x), x), field.mul(a2, x)), b3)
            if field.is_zero(val):
                roots += 1
        split = {3: "split", 1: "partial", 0: "inert"}[roots]
        return _make_fiber(t0, "I0*", split)
    if not field.is_zero(a2):
        n, far = _instar_data(field, a, b, vd)
        return _make_fiber(t0, f"I{n}*", "split" if far else "nonsplit")
    # triple root: only IV*, III*, II* remain
    if vd == 8:
        split = "split" if field.chi2(_at(b, 4, field)) == 1 else "nonsplit"
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
    field = _as_field(q)
    if field.p in (2, 3):
        raise ValueError("residue characteristic must be at least 5")
    size = field.q
    disc = model.discriminant()
    fast = isinstance(field, PrimeField)
    if fast:
        p = field.p
        chi2_table = field.chi2_table()
        cubes = [x * x * x % p for x in range(p)]
        a_mod = [c % p for c in model.a.coeffs]
        b_mod = [c % p for c in model.b.coeffs]
        d_mod = [c % p for c in disc.coeffs]
    total = 0
    for t0 in field.elements():
        if fast:
            d0 = _horner_mod(d_mod, t0, p)
            if d0 != 0:
                a0 = _horner_mod(a_mod, t0, p)
                b0 = _horner_mod(b_mod, t0, p)
                total += size + 1 + chi_cubic_sum(chi2_table, cubes, a0, b0, p)
                continue
        else:
            d0 = _horner_field(disc, t0, field)
            if not field.is_zero(d0):
                a0 = _horner_field(model.a, t0, field)
                b0 = _horner_field(model.b, t0, field)
                total += size + 1 + _chi_cubic_field(field, a0, b0)
                continue
        total += _degenerate_count(model, field, t0, size)
    total += _degenerate_count(model, field, "inf", size)
    return total


def _degenerate_count(model, field, t0, size):
    a, b = _local_model(model, field, t0)
    delta = _local_disc(a, b, field)
    if _pval(delta, field) == 0:
        # good after minimality reduction (e.g. deg A <= 4, deg B <= 6 at inf)
        a0 = _at(a, 0, field)
        b0 = _at(b, 0, field)
        return size + 1 + _chi_cubic_field(field, a0, b0)
    return fiber_points(tate_fiber(model, field, t0), size)


def _chi_cubic_field(field, a0, b0):
    if isinstance(field, PrimeField):
        p = field.p
        cubes = [x * x * x % p for x in range(p)]
        return chi_cubic_sum(field.chi2_table(), cubes, a0, b0, p)
    total = 0
    for x in field.elements():
        fx = field.add(field.add(field.mul(field.mul(x, x), x), field.mul(a0, x)), b0)
        total += field.chi2(fx)
    return total


def _horner_mod(coeffs, x, p):
    out = 0
    for c in reversed(coeffs):
        out = (out * x + c) % p
    return out


def _horner_field(poly, x, field):
    out = field.from_int(0)
    for c in reversed(poly.coeffs):
        out = field.add(field.mul(out, x), field.from_int(c))
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

def count_fermat(m, q):
    """Points of x0^m + x1^m + x2^m + x3^m = 0 in P^3(F_q).

    Chart x0 = 1 is an O(q^2) double loop over m-th power counts; the
    leftover x0 = 0 locus is the plane Fermat curve, counted the same way.
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
    """Affine points of y^2 = f(u, v) over F_q, f given as {(i, j): coeff}."""
    if q % 2 == 0:
        raise ValueError("need odd q")
    field = make_field(q)
    chi2_table = field.chi2_table()
    terms = [(i, j, c % q) for (i, j), c in sorted(f.items()) if c % q]
    if not terms:
        return q * q
    max_i = max(t[0] for t in terms)
    max_j = max(t[1] for t in terms)
    upow = [[pow(u, i, q) for i in range(max_i + 1)] for u in range(q)]
    vpow = [[pow(v, j, q) for j in range(max_j + 1)] for v in range(q)]
    total = q * q
    for u in range(q):
        pu = upow[u]
        for v in range(q):
            pv = vpow[v]
            val = 0
            for i, j, c in terms:
                val += c * pu[i] * pv[j]
            total += chi2_table[val % q]
    return total
