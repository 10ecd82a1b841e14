"""Four-monomial surfaces and their Fermat covers.

A surface given by a signed sum of monomials in up to three variables can
be covered by a Fermat surface U^m + V^m + W^m + 1 = 0 via a map sending
each variable to a signed Laurent monomial in (U, V, W). This module
parses such equations, verifies covering maps by exact division, finds the
characters the cover's deck group leaves invariant (the row space of the
map's exponent matrix mod m) and the transcendental ones among them (the
Galois orbit of the one invariant character of weight one), and derives
the cover degree and map from the exponent matrix.

Sign caveat: a map whose images carry only +-1 coefficients can only reach
an equation whose four terms rescale to a common sign. When the given
equation fails that parity condition (e.g. a -y^2 term alongside a +1
constant), the derived map covers a sign-flipped variant of the equation
instead; the flips are recorded on the map (term_signs) so verification
stays exact and the variant is auditable. The invariant characters depend
only on exponents, so everything downstream of the cover is unaffected by
the variant.

count parses equations and the catalog's covers are MonomialMaps, so the
parser and the records load with the catalog. Only the two routines that
eliminate (cover_invariant_characters and cover_exponents, which verify
and the delsarte command reach) import intmat, when they run.
"""

from itertools import product
from math import gcd, prod

from .characters import CharacterVector, Record, units_mod

FERMAT_VARS = ("U", "V", "W")
# Bound on the order of the group of deck-invariant characters, checked
# before the group is enumerated. The order is m on every catalog cover
# (m <= 66), and enumerating a group at the limit takes about 10 ms.
INVARIANT_LIMIT = 10_000


class SurfaceSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position


class DelsarteSurface(Record):
    __slots__ = _fields = (
        "variables",  # names, in order of first appearance
        "terms",      # ((coeff, exponent tuple aligned with variables), ...)
    )

    def __init__(self, variables, terms):
        self._set(variables, terms)


class MonomialMap(Record):
    __slots__ = _fields = (
        "m",
        "images",      # ((variable, sign, (eU, eV, eW)), ...)
        "term_signs",  # sign-variant flips, aligned with surface terms, else None
    )

    def __init__(self, m, images, term_signs=None):
        self._set(m, images, term_signs)

    def image(self, var):
        for name, sign, exps in self.images:
            if name == var:
                return sign, exps
        raise KeyError(f"map has no image for variable {var!r}")

    def image_text(self, var):
        sign, exps = self.image(var)
        body = "*".join(
            f if p == 1 else f"{f}^{p}"
            for f, p in zip(FERMAT_VARS, exps) if p
        ) or "1"
        return f"-{body}" if sign < 0 else body


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^=":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise SurfaceSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise SurfaceSyntaxError(f"expected {kind!r}", tok[2])
        return tok

    def parse_equation(self):
        lhs = self.parse_expr()
        self.expect("=")
        rhs = self.parse_expr()
        end = self.take()
        if end[0] != "end":
            raise SurfaceSyntaxError("unexpected trailing input", end[2])
        return lhs, rhs

    def parse_expr(self):
        terms = []
        sign = 1
        if self.peek()[0] in "+-":
            sign = 1 if self.take()[0] == "+" else -1
        terms.append(self.parse_term(sign))
        while self.peek()[0] in "+-":
            sign = 1 if self.take()[0] == "+" else -1
            terms.append(self.parse_term(sign))
        return terms

    def parse_term(self, sign):
        coeff, powers = self.parse_factor(sign, {})
        while self.peek()[0] == "*":
            self.take()
            coeff, powers = self.parse_factor(coeff, powers)
        return coeff, powers

    def parse_factor(self, coeff, powers):
        tok = self.take()
        if tok[0] == "int":
            return coeff * tok[1], powers
        if tok[0] == "name":
            exp = 1
            if self.peek()[0] == "^":
                self.take()
                exp_tok = self.take()
                if exp_tok[0] != "int":
                    raise SurfaceSyntaxError("expected integer exponent", exp_tok[2])
                exp = exp_tok[1]
            powers = dict(powers)
            powers[tok[1]] = powers.get(tok[1], 0) + exp
            return coeff, powers
        raise SurfaceSyntaxError("expected a variable or integer", tok[2])


def parse_surface(text):
    """Parse an equation like "y^2 = x^3 + t^7*x - t" into a DelsarteSurface.

    The left side is negated into a single term list, variables keep their
    order of first appearance, duplicate monomials merge, and zero terms
    drop out. Raises SurfaceSyntaxError with the offending position, or
    ValueError when more than three variables appear.
    """
    lhs, rhs = _Parser(text).parse_equation()
    raw = [(-c, p) for c, p in lhs] + list(rhs)
    variables = []
    for _c, powers in raw:
        for v in powers:
            if v not in variables:
                variables.append(v)
    if len(variables) > 3:
        raise ValueError(f"more than 3 variables: {', '.join(variables)}")
    merged = {}
    order = []
    for c, powers in raw:
        e = tuple(powers.get(v, 0) for v in variables)
        if e not in merged:
            merged[e] = 0
            order.append(e)
        merged[e] += c
    terms = tuple((merged[e], e) for e in order if merged[e] != 0)
    return DelsarteSurface(tuple(variables), terms)


def _pullback(surface, pi):
    """Substitute pi into the surface equation; returns {(eU,eV,eW): coeff}
    with denominators cleared."""
    delta = pi.term_signs or (1,) * len(surface.terms)
    if len(delta) != len(surface.terms):
        raise ValueError("term_signs length does not match the equation")
    poly = {}
    for (c, e), d in zip(surface.terms, delta):
        sign = c * d
        acc = [0, 0, 0]
        for var, exp in zip(surface.variables, e):
            if exp == 0:
                continue
            s, img = pi.image(var)
            if s < 0 and exp % 2:
                sign = -sign
            for i in range(3):
                acc[i] += img[i] * exp
        key = tuple(acc)
        poly[key] = poly.get(key, 0) + sign
    poly = {k: v for k, v in poly.items() if v}
    if not poly:
        return {}
    shift = [max(0, -min(k[i] for k in poly)) for i in range(3)]
    return {(k[0] + shift[0], k[1] + shift[1], k[2] + shift[2]): v
            for k, v in poly.items()}


def cover_remainder(surface, pi):
    """Remainder of the pulled-back equation modulo U^m + V^m + W^m + 1,
    with U as the distinguished (monic) variable. Empty dict means the map
    covers the surface."""
    m = pi.m
    layers = {}
    for (a, b, c), coef in _pullback(surface, pi).items():
        layers.setdefault(a, {})[(b, c)] = coef
    while layers:
        d = max(layers)
        if d < m:
            break
        lead = layers.pop(d)
        target = layers.setdefault(d - m, {})
        for (b, c), coef in lead.items():
            for db, dc in ((m, 0), (0, m), (0, 0)):
                key = (b + db, c + dc)
                val = target.get(key, 0) - coef
                if val:
                    target[key] = val
                else:
                    target.pop(key, None)
        if not target:
            layers.pop(d - m, None)
    return {(a, b, c): coef
            for a, layer in layers.items()
            for (b, c), coef in layer.items()}


def verify_cover(surface, pi):
    """True when the map's pullback of the equation vanishes on the Fermat
    surface of degree pi.m (exact division over the integers)."""
    return not cover_remainder(surface, pi)


def cover_invariant_characters(pi):
    """Characters the cover's deck group leaves invariant, as a set of
    (a0, a1, a2, a3) tuples with every coordinate in (0, m).

    The deck group is ker(N mod m) for the exponent matrix N whose rows are
    the images, and the triples it fixes are its annihilator: the row space
    of N mod m. N's Smith form U N V = D gives that group directly. The
    rows of U N = D V^-1 are d_j times the rows of the unimodular V^-1, so
    row j has order m / gcd(d_j, m) and the rows span a direct sum. Its
    order is the product of those orders. ValueError when that order
    exceeds INVARIANT_LIMIT, before any element is built.
    """
    from .intmat import mat_mul, smith_normal_form

    m = pi.m
    rows = [list(exps) for _var, _sign, exps in pi.images]
    d, u, _v = smith_normal_form(rows)
    orders = [m // gcd(dj, m) for dj in d]
    order = prod(orders)
    if order > INVARIANT_LIMIT:
        raise ValueError(f"the deck-invariant character group has order {order}, "
                         f"over the limit {INVARIANT_LIMIT}")
    triples = [(0, 0, 0)]
    for (g1, g2, g3), o in zip(mat_mul(u, rows), orders):
        triples = [((a1 + k * g1) % m, (a2 + k * g2) % m, (a3 + k * g3) % m)
                   for k in range(o) for a1, a2, a3 in triples]
    return {(-(a1 + a2 + a3) % m, a1, a2, a3)
            for a1, a2, a3 in triples if a1 and a2 and a3 and (a1 + a2 + a3) % m}


def transcendental_characters(surface, pi):
    """Deck-invariant characters that are not algebraic, the weight-1
    vector first and the rest by (a1, a2, a3). 22 minus the length is the
    Picard number. ValueError when pi does not cover the surface, and as
    cover_characters.
    """
    if not verify_cover(surface, pi):
        raise ValueError("map does not cover the surface")
    return cover_characters(pi)


def cover_characters(pi):
    """transcendental_characters of a map already checked to cover its
    surface; this runs no cover check.

    The invariant set is a group, so it is Galois-stable, and every orbit
    that is not algebraic holds a weight-one character (if u alpha has
    weight 3, -u alpha has weight 1). h^(2,0) = 1 means exactly one
    invariant character alpha has weight one (Shioda 1986), and the
    characters are then its Galois orbit {u alpha : u a unit mod m}, formed
    on exponent tuples: one pass over the invariant set and one over the
    units. ValueError when the weight-one count is not one (not a K3
    surface), or when cover_invariant_characters refuses the group's order.
    """
    m = pi.m
    ones = [a for a in cover_invariant_characters(pi) if sum(a) == m]
    if len(ones) != 1:
        raise ValueError(f"not a K3 surface: {len(ones)} invariant weight-one characters, "
                         "but h^(2,0) = 1 needs exactly one")
    alpha = ones[0]
    orbit = {tuple(u * x % m for x in alpha) for u in units_mod(m)}
    return [CharacterVector(m, a) for a in sorted(orbit, key=lambda a: (a != alpha,) + a[1:])]


def cover_exponents(surface):
    """(m, rows): the least Fermat degree that covers a four-monomial
    equation in three variables, and the map's exponent rows, one per
    variable.

    Subtracting a pivot term (the constant if present, else the first) from
    the other three exponent rows gives an integer matrix M; the map
    exponents are m * M^{-1} for the least m clearing denominators. With
    (d, d*M^{-1}) from fraction_inverse's integer elimination, that m is
    |d| over the gcd of d and every entry of d*M^{-1}.
    """
    from .intmat import fraction_inverse

    if len(surface.terms) != 4:
        raise ValueError(f"need exactly four monomials, got {len(surface.terms)}")
    if len(surface.variables) != 3:
        raise ValueError(f"need exactly three variables, got {len(surface.variables)}")
    if any(abs(c) != 1 for c, _e in surface.terms):
        raise ValueError("term coefficients must be +1 or -1")
    pivot = next((i for i, (_c, e) in enumerate(surface.terms) if not any(e)), 0)
    others = [i for i in range(4) if i != pivot]
    ep = surface.terms[pivot][1]
    mat = [[surface.terms[i][1][j] - ep[j] for j in range(3)] for i in others]
    try:
        d, scaled_inv = fraction_inverse(mat)
    except ValueError:
        raise ValueError("singular exponent matrix") from None
    m = abs(d) // gcd(d, *(x for row in scaled_inv for x in row))
    return m, [[x * m // d for x in row] for row in scaled_inv]


def derive_cover(surface):
    """Degree and covering map of a four-monomial equation in three
    variables.

    The degree and the exponents come from cover_exponents. Image signs are
    then searched so the four terms rescale to a common sign, falling back
    to a recorded sign variant of the equation when parity makes the
    literal equation unreachable (see module docstring).
    """
    m, n = cover_exponents(surface)
    best = None
    for idx, eps in enumerate(product((1, -1), repeat=3)):
        scaled = []
        for c, e in surface.terms:
            s = c
            for ej, epsj in zip(e, eps):
                if epsj < 0 and ej % 2:
                    s = -s
            scaled.append(s)
        for sigma in (1, -1):
            delta = tuple(s * sigma for s in scaled)
            flips = sum(1 for d in delta if d < 0)
            key = (flips, delta[0] < 0, idx, sigma < 0)
            if best is None or key < best[0]:
                best = (key, eps, delta)
    _key, eps, delta = best
    images = tuple(
        (var, eps[j], tuple(n[j])) for j, var in enumerate(surface.variables)
    )
    term_signs = delta if any(d < 0 for d in delta) else None
    pi = MonomialMap(m, images, term_signs)
    if not verify_cover(surface, pi):
        raise AssertionError("derived map failed cover verification")
    return m, pi


def action_on_form(surface, k, action):
    """Root-of-unity exponent by which a diagonal action multiplies the
    holomorphic two-form of the double cover.

    action maps each variable name to its exponent a (the variable scales
    by zeta_k^a). Every term of the equation must scale by a common
    factor, else ValueError. Returns (exponent mod k, primitivity flag).
    """
    for var in surface.variables:
        if var not in action:
            raise ValueError(f"action missing variable {var!r}")
    scales = {
        sum(ej * action[v] for ej, v in zip(e, surface.variables)) % k
        for _c, e in surface.terms
    }
    if len(scales) != 1:
        raise ValueError("action does not preserve the equation")
    # the double-cover variable appears in exactly one term, as a pure square
    squared = []
    for i, v in enumerate(surface.variables):
        carrying = [e for _c, e in surface.terms if e[i]]
        if len(carrying) == 1 and carrying[0][i] == 2 and sum(x != 0 for x in carrying[0]) == 1:
            squared.append(v)
    if len(squared) != 1:
        raise ValueError("no unique double-cover variable (pure square term)")
    yvar = squared[0]
    expo = (sum(action[v] for v in surface.variables if v != yvar) - action[yvar]) % k
    return expo, gcd(expo, k) == 1
