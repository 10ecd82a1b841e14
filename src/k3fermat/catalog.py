"""Catalog of sixteen K3 surfaces with a purely non-symplectic automorphism.

Each entry fixes one surface of automorphism order k: its defining
equation over Q, the only statement of the surface (the Weierstrass model,
or the double sextic for k=25, is read off it), the diagonal coordinate
action of the automorphism, the Neron-Severi and transcendental lattices
as recipes of named and explicit Gram blocks, the geometric fiber profile
of the elliptic fibration, section data with height and Neron-Severi
discriminant where the Mordell-Weil rank is one, a Fermat covering map
together with the deck-invariant transcendental characters it produces,
the mirror partner under the U2 splitting of the transcendental lattice,
and the default primes for zeta cross-checks.

The six unimodular orders (66, 44, 42, 36, 28, 12) have transcendental
lattices of square determinant one and Fermat degree m = k; the ten
non-unimodular orders (19, 17, 13, 11, 7, 5, 27, 9, 3, 25) have
|det| > 1 and m = 2k, except that k=3 is a singular CM surface with no
four-monomial cover. verify_entry recomputes every derivable item from
the stored primitives and reports each comparison separately, never
aborting on the first failure.

Building the catalog parses no equation and builds no lattice: a model is
read off its equation, and a lattice assembled from its recipe, when it is
first read. So zeta and count, which read neither lattice, never import
the lattice and intmat modules.
"""

import gc
from functools import cache
from math import gcd, lcm

from . import delsarte
from .characters import CharacterVector, Record, alpha_norm, rational_text
from .cyclotomic import CycInt, IntPoly, totient
from .delsarte import (
    MonomialMap,
    action_on_form,
    cover_characters,
    cover_exponents,
    verify_cover,
)
from .jacobi_zeta import default_primes, zeta_report
from .pointcount import WeierstrassModel, count_elliptic_smooth, geometric_fibers

UNIMODULAR_ORDERS = (66, 44, 42, 36, 28, 12)
NON_UNIMODULAR_ORDERS = (19, 17, 13, 11, 7, 5, 27, 9, 3, 25)
ORDERS = UNIMODULAR_ORDERS + NON_UNIMODULAR_ORDERS

# Alternative order-11 fibration; its own cover analysis must again yield
# phi(11) = 10 transcendental characters, but no isomorphism with the
# catalog model is known.
K11_ALTERNATE_EQUATION = "y^2 = x^3 + x^2 + t^11"


class SectionRecord(Record):
    """A Mordell-Weil generator with the data entering its height.

    The coordinates are Laurent polynomials in t over the Gaussian
    integers, stored as ((power, real, imag), ...); x_text/y_text are the
    printable forms. pai is the intersection number with the zero
    section and corrections the local fiber terms that lattice.height
    reads, so height(P) = 4 + 2*pai - sum(corrections).
    """

    __slots__ = _fields = ("x_text", "y_text", "x_laurent", "y_laurent", "pai", "corrections")

    def __init__(self, x_text, y_text, x_laurent, y_laurent, pai, corrections):
        self._set(x_text, y_text, x_laurent, y_laurent, pai, corrections)

    def height(self):
        from .lattice import height

        return height(self.pai, self.corrections)


@cache
def read_surface(text):
    """DelsarteSurface of an equation text, parsed once per process.

    verify reads an entry's equation for its action, its model and, when it
    is also the cover equation, its cover checks. A DelsarteSurface is an
    immutable record, so every reader shares the one parse. The parse is
    looked up on the delsarte module at call time, so a wrapper installed
    there sees each parse that runs.
    """
    return delsarte.parse_surface(text)


@cache
def read_equation(text):
    """(model, sextic) of a defining equation; the one that does not apply is None.

    y^2 = x^3 + A(t)*x + B(t) gives a WeierstrassModel, and y^2 = f(u, v)
    gives f as ((i, j, coeff), ...) in the equation's term order. Anything
    else raises ValueError. Cached per text, so an entry reads its equation
    once, when a caller first reads the model, not when the catalog is built.
    """
    surface = read_surface(text)
    names, terms = surface.variables, surface.terms
    y2 = (-1, (2,) + (0,) * (len(names) - 1))
    if names[:1] != ("y",) or terms[:1] != (y2,) or any(e[0] for _c, e in terms[1:]):
        raise ValueError(f"{text!r} is not of the form y^2 = f")
    powers = [(c, dict(zip(names, e))) for c, e in terms[1:]]
    if set(names) == {"y", "x", "t"}:
        rhs = {(p["x"], p["t"]): c for c, p in powers}
        if rhs.pop((3, 0), None) != 1 or any(i > 1 for i, _j in rhs):
            raise ValueError(f"{text!r} is not y^2 = x^3 + A(t)*x + B(t)")
        top = max((j for _i, j in rhs), default=0)
        a, b = ([rhs.get((i, j), 0) for j in range(top + 1)] for i in (1, 0))
        return WeierstrassModel(a, b), None
    if set(names) <= {"y", "u", "v"}:
        return None, tuple((p.get("u", 0), p.get("v", 0), c) for c, p in powers)
    raise ValueError(f"{text!r} is neither y^2 = x^3 + A(t)*x + B(t) nor y^2 = f(u, v)")


class K3CatalogEntry(Record):
    __slots__ = _fields = (
        "k",
        "m",                    # Fermat cover degree; None for k=3
        "equation",             # defining model over Q, parseable text
        "action_vars",          # coordinate names the automorphism acts on
        "action",               # zeta_k exponent per coordinate
        "s_recipe",             # blocks of the Neron-Severi lattice; see s_gram
        "t_recipe",             # blocks of the transcendental lattice; see t_gram
        "fibers",               # sorted (kind, degree) over closed points; None for k=25
        "reducible_fibers",     # kinds entering the discriminant product, else None
        "section",              # SectionRecord; None when the Mordell-Weil rank is zero
        "disc_s",               # Neron-Severi discriminant, else None
        "cover_equation",       # four-monomial form covered by the Fermat surface;
                                # equation itself unless a substitution is needed
        "cover",                # MonomialMap; None for k=3
        "expected_characters",  # (a1, a2, a3) triples in fixed order; None for k=3
        "mirror_partner",       # tuple of partner orders, "family", or "none"
        "zeta_primes",
    )

    def __init__(self, k, m, equation, action_vars, action, s_recipe, t_recipe, fibers,
                 reducible_fibers, section, disc_s, cover_equation, cover,
                 expected_characters, mirror_partner, zeta_primes):
        self._set(k, m, equation, action_vars, action, s_recipe, t_recipe, fibers,
                  reducible_fibers, section, disc_s, cover_equation, cover,
                  expected_characters, mirror_partner, zeta_primes)

    @property
    def s_gram(self):
        """GramLattice of the Neron-Severi lattice, built on first read."""
        return recipe_lattice(self.s_recipe)

    @property
    def t_gram(self):
        """GramLattice of the transcendental lattice, built on first read."""
        return recipe_lattice(self.t_recipe)

    @property
    def lattice_class(self):
        """'unimodular' for the orders in UNIMODULAR_ORDERS, else 'non-unimodular'."""
        return "unimodular" if self.k in UNIMODULAR_ORDERS else "non-unimodular"

    @property
    def model(self):
        """WeierstrassModel read off equation; None for the k=25 double sextic."""
        return read_equation(self.equation)[0]

    @property
    def sextic(self):
        """((i, j, coeff), ...) of y^2 = f(u, v) read off equation, else None."""
        return read_equation(self.equation)[1]

    @property
    def elliptic(self):
        return self.model is not None

    @property
    def mw_height(self):
        """Height of the stored section as a (numerator, denominator) pair, else None."""
        return self.section.height() if self.section else None

    def cover_surface(self):
        """The four-monomial equation as a DelsarteSurface, or None."""
        if self.cover_equation is None:
            return None
        return read_surface(self.cover_equation)

    def sextic_coeffs(self):
        """Double sextic right-hand side as {(i, j): coeff}, or None."""
        if self.sextic is None:
            return None
        return {(i, j): c for i, j, c in self.sextic}


class CheckResult(Record):
    __slots__ = _fields = ("name", "status", "detail")  # status: "pass", "fail" or "skip"

    def __init__(self, name, status, detail):
        self._set(name, status, detail)


class VerificationReport(Record):
    __slots__ = _fields = ("k", "checks")

    def __init__(self, k, checks):
        self._set(k, checks)

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def as_dict(self):
        return {
            "k": self.k,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# lattices, built on first read

# The named blocks a lattice recipe may list, as standard_lattice arguments.
NAMED_BLOCKS = {"U2": ("U2",), "E8(-1)": ("E8", None, -1), "E6(-1)": ("E6", None, -1),
                "A2(-1)": ("A", 2, -1), "A6(-1)": ("A", 6, -1), "A10(-1)": ("A", 10, -1)}


@cache
def _block(item):
    """GramLattice of one recipe item: a name in NAMED_BLOCKS or a Gram
    matrix as a tuple of row tuples. Each distinct block is checked and
    eliminated once per process."""
    from .lattice import GramLattice, standard_lattice

    if isinstance(item, str):
        return standard_lattice(*NAMED_BLOCKS[item])
    return GramLattice(item)


@cache
def recipe_lattice(recipe):
    """The orthogonal sum of a recipe's blocks, a tuple of _block items.

    The catalog states each lattice as a recipe, so building it imports no
    lattice code and eliminates nothing; a lattice is assembled when an
    entry's s_gram or t_gram is first read, and then once per recipe, so
    the discriminant form kept on it is formed once too. _build_catalog
    starts a new cache, so each build reads lattices of its own.
    """
    from .lattice import direct_sum

    return direct_sum(*map(_block, recipe))


# ---------------------------------------------------------------------------
# fixture construction

def _cover(m, *images):
    return MonomialMap(m, tuple((v, s, tuple(e)) for v, s, e in images))


_SECTIONS = {
    19: SectionRecord("1/t^6", "1/t^9", ((-6, 1, 0),), ((-9, 1, 0),),
                      3, (("A", 2, 1),)),
    17: SectionRecord("0", "i*t", (), ((1, 0, 1),),
                      0, (("A", 2, 1), ("A", 3, 1))),
    13: SectionRecord("1/t^4", "1/t^6", ((-4, 1, 0),), ((-6, 1, 0),),
                      2, (("E7",),)),
    11: SectionRecord("0", "i*t", (), ((1, 0, 1),),
                      0, (("A", 3, 1), ("E7",))),
    7: SectionRecord("0", "i*t^4", (), ((4, 0, 1),),
                     0, (("E6",), ("E7",))),
    5: SectionRecord("t^4", "t^6", ((4, 1, 0),), ((6, 1, 0),),
                     0, (("E7",),)),
}


def _build_catalog():
    recipe_lattice.cache_clear()
    u2, e8m, e6m, a2m, a6m, a10m = "U2", "E8(-1)", "E6(-1)", "A2(-1)", "A6(-1)", "A10(-1)"
    m4 = ((-2, 0, 0, 1), (0, -2, 1, 1), (0, 1, -2, 0), (1, 1, 0, -4))

    rows = {}

    def add(k, m, equation, action_vars, action, s_recipe, t_recipe, fibers,
            cover, characters, mirror, reducible=None, disc_s=None,
            zeta_primes=None, cover_equation=None):
        if len(action_vars) != len(action):
            raise ValueError("one action exponent per coordinate required")
        rows[k] = K3CatalogEntry(
            k=k,
            m=m,
            equation=equation,
            action_vars=action_vars,
            action=action,
            s_recipe=s_recipe,
            t_recipe=t_recipe,
            fibers=fibers,
            reducible_fibers=reducible,
            section=_SECTIONS.get(k),
            disc_s=disc_s,
            cover_equation=cover_equation or (equation if cover else None),
            cover=cover,
            expected_characters=characters,
            mirror_partner=mirror,
            zeta_primes=zeta_primes or tuple(default_primes(m)),
        )

    xyt = ("x", "y", "t")

    add(66, 66, "y^2 = x^3 - t^12 - t",
        xyt, (2, 3, 6),
        (u2,), (u2, u2, e8m, e8m),
        (("II", 12),),
        _cover(66, ("y", 1, (0, 33, 0)), ("x", -1, (0, 0, 22)), ("s", 1, (6, 0, 0))),
        ((6, 33, 22), (6, 33, 44), (12, 33, 22), (12, 33, 44), (18, 33, 22),
         (18, 33, 44), (24, 33, 22), (24, 33, 44), (30, 33, 22), (30, 33, 44),
         (36, 33, 22), (36, 33, 44), (42, 33, 22), (42, 33, 44), (48, 33, 22),
         (48, 33, 44), (54, 33, 22), (54, 33, 44), (60, 33, 22), (60, 33, 44)),
        (12,), cover_equation="y^2 = x^3 - 1 - s^11")

    add(44, 44, "y^2 = x^3 + x + t^11",
        xyt, (22, 11, 2),
        (u2,), (u2, u2, e8m, e8m),
        (("I1", 22), ("II", 1)),
        _cover(44, ("y", 1, (11, 22, 0)), ("x", -1, (22, 0, 0)), ("t", -1, (2, 0, 4))),
        ((1, 22, 24), (3, 22, 28), (5, 22, 32), (7, 22, 36), (9, 22, 40),
         (13, 22, 4), (15, 22, 8), (17, 22, 12), (19, 22, 16), (21, 22, 20),
         (23, 22, 24), (25, 22, 28), (27, 22, 32), (29, 22, 36), (31, 22, 40),
         (35, 22, 4), (37, 22, 8), (39, 22, 12), (41, 22, 16), (43, 22, 20)),
        (12,))

    add(42, 42, "y^2 = x^3 - t^12 - t^5",
        xyt, (2, 3, 18),
        (u2, e8m), (u2, u2, e8m),
        (("II", 7), ("II*", 1)),
        _cover(42, ("y", 1, (0, 21, 0)), ("x", -1, (0, 0, 14)), ("s", 1, (6, 0, 0))),
        ((6, 21, 14), (6, 21, 28), (12, 21, 14), (12, 21, 28), (18, 21, 14),
         (18, 21, 28), (24, 21, 14), (24, 21, 28), (30, 21, 14), (30, 21, 28),
         (36, 21, 14), (36, 21, 28)),
        (28, 36, 42), cover_equation="y^2 = x^3 - 1 - s^7")

    add(36, 36, "y^2 = x^3 - t^11 - t^5",
        xyt, (2, 3, 30),
        (u2, e8m), (u2, u2, e8m),
        (("II", 1), ("II", 6), ("II*", 1)),
        _cover(36, ("y", 1, (15, 18, 0)), ("x", -1, (10, 0, 12)), ("t", 1, (6, 0, 0))),
        ((1, 18, 12), (5, 18, 24), (7, 18, 12), (11, 18, 24), (13, 18, 12),
         (17, 18, 24), (19, 18, 12), (23, 18, 24), (25, 18, 12), (29, 18, 24),
         (31, 18, 12), (35, 18, 24)),
        (28, 36, 42))

    add(28, 28, "y^2 = x^3 + x + t^7",
        xyt, (14, 7, 2),
        (u2, e8m), (u2, u2, e8m),
        (("I1", 14), ("II*", 1)),
        _cover(28, ("y", 1, (7, 14, 0)), ("x", -1, (14, 0, 0)), ("t", -1, (2, 0, 4))),
        ((1, 14, 16), (3, 14, 20), (5, 14, 24), (9, 14, 4), (11, 14, 8),
         (13, 14, 12), (15, 14, 16), (17, 14, 20), (19, 14, 24), (23, 14, 4),
         (25, 14, 8), (27, 14, 12)),
        (28, 36, 42))

    add(12, 12, "y^2 = x^3 + t^7 + t^5",
        xyt, (2, 3, 6),
        (u2, e8m, e8m), (u2, u2),
        (("II", 2), ("II*", 1), ("II*", 1)),
        _cover(12, ("y", 1, (15, 6, 0)), ("x", -1, (10, 0, 4)), ("t", -1, (6, 0, 0))),
        ((1, 6, 4), (5, 6, 8), (7, 6, 4), (11, 6, 8)),
        (44, 66))

    add(19, 38, "y^2 = x^3 + t^7*x - t",
        xyt, (7, 1, 2),
        (u2, ((-2, 1), (1, -10))), (e8m, e8m, ((2, 1), (1, 10))),
        (("I1", 19), ("II", 1), ("III", 1)),
        _cover(38, ("y", 1, (19, -1, 3)), ("x", -1, (0, 12, 2)), ("t", 1, (0, -2, 6))),
        ((19, 1, 35), (19, 3, 29), (19, 5, 23), (19, 7, 17), (19, 9, 11),
         (19, 11, 5), (19, 13, 37), (19, 15, 31), (19, 17, 25), (19, 21, 13),
         (19, 23, 7), (19, 25, 1), (19, 27, 33), (19, 29, 27), (19, 31, 21),
         (19, 33, 15), (19, 35, 9), (19, 37, 3)),
        "family", reducible=("III",), disc_s=-19)

    add(17, 34, "y^2 = x^3 + t^7*x - t^2",
        xyt, (7, 2, 2),
        (u2, m4), (u2, u2, e8m, m4),
        (("I1", 17), ("III", 1), ("IV", 1)),
        _cover(34, ("y", 1, (17, -2, 6)), ("x", -1, (0, 10, 4)), ("t", 1, (0, -2, 6))),
        ((17, 2, 28), (17, 4, 22), (17, 6, 16), (17, 8, 10), (17, 10, 4),
         (17, 12, 32), (17, 14, 26), (17, 16, 20), (17, 18, 14), (17, 20, 8),
         (17, 22, 2), (17, 24, 30), (17, 26, 24), (17, 28, 18), (17, 30, 12),
         (17, 32, 6)),
        "family", reducible=("IV", "III"), disc_s=-17)

    add(13, 26, "y^2 = x^3 + t^5*x - t",
        xyt, (5, 1, 2),
        (e8m, ((-2, 5), (5, -6))), (u2, e8m, ((-2, 5), (5, -6))),
        (("I1", 13), ("II", 1), ("III*", 1)),
        _cover(26, ("y", 1, (13, -1, 3)), ("x", -1, (0, 8, 2)), ("t", 1, (0, -2, 6))),
        ((13, 1, 23), (13, 3, 17), (13, 5, 11), (13, 7, 5), (13, 9, 25),
         (13, 11, 19), (13, 15, 7), (13, 17, 1), (13, 19, 21), (13, 21, 15),
         (13, 23, 9), (13, 25, 3)),
        (13,), reducible=("III*",), disc_s=-13)

    add(11, 22, "y^2 = x^3 + t^5*x - t^2",
        xyt, (5, 2, 2),
        (u2, a10m), (e8m, ((2, 1), (1, 6))),
        (("I1", 11), ("III*", 1), ("IV", 1)),
        _cover(22, ("y", 1, (11, -2, 6)), ("x", -1, (0, 6, 4)), ("t", 1, (0, -2, 6))),
        ((11, 2, 16), (11, 4, 10), (11, 6, 4), (11, 8, 20), (11, 10, 14),
         (11, 12, 8), (11, 14, 2), (11, 16, 18), (11, 18, 12), (11, 20, 6)),
        "family", reducible=("IV", "III*"), disc_s=-11)

    add(7, 14, "y^2 = x^3 + t^3*x - t^8",
        xyt, (3, 1, 2),
        (u2, e8m, a6m), (u2, u2, ((-2, 1), (1, -4))),
        (("I1", 7), ("III*", 1), ("IV*", 1)),
        _cover(14, ("y", 1, (7, 8, -24)), ("x", -1, (0, 10, -16)), ("t", 1, (0, 2, -6))),
        ((7, 2, 8), (7, 4, 2), (7, 6, 10), (7, 8, 4), (7, 10, 12), (7, 12, 6)),
        "family", reducible=("IV*", "III*"), disc_s=-7)

    add(5, 10, "y^2 = x^3 + t^3*x - t^7",
        xyt, (3, 2, 2),
        (e8m, e8m, ((-2, 3), (3, -2))), (u2, ((-2, 3), (3, -2))),
        (("I1", 5), ("II*", 1), ("III*", 1)),
        _cover(10, ("y", 1, (5, 7, -21)), ("x", -1, (0, 8, -14)), ("t", 1, (0, 2, -6))),
        ((5, 1, 7), (5, 3, 1), (5, 7, 9), (5, 9, 3)),
        (25,), reducible=("III*", "II*"), disc_s=-5)

    add(27, 54, "y^2 = x^3 - t^10 - t",
        xyt, (2, 3, 6),
        (u2, a2m), (u2, u2, e6m, e8m),
        (("II", 10), ("IV", 1)),
        _cover(54, ("y", 1, (3, 0, 27)), ("x", -1, (2, 18, 0)), ("t", 1, (6, 0, 0))),
        ((1, 36, 27), (5, 18, 27), (7, 36, 27), (11, 18, 27), (13, 36, 27),
         (17, 18, 27), (19, 36, 27), (23, 18, 27), (25, 36, 27), (29, 18, 27),
         (31, 36, 27), (35, 18, 27), (37, 36, 27), (41, 18, 27), (43, 36, 27),
         (47, 18, 27), (49, 36, 27), (53, 18, 27)),
        (9,), reducible=("IV",), disc_s=-3)

    add(9, 18, "y^2 = x^3 - t^8 - t^5",
        xyt, (2, 3, 3),
        (u2, e6m, e8m), (u2, u2, a2m),
        (("II", 3), ("II*", 1), ("IV*", 1)),
        _cover(18, ("y", 1, (15, 0, 9)), ("x", -1, (10, 6, 0)), ("t", 1, (6, 0, 0))),
        ((1, 6, 9), (5, 12, 9), (7, 6, 9), (11, 12, 9), (13, 6, 9),
         (17, 12, 9)),
        (27,), reducible=("IV*", "II*"), disc_s=-3)

    add(3, None, "y^2 = x^3 + t^7 - 2*t^6 + t^5",
        xyt, (1, 0, 0),
        (u2, a2m, e8m, e8m), (((2, 1), (1, 2)),),
        (("II*", 1), ("II*", 1), ("IV", 1)),
        None, None,
        "none", reducible=("IV", "II*", "II*"), disc_s=-3,
        zeta_primes=(5, 7, 11, 13))

    add(25, 50, "y^2 = u^5 + u*v^5 - 1",
        ("u", "v", "y"), (20, 1, 0),
        (((-2, 3), (3, -2)),), (u2, e8m, e8m, ((-2, 3), (3, -2))),
        None,
        _cover(50, ("y", 1, (25, 0, 0)), ("u", -1, (0, 10, 0)), ("v", 1, (0, -2, 10))),
        ((25, 2, 40), (25, 4, 30), (25, 6, 20), (25, 8, 10), (25, 12, 40),
         (25, 14, 30), (25, 16, 20), (25, 18, 10), (25, 22, 40), (25, 24, 30),
         (25, 26, 20), (25, 28, 10), (25, 32, 40), (25, 34, 30), (25, 36, 20),
         (25, 38, 10), (25, 42, 40), (25, 44, 30), (25, 46, 20), (25, 48, 10)),
        (5,))

    return tuple(rows[k] for k in ORDERS)


_CATALOG = None


def load_catalog():
    """The sixteen entries, unimodular orders first; built once, immutable."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
        # The catalog and the imported modules live as long as the process:
        # move them out of the collector's generations so a later gen-1 or
        # full pass does not traverse the set-up heap again.
        gc.freeze()
    return list(_CATALOG)


def catalog_entry(k):
    for entry in load_catalog():
        if entry.k == k:
            return entry
    raise ValueError(f"no catalog entry of order {k}")


def transcendental_row(k):
    """Catalog characters of order k with the unique weight-one vector first.

    The stored rows keep their fixed printing order, which starts with the
    weight-one character only for k in {66, 42, 36, 12, 9}; this accessor
    normalizes the order for consumers that need the distinguished vector,
    such as the transcendental zeta factor. Each row is built once per
    process and returned as a new list.
    """
    return list(_transcendental_row(k))


@cache
def _transcendental_row(k):
    entry = catalog_entry(k)
    if entry.expected_characters is None:
        raise ValueError("order 3 has no Fermat cover")
    chars = [CharacterVector.from_triple(entry.m, t) for t in entry.expected_characters]
    ones = [c for c in chars if alpha_norm(c) == 1]
    if len(ones) != 1:
        raise AssertionError(f"expected one weight-one character, found {len(ones)}")
    one = ones[0].a
    return tuple(ones + [c for c in chars if c.a != one])


# ---------------------------------------------------------------------------
# section verification over the Gaussian integers Z[i] = Z[zeta_4]

def section_satisfies(model, section):
    """y^2 - x^3 - A x - B vanishes identically in Z[i][t, 1/t].

    With s large enough to clear the t-denominators of x and y, the check
    runs on polynomials: (y t^3s)^2 = (x t^2s)^3 + (A t^4s)(x t^2s) + B t^6s.
    """
    s = max([0] + [-(e // 2) for e, *_ in section.x_laurent]
            + [-(e // 3) for e, *_ in section.y_laurent])

    def gaussian(terms, shift):
        coeffs = [0] * (shift + 1 + max((e for e, *_ in terms), default=-1))
        for e, re, im in terms:
            coeffs[e + shift] = CycInt(4, (re, im))
        return IntPoly(coeffs)

    def shifted(poly, shift):
        return IntPoly((0,) * shift + poly.coeffs)

    x = gaussian(section.x_laurent, 2 * s)
    y = gaussian(section.y_laurent, 3 * s)
    return y * y - x * x * x - shifted(model.a, 4 * s) * x - shifted(model.b, 6 * s) == 0


# ---------------------------------------------------------------------------
# verification

def verify_entry(entry, primes=None):
    """Recompute every derivable item of one entry and itemize the outcome.

    Each check lands in the report as pass, fail, or skip; a thrown
    exception is captured as a failure and later checks still run. primes
    overrides the stored zeta primes.
    """
    from .lattice import disc_from_height, discriminant_form, mirror_split, nikulin_complement_check

    checks = []

    def run(name, fn):
        try:
            detail = fn()
        except Exception as exc:
            checks.append(CheckResult(name, "fail", f"{type(exc).__name__}: {exc}"))
            return
        if isinstance(detail, tuple) and detail and detail[0] == "skip":
            checks.append(CheckResult(name, "skip", detail[1]))
        else:
            checks.append(CheckResult(name, "pass", detail or ""))

    def skip(name, why):
        checks.append(CheckResult(name, "skip", why))

    k = entry.k
    phi = totient(k)

    def chk_action():
        surface = read_surface(entry.equation)
        act = dict(zip(entry.action_vars, entry.action))
        expo, primitive = action_on_form(surface, k, act)
        if not primitive:
            raise AssertionError(f"two-form weight {expo} is not a unit mod {k}")
        order = 1
        for a in entry.action:
            order = lcm(order, k // gcd(a, k))
        if order != k:
            raise AssertionError(f"action has order {order}, expected {k}")
        return f"order {k} action, two-form weight {expo}"

    run("action", chk_action)

    if entry.cover is None:
        skip("cover", "no four-monomial cover at order 3")
        skip("characters", "no four-monomial cover at order 3")
    else:
        # the stored map is checked once, here, and the characters are
        # read off it only when that check passed
        covers = False

        def chk_cover():
            nonlocal covers
            surface = entry.cover_surface()
            covers = verify_cover(surface, entry.cover)
            if not covers:
                raise AssertionError("pullback does not vanish on the Fermat surface")
            if entry.cover.m != entry.m:
                raise AssertionError(f"map degree {entry.cover.m} != {entry.m}")
            least_m, _rows = cover_exponents(surface)
            if least_m != entry.m:
                raise AssertionError(f"derived degree {least_m} != {entry.m}")
            return f"Fermat degree {entry.m} covers {entry.cover_equation}"

        def chk_characters():
            if not covers:
                raise AssertionError("the stored map does not cover the equation")
            found = cover_characters(entry.cover)
            m = entry.m
            # the stored triples as reduced exponent tuples (a0, a1, a2, a3)
            expected = {(-sum(t) % m, *(x % m for x in t)) for t in entry.expected_characters}
            if len(found) != phi:
                raise AssertionError(f"{len(found)} characters, expected phi(k) = {phi}")
            if {c.a for c in found} != expected:
                raise AssertionError("invariant characters differ from the stored row")
            return f"{phi} invariant transcendental characters"

        run("cover", chk_cover)
        run("characters", chk_characters)

    def chk_lattice():
        s, t = entry.s_gram, entry.t_gram
        if (t.rank, s.rank) != (phi, 22 - phi):
            raise AssertionError(f"ranks ({s.rank}, {t.rank}) != ({22 - phi}, {phi})")
        if t.signature != (2, phi - 2):
            raise AssertionError(f"T signature {t.signature}")
        if s.signature != (1, 21 - phi):
            raise AssertionError(f"S signature {s.signature}")
        if entry.lattice_class == "unimodular":
            if abs(s.determinant) != 1 or abs(t.determinant) != 1:
                raise AssertionError("unimodular entry with |det| != 1")
        elif abs(s.determinant) != abs(t.determinant) or abs(t.determinant) == 1:
            raise AssertionError(
                f"|det S| = {abs(s.determinant)}, |det T| = {abs(t.determinant)}")
        if not nikulin_complement_check(s, t):
            raise AssertionError("discriminant forms are not opposite")
        return f"det S = {s.determinant}, det T = {t.determinant}, forms opposite"

    run("lattice", chk_lattice)

    if entry.disc_s is None:
        why = ("unimodular Neron-Severi lattice" if entry.lattice_class == "unimodular"
               else "no elliptic fibration")
        skip("height-disc", why)
    else:
        def chk_height_disc():
            h = entry.mw_height if entry.mw_height is not None else (1, 1)
            if entry.section is not None:
                if not section_satisfies(entry.model, entry.section):
                    raise AssertionError("section does not satisfy the equation")
                q = discriminant_form(entry.s_gram)
                if q.orders != (k,):
                    raise AssertionError(f"discriminant group {q.orders} != Z/{k}")
                # q(c g) = v/k and -1/h = -den/num agree in Q/2Z iff
                # v num + den k is a multiple of 2 k num
                num, den = h
                if not any((q.value((c,)) * num + den * k) % (2 * k * num) == 0
                           for c in range(1, k)):
                    raise AssertionError("discriminant form misses -1/height")
            if disc_from_height(h, entry.reducible_fibers) != entry.disc_s:
                raise AssertionError("height and fibers do not reproduce the discriminant")
            if entry.s_gram.determinant != entry.disc_s:
                raise AssertionError(
                    f"det S = {entry.s_gram.determinant} != {entry.disc_s}")
            return f"height {rational_text(h)}, discriminant {entry.disc_s}"

        run("height-disc", chk_height_disc)

    if entry.model is None:
        skip("fibers", "no elliptic fibration")
    else:
        def chk_fibers():
            rows = geometric_fibers(entry.model)
            got = tuple(sorted((r["kind"], r["degree"]) for r in rows))
            if got != entry.fibers:
                raise AssertionError(f"fiber profile {got} != {entry.fibers}")
            total = sum(r["degree"] * r["euler"] for r in rows)
            if total != 24:
                raise AssertionError(f"Euler numbers sum to {total}")
            return "fiber profile matches, Euler numbers sum to 24"

        run("fibers", chk_fibers)

    def chk_mirror():
        result = mirror_split(entry.t_gram)
        partner = entry.mirror_partner
        if partner == "none":
            if result != "none":
                raise AssertionError("unexpected hyperbolic splitting")
            return "transcendental lattice definite, no mirror"
        if result == "none":
            raise AssertionError("no hyperbolic splitting found")
        if partner == "family":
            if result.signature != (1, result.rank - 1):
                raise AssertionError(f"complement signature {result.signature}")
            if result.determinant != -abs(entry.t_gram.determinant):
                raise AssertionError(f"complement determinant {result.determinant}")
            return (f"mirror family with Picard rank {result.rank}, "
                    f"det {result.determinant}")
        if not any(result.gram == catalog_entry(kp).s_gram.gram for kp in partner):
            raise AssertionError("complement matches no partner Neron-Severi lattice")
        names = ", ".join(str(kp) for kp in partner)
        return f"complement matches order {names}"

    run("mirror", chk_mirror)

    for q in primes or entry.zeta_primes:
        name = f"zeta-q{q}"
        if not entry.elliptic:
            def chk_sextic(p=q):
                report = zeta_report(k, p)
                return ("skip",
                        f"q={p}: factors computed (trace {report.trace}); "
                        "smooth count out of scope")

            run(name, chk_sextic)
        else:
            def chk_zeta(p=q):
                report = zeta_report(k, p)
                n = count_elliptic_smooth(entry.model, p)
                if n != report.predicted_count:
                    raise AssertionError(
                        f"{n} points, zeta predicts {report.predicted_count}")
                if k == 3:
                    return f"q={p}: {n} points match CM trace {report.trace}"
                return (f"q={p}: {n} points match (n+, n-) = "
                        f"({report.n_plus}, {report.n_minus}), trace {report.trace}")

            run(name, chk_zeta)

    return VerificationReport(k, tuple(checks))


# ---------------------------------------------------------------------------
# JSON export

def entry_as_dict(entry):
    """One JSON-ready object per entry; exact integers and "num/den" strings."""
    doc = {
        "k": entry.k,
        "class": entry.lattice_class,
        "m": entry.m,
        "elliptic": entry.elliptic,
        "equation": entry.equation,
    }
    if entry.model is not None:
        doc["weierstrass"] = {
            "a": entry.model.a.format("t"),
            "b": entry.model.b.format("t"),
        }
    else:
        doc["weierstrass"] = None
    doc["sextic"] = [list(t) for t in entry.sextic] if entry.sextic else None
    doc["action"] = {
        "variables": list(entry.action_vars),
        "exponents": list(entry.action),
    }
    doc["s_gram"] = entry.s_gram.rows()
    doc["t_gram"] = entry.t_gram.rows()
    doc["fibers"] = [[kind, deg] for kind, deg in entry.fibers] if entry.fibers else None
    doc["reducible_fibers"] = list(entry.reducible_fibers) if entry.reducible_fibers else None
    if entry.section is not None:
        doc["section"] = {
            "x": entry.section.x_text,
            "y": entry.section.y_text,
            "pai": entry.section.pai,
            "corrections": [list(c) for c in entry.section.corrections],
        }
        doc["height"] = rational_text(entry.mw_height)
    else:
        doc["section"] = None
        doc["height"] = None
    doc["disc_s"] = entry.disc_s
    if entry.cover is not None:
        doc["cover"] = {
            "m": entry.cover.m,
            "equation": entry.cover_equation,
            "images": [
                {"variable": v, "sign": s, "exponents": list(e)}
                for v, s, e in entry.cover.images
            ],
        }
    else:
        doc["cover"] = None
    doc["characters"] = (
        [list(t) for t in entry.expected_characters]
        if entry.expected_characters else None
    )
    doc["mirror_partner"] = (
        list(entry.mirror_partner)
        if isinstance(entry.mirror_partner, tuple) else entry.mirror_partner
    )
    doc["zeta_primes"] = list(entry.zeta_primes)
    return doc


def catalog_as_dicts():
    return [entry_as_dict(entry) for entry in load_catalog()]
