"""Point-counting tests.

The degenerate-fiber closed forms are checked against direct enumeration of
the component configurations (components as P^1's glued at branch points,
Frobenius acting on both); the Fermat counter against a brute projective
loop; the Tate classifier against hand-expanded families whose splitting
behavior is known in closed form.
"""

import random

import pytest

from k3fermat.cyclotomic import IntPoly
from k3fermat.field import QuadExtField, make_field
from k3fermat.pointcount import (
    KodairaFiber,
    WeierstrassModel,
    count_affine_double_sextic,
    count_elliptic_smooth,
    count_fermat,
    fiber_points,
    geometric_fibers,
    tate_fiber,
)

# classical (component count, Euler number) table, re-pinned here as data
PROFILES = {
    "I1": (1, 1), "I2": (2, 2), "I3": (3, 3), "I4": (4, 4), "I5": (5, 5),
    "I6": (6, 6), "I7": (7, 7),
    "II": (1, 2), "III": (2, 3), "IV": (3, 4),
    "I0*": (5, 6), "I1*": (6, 7), "I2*": (7, 8), "I3*": (8, 9),
    "IV*": (7, 8), "III*": (8, 9), "II*": (9, 10),
}


def make_fiber(kind, splitting):
    m, e = PROFILES[kind]
    return KodairaFiber(0, kind, splitting, m, e)


# ---------------------------------------------------------------------------
# configuration enumeration: the independent oracle for fiber_points

def config_points(comps, frob_comp, points, frob_branch, q):
    """Rational points of a union of P^1's glued along branch points.

    Every Frobenius-fixed component carries q+1 rational points of its
    normalization; branch points are removed there and re-added once per
    Frobenius-fixed gluing class.
    """
    total = 0
    for c in comps:
        if frob_comp[c] != c:
            continue
        branches = [br for pt in points for br in pt if br[0] == c]
        rational = sum(1 for br in branches if frob_branch[br] == br)
        total += q + 1 - rational
    for pt in points:
        if frozenset(frob_branch[br] for br in pt) == pt:
            total += 1
    return total


def cycle_config(n, split):
    """Type I_n: an n-cycle (n=1: one nodal component)."""
    comps = list(range(n))
    points = [frozenset({(j, "f"), ((j + 1) % n, "b")}) for j in range(n)]
    if split:
        frob_comp = {j: j for j in comps}
        frob_branch = {br: br for pt in points for br in pt}
    else:
        # Frobenius reflects the cycle through the identity component
        frob_comp = {j: -j % n for j in comps}
        frob_branch = {}
        for j in comps:
            frob_branch[(j, "f")] = (-j % n, "b")
            frob_branch[(j, "b")] = (-j % n, "f")
    return comps, frob_comp, points, frob_branch


def star_config(points_spec, comp_perm):
    """Trees and star shapes: one gluing point per edge."""
    comps = sorted({c for edge in points_spec for c in edge})
    perm = {c: comp_perm.get(c, c) for c in comps}
    points = []
    for i, edge in enumerate(points_spec):
        points.append(frozenset({(c, i) for c in edge}))
    frob_branch = {}
    edge_index = {frozenset(e): i for i, e in enumerate(points_spec)}
    for i, edge in enumerate(points_spec):
        image = frozenset(perm[c] for c in edge)
        j = edge_index[image]
        for c in edge:
            frob_branch[(c, i)] = (perm[c], j)
    return comps, perm, points, frob_branch


def configurations():
    out = []
    for n in range(1, 8):
        out.append((f"I{n}", "split", cycle_config(n, True)))
        out.append((f"I{n}", "nonsplit", cycle_config(n, False)))
    out.append(("II", "split", (["c"], {"c": "c"}, [], {})))  # one cuspidal component
    out.append(("III", "split", star_config([("a", "b")], {})))
    out.append(("IV", "split", star_config([("a", "b", "c")], {})))
    out.append(("IV", "nonsplit", star_config([("a", "b", "c")], {"b": "c", "c": "b"})))
    legs = [("z", "o"), ("z", "l1"), ("z", "l2"), ("z", "l3")]
    out.append(("I0*", "split", star_config(legs, {})))
    out.append(("I0*", "partial", star_config(legs, {"l2": "l3", "l3": "l2"})))
    out.append(("I0*", "inert", star_config(legs, {"l1": "l2", "l2": "l3", "l3": "l1"})))
    for n in range(1, 4):
        chain = [(f"c{i}", f"c{i+1}") for i in range(n)]
        edges = [("c0", "o"), ("c0", "near")] + chain + [(f"c{n}", "f1"), (f"c{n}", "f2")]
        out.append((f"I{n}*", "split", star_config(edges, {})))
        out.append((f"I{n}*", "nonsplit", star_config(edges, {"f1": "f2", "f2": "f1"})))
    arms = [("z", "a1"), ("a1", "a2"), ("z", "b1"), ("b1", "b2"), ("z", "o1"), ("o1", "o2")]
    out.append(("IV*", "split", star_config(arms, {})))
    out.append(("IV*", "nonsplit", star_config(arms, {"a1": "b1", "b1": "a1", "a2": "b2", "b2": "a2"})))
    e7 = [(i, i + 1) for i in range(1, 7)] + [(4, 8)]
    out.append(("III*", "split", star_config(e7, {})))
    e8 = [(i, i + 1) for i in range(1, 8)] + [(6, 9)]
    out.append(("II*", "split", star_config(e8, {})))
    return out


def test_fiber_closed_forms_match_configuration_enumeration():
    for kind, splitting, (comps, fc, pts, fb) in configurations():
        assert len(comps) == PROFILES[kind][0], kind
        for q in (5, 7):
            expected = config_points(comps, fc, pts, fb, q)
            got = fiber_points(make_fiber(kind, splitting), q)
            assert got == expected, (kind, splitting, q, got, expected)


def test_kodaira_profile_validation():
    with pytest.raises(ValueError):
        KodairaFiber(0, "IV", "split", 3, 5)
    with pytest.raises(ValueError):
        KodairaFiber(0, "I3", "split", 2, 3)
    f = KodairaFiber("inf", "I4*", "nonsplit", 9, 10)
    assert f.component_count == 9
    with pytest.raises(ValueError):
        KodairaFiber(0, "X9", None, 1, 0)


def test_smooth_fiber_rejected_by_fiber_points():
    with pytest.raises(ValueError):
        fiber_points(KodairaFiber(0, "I0", None, 1, 0), 5)


# ---------------------------------------------------------------------------
# Fermat counts

def brute_fermat(m, q):
    count = 0
    for x0 in range(q):
        for x1 in range(q):
            for x2 in range(q):
                for x3 in range(q):
                    if (x0, x1, x2, x3) == (0, 0, 0, 0):
                        continue
                    total = pow(x0, m, q) + pow(x1, m, q) + pow(x2, m, q) + pow(x3, m, q)
                    if total % q == 0:
                        count += 1
    assert count % (q - 1) == 0
    return count // (q - 1)


def test_fermat_plane():
    for q in (5, 7, 11):
        assert count_fermat(1, q) == q * q + q + 1


def test_fermat_quadric():
    assert count_fermat(2, 5) == 36
    assert count_fermat(2, 5) == brute_fermat(2, 5)


def test_fermat_matches_brute_enumeration():
    for m, q in [(2, 7), (3, 7), (4, 5), (3, 5), (6, 7)]:
        assert count_fermat(m, q) == brute_fermat(m, q), (m, q)


def test_fermat_rejects_bad_m():
    with pytest.raises(ValueError):
        count_fermat(0, 5)


# ---------------------------------------------------------------------------
# Weierstrass models

def test_model_degree_caps():
    with pytest.raises(ValueError):
        WeierstrassModel([0] * 9 + [1], [])
    with pytest.raises(ValueError):
        WeierstrassModel([], [0] * 13 + [1])


def test_model_rejects_identically_singular():
    # 4A^3 + 27B^2 = 0 for (A, B) = (-3, 2): the cubic has a double root
    with pytest.raises(ValueError):
        WeierstrassModel([-3], [2])
    with pytest.raises(ValueError):
        WeierstrassModel([], [])


def test_model_equality():
    assert WeierstrassModel([1], [1]) == WeierstrassModel(IntPoly([1]), IntPoly([1]))


# ---------------------------------------------------------------------------
# Tate classification

K19 = WeierstrassModel([0] * 7 + [1], [0, -1])          # y^2 = x^3 + t^7 x - t
K5 = WeierstrassModel([0, 0, 0, 1], [0] * 7 + [-1])     # y^2 = x^3 + t^3 x - t^7
K3 = WeierstrassModel([], [0, 0, 0, 0, 0, 1, -2, 1])    # y^2 = x^3 + t^5 (t-1)^2


def test_tate_rejects_small_characteristic():
    with pytest.raises(ValueError):
        tate_fiber(K19, 3, 0)
    with pytest.raises(ValueError):
        count_elliptic_smooth(K19, 2)


def test_tate_refuses_a_discriminant_that_vanishes_mod_p():
    # 4 * 2^3 + 27 * 2^2 = 140 = 0 mod 5 and mod 7; the second model has
    # A = B = 0 mod 5, and the third a double root of the cubic at t = 0
    # (the I_n* loop would never end)
    bad = [
        (WeierstrassModel([2], [2]), 5),
        (WeierstrassModel([2], [2]), 7),
        (WeierstrassModel([0, 5], [5]), 5),
        (WeierstrassModel([0, 0, 2], [0, 0, 0, 2]), 5),
    ]
    for model, p in bad:
        for t0 in (0, 1, "inf"):
            with pytest.raises(ValueError, match="vanishes identically mod"):
                tate_fiber(model, p, t0)
        with pytest.raises(ValueError, match="vanishes identically mod"):
            count_elliptic_smooth(model, p)
        with pytest.raises(ValueError, match="vanishes identically mod"):
            count_elliptic_smooth(model, QuadExtField(p))


def test_tate_k19_fibers():
    assert tate_fiber(K19, 13, 0).kind == "II"
    assert tate_fiber(K19, 13, "inf").kind == "III"


def test_tate_k5_fibers():
    assert tate_fiber(K5, 11, 0).kind == "III*"
    assert tate_fiber(K5, 11, "inf").kind == "II*"


def test_tate_k3_fibers():
    assert tate_fiber(K3, 7, 1).kind == "IV"
    assert tate_fiber(K3, 7, 0).kind == "II*"
    assert tate_fiber(K3, 7, "inf").kind == "II*"


def test_tate_good_fiber():
    fib = tate_fiber(K19, 13, 1)
    assert (fib.kind, fib.component_count, fib.euler_number) == ("I0", 1, 0)


def brute_weierstrass_fiber(a0, b0, q):
    count = 1  # the section at infinity
    for x in range(q):
        for y in range(q):
            if (y * y - (x * x * x + a0 * x + b0)) % q == 0:
                count += 1
    return count


def test_multiplicative_splitting_against_brute_count():
    # I1 and II fibers are irreducible, so the smooth-model fiber equals the
    # Weierstrass fiber and can be counted directly.
    node = WeierstrassModel([-3], [2, 1])
    cusp = WeierstrassModel([], [0, 1])
    for q in (5, 7, 11, 13):
        f1 = tate_fiber(node, q, 0)
        assert f1.kind == "I1"
        want = "split" if make_field(q).chi2(3) == 1 else "nonsplit"
        assert f1.splitting == want
        assert fiber_points(f1, q) == brute_weierstrass_fiber(-3, 2, q)
        f2 = tate_fiber(cusp, q, 0)
        assert f2.kind == "II"
        assert fiber_points(f2, q) == brute_weierstrass_fiber(0, 0, q)


def test_i0_star_root_patterns():
    # cubic T^3 + T: roots {0, ±i}; T^3 - T: roots {0, ±1}; T^3 + T + 1: no
    # rational root mod 5, one mod 13
    t3_plus_t = WeierstrassModel([0, 0, 1], [])
    t3_minus_t = WeierstrassModel([0, 0, -1], [])
    t3_t_1 = WeierstrassModel([0, 0, 1], [0, 0, 0, 1])
    assert tate_fiber(t3_plus_t, 5, 0).splitting == "split"      # -1 square mod 5
    assert tate_fiber(t3_plus_t, 7, 0).splitting == "partial"    # -1 nonsquare mod 7
    assert tate_fiber(t3_minus_t, 7, 0).splitting == "split"
    assert tate_fiber(t3_t_1, 5, 0).splitting == "inert"
    assert tate_fiber(t3_t_1, 13, 0).splitting == "partial"
    for mdl, q in [(t3_plus_t, 7), (t3_t_1, 5)]:
        fib = tate_fiber(mdl, q, 0)
        assert (fib.kind, fib.euler_number) == ("I0*", 6)


def in_star_family(c, extra=0):
    # y^2 = x^3 - 3t^2 x + 2t^3 + c t^4 + extra t^5; recentering at the double
    # root gives c0 = c*tau^4 + extra*tau^5, so the type is I1* when c != 0
    # (far split iff chi2(c)) and I2* when c = 0 (far split iff chi2(-12*extra))
    return WeierstrassModel([0, 0, -3], [0, 0, 0, 2, c, extra])


def test_i1_star_far_splitting():
    for q in (7, 11, 13):
        field = make_field(q)
        for c in range(1, q):
            fib = tate_fiber(in_star_family(c), q, 0)
            assert fib.kind == "I1*"
            assert fib.splitting == ("split" if field.chi2(c) == 1 else "nonsplit"), (q, c)
            # the same coefficient controls the IV fiber at infinity
            inf = tate_fiber(in_star_family(c), q, "inf")
            assert inf.kind == "IV"
            assert inf.splitting == fib.splitting


def test_i2_star_far_splitting():
    for q in (7, 11, 13):
        field = make_field(q)
        for e5 in range(1, q):
            fib = tate_fiber(in_star_family(0, e5), q, 0)
            assert fib.kind == "I2*"
            assert fib.splitting == ("split" if field.chi2(-12 * e5) == 1 else "nonsplit")


def test_in_star_far_splitting_beyond_n_2():
    # B = 2t^3 + r t^(n+3) recenters to c1 = 0, c0 = r tau^(n+3): far split
    # iff chi2(r) for odd n, iff chi2(-12 r) for even n (as for n = 1, 2)
    for q in (7, 11, 13):
        field = make_field(q)
        for n in range(3, 7):
            for r in range(1, q):
                fib = tate_fiber(WeierstrassModel([0, 0, -3], [0, 0, 0, 2] + [0] * (n - 1) + [r]), q, 0)
                assert fib.kind == f"I{n}*"
                split = field.chi2(r if n % 2 else -12 * r) == 1
                assert fib.splitting == ("split" if split else "nonsplit"), (q, n, r)
        # A = -3t^2 + c t^4, B = 2t^3 - c t^5 + d t^7 recenters to
        # c1 = c tau^4, c0 = d tau^7: I4*, far split iff chi2(c^2 - 12 d)
        for c in range(q):
            for d in range(q):
                if (c * c - 12 * d) % q == 0:
                    continue
                fib = tate_fiber(WeierstrassModel([0, 0, -3, 0, c], [0, 0, 0, 2, 0, -c, 0, d]), q, 0)
                assert fib.kind == "I4*"
                split = field.chi2(c * c - 12 * d) == 1
                assert fib.splitting == ("split" if split else "nonsplit"), (q, c, d)


def test_nonsplit_becomes_split_over_quadratic_extension():
    field = QuadExtField(13)
    assert tate_fiber(in_star_family(2), 13, 0).splitting == "nonsplit"
    assert tate_fiber(in_star_family(2), field, field.from_int(0)).splitting == "split"
    assert tate_fiber(in_star_family(1), field, field.from_int(0)).splitting == "split"


def test_delta_expansion_identities():
    # with e the tau*x^2 coefficient after recentering at the double root:
    # Delta_7 = -64 e^3 c0[4], and when c0[4] = 0,
    # Delta_8 = 16 e^2 (c1[3]^2 - 4 e c0[5])
    rng = random.Random(20260819)
    for _ in range(120):
        alpha = rng.randint(-5, 5) or 1
        p3, r4, r5 = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        p = IntPoly([0, 0, 0, p3, rng.randint(-9, 9)])
        r = IntPoly([0, 0, 0, 0, r4, r5])
        a = p - IntPoly([0, 0, 3 * alpha * alpha])
        b = r - IntPoly([0, alpha]) * a - IntPoly([0, 0, 0, alpha ** 3])
        delta = -16 * (4 * a * a * a + 27 * b * b)
        e = 3 * alpha
        assert delta.coeff(7) == -64 * e ** 3 * r4
        if r4 == 0:
            assert delta.coeff(8) == 16 * e * e * (p3 * p3 - 4 * e * r5)


def test_classifier_fuzz_never_misclassifies():
    # every random model must classify at every point without tripping the
    # internal consistency asserts (v(Delta) = e_v bookkeeping)
    rng = random.Random(99)
    for _ in range(40):
        a = IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(0, 5))])
        b = IntPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 7))])
        if not (4 * a * a * a + 27 * b * b):
            continue
        model = WeierstrassModel(a, b)
        for t0 in list(range(13)) + ["inf"]:
            fib = tate_fiber(model, 13, t0)
            if fib.kind != "I0":
                assert fiber_points(fib, 13) > 0


# ---------------------------------------------------------------------------
# smooth-model counting

def test_constant_model_counts_product_surface():
    # y^2 = x^3 + t^6 is E x P^1 for E: y^2 = x^3 + 1 after the minimality
    # reduction at 0 and at infinity
    model = WeierstrassModel([], [0] * 6 + [1])
    plain = WeierstrassModel([], [1])
    for q in (7, 13):
        e_count = brute_weierstrass_fiber(0, 1, q)
        assert count_elliptic_smooth(model, q) == (q + 1) * e_count
        assert count_elliptic_smooth(plain, q) == (q + 1) * e_count


def test_smooth_count_over_quadratic_extension():
    model = WeierstrassModel([], [1])
    field = QuadExtField(5)
    curve = 1 + sum(
        1 + field.chi2(x * x * x + 1)
        for x in field.elements()
    )
    assert count_elliptic_smooth(model, field) == (field.q + 1) * curve


def test_smooth_count_is_deterministic():
    model = WeierstrassModel([], [0, 0, 0, 0, 0, 1, 0, 1])  # y^2 = x^3 + t^7 + t^5
    assert count_elliptic_smooth(model, 13) == count_elliptic_smooth(model, 13)


# ---------------------------------------------------------------------------
# geometric fiber analysis

def test_geometric_fibers_k12_shape():
    model = WeierstrassModel([], [0, 0, 0, 0, 0, 1, 0, 1])
    rows = geometric_fibers(model)
    assert sum(r["degree"] * r["euler"] for r in rows) == 24
    by_kind = sorted((r["kind"], r["place"], r["degree"]) for r in rows)
    assert by_kind == [("II", "1 + t^2", 2), ("II*", "inf", 1), ("II*", "t", 1)]


def test_geometric_fibers_k3_shape():
    rows = geometric_fibers(K3)
    assert sum(r["degree"] * r["euler"] for r in rows) == 24
    kinds = sorted((r["kind"], r["place"]) for r in rows)
    assert kinds == [("II*", "inf"), ("II*", "t"), ("IV", "-1 + t")]


def test_geometric_fibers_rational_surface():
    rows = geometric_fibers(in_star_family(1))
    assert sum(r["degree"] * r["euler"] for r in rows) == 12
    assert sorted(r["kind"] for r in rows) == ["I1", "I1*", "IV"]


def test_geometric_fibers_constant_discriminant():
    assert geometric_fibers(WeierstrassModel([], [1])) == []
    assert geometric_fibers(WeierstrassModel([], [0] * 6 + [1])) == []


def test_geometric_fibers_multiplicative_run():
    # k=44 shape: y^2 = x^3 + x + t^11 has 22 nodal fibers and II at infinity
    model = WeierstrassModel([1], [0] * 11 + [1])
    rows = geometric_fibers(model)
    assert sum(r["degree"] * r["euler"] for r in rows) == 24
    mult = [r for r in rows if r["kind"] == "I1"]
    assert sum(r["degree"] for r in mult) == 22
    assert [r["kind"] for r in rows if r["place"] == "inf"] == ["II"]


# ---------------------------------------------------------------------------
# double sextics

def test_double_sextic_constants():
    assert count_affine_double_sextic({(0, 0): 1}, 5) == 50
    assert count_affine_double_sextic({(0, 0): 2}, 5) == 0  # 2 is a nonresidue mod 5
    with pytest.raises(ValueError):
        count_affine_double_sextic({(0, 0): 1}, 2)


def test_double_sextic_k25_fixture():
    f = {(5, 0): 1, (1, 5): 1, (0, 0): -1}
    brute = 0
    for u in range(11):
        for v in range(11):
            for y in range(11):
                if (y * y - (pow(u, 5, 11) + u * pow(v, 5, 11) - 1)) % 11 == 0:
                    brute += 1
    assert count_affine_double_sextic(f, 11) == brute == 110
