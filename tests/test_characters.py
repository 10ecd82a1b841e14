import pytest

from characters_reference import enumerate_A, galois_orbit, hodge_type, is_algebraic
from k3fermat.characters import CharacterVector, alpha_norm, units_mod


def brute_enumerate(m):
    out = set()
    for a0 in range(1, m):
        for a1 in range(1, m):
            for a2 in range(1, m):
                a3 = -(a0 + a1 + a2) % m
                if a3 != 0:
                    out.add((a0, a1, a2, a3))
    return out


def test_enumerate_matches_brute_force_and_closed_form():
    for m in range(2, 16):
        got = enumerate_A(m)
        assert {v.a for v in got} == brute_enumerate(m)
        assert len(got) == len(set(got))
        assert len(got) == ((m - 1) ** 4 + (m - 1)) // m


def test_enumerate_small_sizes():
    assert [v.a for v in enumerate_A(2)] == [(1, 1, 1, 1)]
    # m=3: triples over {1,2}^3 minus the two constant ones whose sum is 0 mod 3
    assert len(enumerate_A(3)) == 6
    assert len(enumerate_A(4)) == 21


def test_enumerate_order_is_lexicographic_on_tail():
    vs = enumerate_A(7)
    tails = [v.triple for v in vs]
    assert tails == sorted(tails)
    with pytest.raises(ValueError):
        enumerate_A(1)


def test_vector_validation():
    v = CharacterVector(4, (1, 1, 3, 3))
    assert v.a == (1, 1, 3, 3)
    # coordinates normalize mod m
    assert CharacterVector(4, (5, 1, 3, -1)).a == (1, 1, 3, 3)
    with pytest.raises(ValueError):
        CharacterVector(4, (0, 1, 1, 2))
    with pytest.raises(ValueError):
        CharacterVector(4, (1, 1, 1, 2))
    with pytest.raises(ValueError):
        CharacterVector(4, (1, 1, 1))
    with pytest.raises(ValueError):
        CharacterVector(1, (1, 1, 1, 1))


def test_from_triple_and_back():
    v = CharacterVector.from_triple(66, (6, 33, 22))
    assert v.a == (5, 6, 33, 22)
    assert v.triple == (6, 33, 22)
    with pytest.raises(ValueError):
        CharacterVector.from_triple(6, (1, 2, 3))  # a0 would vanish


def test_alpha_norm_examples():
    assert alpha_norm(CharacterVector(4, (1, 1, 1, 1))) == 1
    assert alpha_norm(CharacterVector(4, (3, 3, 3, 3))) == 3
    assert alpha_norm(CharacterVector(66, (5, 6, 33, 22))) == 1


def test_norm_pairing():
    # |alpha| + |-alpha| = 4 since representatives pair a <-> m - a
    for m in (4, 5, 12):
        for v in enumerate_A(m):
            assert alpha_norm(v) + alpha_norm(v.scaled(m - 1)) == 4


def test_is_algebraic_m4():
    assert is_algebraic(CharacterVector(4, (1, 1, 3, 3)))
    assert not is_algebraic(CharacterVector(4, (1, 1, 1, 1)))
    # units mod 4 are {1, 3} and 3 = -1, so algebraic <=> weight 2; the only
    # weight-1 and weight-3 vectors are the two constant ones
    assert sum(1 for v in enumerate_A(4) if is_algebraic(v)) == 19


def test_algebraic_set_is_unit_stable():
    for m in (5, 12):
        for v in enumerate_A(m):
            flag = is_algebraic(v)
            for u in units_mod(m):
                assert is_algebraic(v.scaled(u)) == flag


def test_galois_orbit():
    v2 = CharacterVector(2, (1, 1, 1, 1))
    assert galois_orbit(v2) == {v2}
    orbit = galois_orbit(CharacterVector(66, (5, 6, 33, 22)))
    assert len(orbit) == 20
    phi12 = len(units_mod(12))
    for v in enumerate_A(12):
        orbit = galois_orbit(v)
        assert phi12 % len(orbit) == 0
        assert v in orbit
    with pytest.raises(ValueError):
        CharacterVector(4, (1, 1, 3, 3)).scaled(2)


def test_hodge_type():
    assert hodge_type(CharacterVector(4, (1, 1, 1, 1))) == (0, 2)
    assert hodge_type(CharacterVector(4, (1, 1, 3, 3))) == (1, 1)
    assert hodge_type(CharacterVector(4, (3, 3, 3, 3))) == (2, 0)


def test_fermat_quartic_betti_count():
    # 1 + |A_4| matches the second Betti number 22 of a quartic surface
    assert 1 + len(enumerate_A(4)) == 22
