"""The immutable records keep their equality, hash, repr and validation."""

import inspect
import textwrap

import pytest

from characters_reference import DeckGroup, galois_orbit
from k3fermat import catalog
from k3fermat.catalog import CheckResult, VerificationReport, load_catalog
from k3fermat.characters import CharacterVector
from k3fermat.delsarte import MonomialMap, parse_surface
from k3fermat.jacobi_zeta import zeta_report
from k3fermat.lattice import SectionData


class TestCharacterVector:
    def test_equality_is_class_strict(self):
        a = CharacterVector(5, (1, 1, 1, 2))
        assert a == CharacterVector(5, (6, -4, 1, 2))
        assert a != CharacterVector(10, (2, 2, 2, 4))
        assert a != (5, (1, 1, 1, 2))

        class Sub(CharacterVector):
            __slots__ = ()

        assert a != Sub(5, (1, 1, 1, 2))

    def test_hash_is_the_field_tuple_hash(self):
        a = CharacterVector(5, (1, 1, 1, 2))
        assert hash(a) == hash((5, (1, 1, 1, 2)))
        assert len({a, CharacterVector(5, (6, 1, 1, 2))}) == 1
        assert len(galois_orbit(a)) == 4

    def test_immutable(self):
        a = CharacterVector(5, (1, 1, 1, 2))
        with pytest.raises(AttributeError):
            a.m = 7
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_repr(self):
        assert repr(CharacterVector(5, (6, 1, 1, 2))) == "CharacterVector(m=5, a=(1, 1, 1, 2))"

    @pytest.mark.parametrize("m, a, message", [
        (1, (1, 1, 1, 1), "degree must be at least 2"),
        (5, (1, 1, 3), "need four coordinates, got 3"),
        (5, (5, 1, 2, 2), "coordinates must be nonzero mod 5: (5, 1, 2, 2)"),
        (5, (1, 1, 1, 1), "coordinate sum must vanish mod 5: (1, 1, 1, 1)"),
    ])
    def test_validation(self, m, a, message):
        with pytest.raises(ValueError) as exc:
            CharacterVector(m, a)
        assert str(exc.value) == message


class TestSectionData:
    def test_equality_hash_and_normalized_contributions(self):
        s = SectionData(2, [["A", 3, 1], ("E7",)])
        assert s.contributions == (("A", 3, 1), ("E7",))
        assert s == SectionData(2, (("A", 3, 1), ("E7",)))
        assert s != SectionData(3, (("A", 3, 1), ("E7",)))
        assert s != (2, (("A", 3, 1), ("E7",)))
        assert hash(s) == hash((2, (("A", 3, 1), ("E7",))))

    def test_immutable(self):
        s = SectionData(0, ())
        with pytest.raises(AttributeError):
            s.pai = 1

    @pytest.mark.parametrize("pai, terms, message", [
        (-1, (), "(P.O) must be nonnegative"),
        (0, (("A", 3, 3),), "invalid component index in ('A', 3, 3)"),
        (0, (("D4",),), "unknown correction term ('D4',)"),
    ])
    def test_validation(self, pai, terms, message):
        with pytest.raises(ValueError) as exc:
            SectionData(pai, terms)
        assert str(exc.value) == message


def test_named_tuple_records_are_immutable():
    entry = load_catalog()[0]
    records = [
        entry, entry.cover, CheckResult("a", "pass", ""),
        VerificationReport(3, ()), DeckGroup(4, (), ()), parse_surface("x + y = 0"),
        catalog.catalog_entry(19).section, zeta_report(12, 13),
    ]
    for record in records:
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert MonomialMap(4, ()).term_signs is None


def test_catalog_entries_hash_and_compare_equal_across_loads():
    first, second = load_catalog(), load_catalog()
    assert first == second
    assert len(set(first)) == 16


def test_catalog_action_length_check():
    # build the catalog with the first entry's action cut to two exponents
    source = textwrap.dedent(inspect.getsource(catalog._build_catalog))
    assert source.count("xyt, (2, 3, 6),") >= 1
    broken = source.replace("xyt, (2, 3, 6),", "xyt, (2, 3),", 1)
    namespace = dict(vars(catalog))
    exec(compile(broken, catalog.__file__, "exec"), namespace)
    with pytest.raises(ValueError) as exc:
        namespace["_build_catalog"]()
    assert str(exc.value) == "one action exponent per coordinate required"
