"""The immutable records keep their equality, hash, repr and validation.

The seven package records (catalog, delsarte and jacobi_zeta) are plain
__slots__ classes; their repr, field order and keyword arguments are the
ones their earlier NamedTuple forms had, and their equality is class-strict."""

import inspect
import textwrap

import pytest

from characters_reference import DeckGroup, galois_orbit
from k3fermat import catalog
from k3fermat.catalog import (
    CheckResult,
    K3CatalogEntry,
    SectionRecord,
    VerificationReport,
    load_catalog,
)
from k3fermat.characters import CharacterVector
from k3fermat.delsarte import DelsarteSurface, MonomialMap, parse_surface
from k3fermat.jacobi_zeta import ZetaReport, zeta_report
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


# (class, field names, positional values, repr); every field is set, and the
# repr is the text the NamedTuple form of each record printed
RECORDS = [
    (SectionRecord,
     ("x_text", "y_text", "x_laurent", "y_laurent", "pai", "corrections"),
     ("1/t^6", "1/t^9", ((-6, 1, 0),), ((-9, 1, 0),), 3, (("A", 2, 1),)),
     "SectionRecord(x_text='1/t^6', y_text='1/t^9', x_laurent=((-6, 1, 0),), "
     "y_laurent=((-9, 1, 0),), pai=3, corrections=(('A', 2, 1),))"),
    (K3CatalogEntry,
     ("k", "m", "equation", "action_vars", "action", "s_gram", "t_gram", "fibers",
      "reducible_fibers", "section", "disc_s", "cover_equation", "cover",
      "expected_characters", "mirror_partner", "zeta_primes"),
     (12, 12, "y^2 = x^3 + t^7 + t^5", ("x", "y", "t"), (2, 3, 6), "S", "T",
      (("II", 2),), None, None, None, "y^2 = x^3 + t^7 + t^5",
      None, ((1, 2, 9),), (12,), (13, 37)),
     "K3CatalogEntry(k=12, m=12, equation='y^2 = x^3 + t^7 + t^5', "
     "action_vars=('x', 'y', 't'), action=(2, 3, 6), s_gram='S', t_gram='T', "
     "fibers=(('II', 2),), reducible_fibers=None, section=None, disc_s=None, "
     "cover_equation='y^2 = x^3 + t^7 + t^5', cover=None, "
     "expected_characters=((1, 2, 9),), mirror_partner=(12,), zeta_primes=(13, 37))"),
    (CheckResult, ("name", "status", "detail"), ("a", "pass", ""),
     "CheckResult(name='a', status='pass', detail='')"),
    (VerificationReport, ("k", "checks"), (3, (CheckResult("a", "pass", ""),)),
     "VerificationReport(k=3, checks=(CheckResult(name='a', status='pass', detail=''),))"),
    (DelsarteSurface, ("variables", "terms"), (("x", "y"), ((1, (1, 0)), (-1, (0, 2)))),
     "DelsarteSurface(variables=('x', 'y'), terms=((1, (1, 0)), (-1, (0, 2))))"),
    (MonomialMap, ("m", "images", "term_signs"), (4, (("x", 1, (1, 0, 0)),), (1, -1)),
     "MonomialMap(m=4, images=(('x', 1, (1, 0, 0)),), term_signs=(1, -1))"),
    (ZetaReport,
     ("k", "q", "m", "n_plus", "n_minus", "r_a", "r_t", "jacobi_values", "trace",
      "predicted_count", "notes"),
     (12, 13, 12, 20, 0, "R_a", "R_t", (), -2, 184, ("note",)),
     "ZetaReport(k=12, q=13, m=12, n_plus=20, n_minus=0, r_a='R_a', r_t='R_t', "
     "jacobi_values=(), trace=-2, predicted_count=184, notes=('note',))"),
]


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecordContract:
    def test_fields_repr_and_values(self, cls, fields, values, text):
        record = cls(*values)
        assert cls._fields == fields
        assert repr(record) == text
        assert tuple(getattr(record, name) for name in fields) == values

    def test_keyword_construction(self, cls, fields, values, text):
        assert cls(**dict(zip(fields, values))) == cls(*values)
        reordered = dict(reversed(list(zip(fields, values))))
        assert repr(cls(**reordered)) == text

    def test_equality_is_class_strict_and_reads_every_field(self, cls, fields, values, text):
        record = cls(*values)
        assert record == cls(*values)
        assert record != values
        assert values != record

        class Sub(cls):
            __slots__ = ()

        assert record != Sub(*values)
        for i in range(len(values)):
            changed = values[:i] + ("changed",) + values[i + 1:]
            assert record != cls(*changed)

    def test_hash_is_the_field_tuple_hash(self, cls, fields, values, text):
        assert hash(cls(*values)) == hash(values)
        assert len({cls(*values), cls(*values)}) == 1

    def test_immutable(self, cls, fields, values, text):
        record = cls(*values)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert repr(record) == text

    def test_missing_or_unknown_argument(self, cls, fields, values, text):
        with pytest.raises(TypeError):
            cls(values[0])
        with pytest.raises(TypeError):
            cls(*values, bogus=1)
        with pytest.raises(TypeError):
            cls(*values, None)


def test_monomial_map_has_no_term_signs_by_default():
    assert MonomialMap(4, ()).term_signs is None
    assert MonomialMap(4, ()) == MonomialMap(4, (), None)


def test_records_built_by_the_package_are_immutable():
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
