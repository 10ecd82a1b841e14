"""The immutable values keep their equality, hash, repr and validation.

characters.Record is the package's one immutable value base. The seven
plain records (catalog, delsarte and jacobi_zeta) keep the repr, field
order and keyword arguments their earlier NamedTuple forms had. The three
validating values (CharacterVector, GramLattice, FiniteQuadraticForm)
derive from it too. Every one compares class-strictly and hashes as its
field tuple, and no other class in the package defines __setattr__,
__eq__ or __hash__ unless ONE_OFF_VALUES says why.
"""

import ast
import inspect
import textwrap
from pathlib import Path

import pytest

from characters_reference import DeckGroup, galois_orbit
from k3fermat import catalog, lattice
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
from k3fermat.lattice import FiniteQuadraticForm, GramLattice, discriminant_form, height

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "k3fermat"


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
    """The section data (P.O) and corrections, as lattice.height reads them."""

    def test_list_terms_read_as_tuples(self):
        assert height(2, [["A", 3, 1], ["E7"]]) == height(2, (("A", 3, 1), ("E7",)))
        with pytest.raises(ValueError) as exc:
            height(0, [["A", 3, 3]])
        assert str(exc.value) == "invalid component index in ('A', 3, 3)"

    @pytest.mark.parametrize("pai, terms, message", [
        (-1, (), "(P.O) must be nonnegative"),
        (0, (("A", 3, 3),), "invalid component index in ('A', 3, 3)"),
        (0, (("D4",),), "unknown correction term ('D4',)"),
    ])
    def test_validation(self, pai, terms, message):
        with pytest.raises(ValueError) as exc:
            height(pai, terms)
        assert str(exc.value) == message


# (class, field names, positional values, repr); every field is set, and the
# repr is the text the NamedTuple form of each record printed
PLAIN_RECORDS = [
    (SectionRecord,
     ("x_text", "y_text", "x_laurent", "y_laurent", "pai", "corrections"),
     ("1/t^6", "1/t^9", ((-6, 1, 0),), ((-9, 1, 0),), 3, (("A", 2, 1),)),
     "SectionRecord(x_text='1/t^6', y_text='1/t^9', x_laurent=((-6, 1, 0),), "
     "y_laurent=((-9, 1, 0),), pai=3, corrections=(('A', 2, 1),))"),
    (K3CatalogEntry,
     ("k", "m", "equation", "action_vars", "action", "s_recipe", "t_recipe", "fibers",
      "reducible_fibers", "section", "disc_s", "cover_equation", "cover",
      "expected_characters", "mirror_partner", "zeta_primes"),
     (12, 12, "y^2 = x^3 + t^7 + t^5", ("x", "y", "t"), (2, 3, 6), "S", "T",
      (("II", 2),), None, None, None, "y^2 = x^3 + t^7 + t^5",
      None, ((1, 2, 9),), (12,), (13, 37)),
     "K3CatalogEntry(k=12, m=12, equation='y^2 = x^3 + t^7 + t^5', "
     "action_vars=('x', 'y', 't'), action=(2, 3, 6), s_recipe='S', t_recipe='T', "
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

# (class, field names, constructor arguments, field values, repr) for the
# values that validate and normalize their arguments; GramLattice and
# FiniteQuadraticForm print a summary, not their matrices
VALIDATED = [
    (CharacterVector, ("m", "a"), (5, [6, -4, 1, 2]), (5, (1, 1, 1, 2)),
     "CharacterVector(m=5, a=(1, 1, 1, 2))"),
    (GramLattice, ("gram", "rank", "signature", "determinant"), ([[2, 1], [1, 2]],),
     (((2, 1), (1, 2)), 2, (2, 0), 3), "GramLattice(rank=2, det=3, sig=(2, 0))"),
    (FiniteQuadraticForm, ("orders", "exponent", "matrix"), ([2, 4], [[9, 5], [5, 3]]),
     ((2, 4), 4, ((1, 1), (1, 3))), "FiniteQuadraticForm(orders=(2, 4), q=(1/4, 3/4))"),
]

RECORDS = [(cls, fields, values, values, text)
           for cls, fields, values, text in PLAIN_RECORDS] + VALIDATED


def with_fields(cls, values):
    """A cls instance holding values as they stand, past any validation."""
    record = object.__new__(cls)
    record._set(*values)
    return record


@pytest.mark.parametrize("cls, fields, args, values, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
class TestRecordContract:
    def test_fields_repr_and_values(self, cls, fields, args, values, text):
        record = cls(*args)
        assert cls._fields == fields
        assert repr(record) == text
        assert tuple(getattr(record, name) for name in fields) == values

    def test_keyword_construction(self, cls, fields, args, values, text):
        keywords = inspect.signature(cls).bind(*args).arguments
        assert cls(**keywords) == cls(*args)
        reordered = dict(reversed(list(keywords.items())))
        assert repr(cls(**reordered)) == text

    def test_equality_is_class_strict_and_reads_every_field(self, cls, fields, args, values,
                                                            text):
        record = cls(*args)
        assert record == cls(*args)
        assert record == with_fields(cls, values)
        assert record != values
        assert values != record

        class Sub(cls):
            __slots__ = ()

        assert record != Sub(*args)
        for i in range(len(values)):
            changed = values[:i] + ("changed",) + values[i + 1:]
            assert record != with_fields(cls, changed)

    def test_hash_is_the_field_tuple_hash(self, cls, fields, args, values, text):
        assert hash(cls(*args)) == hash(values)
        assert len({cls(*args), cls(*args)}) == 1

    def test_immutable(self, cls, fields, args, values, text):
        record = cls(*args)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert repr(record) == text

    def test_missing_or_unknown_argument(self, cls, fields, args, values, text):
        with pytest.raises(TypeError):
            cls(args[0]) if len(args) > 1 else cls()
        with pytest.raises(TypeError):
            cls(*args, bogus=1)
        with pytest.raises(TypeError):
            cls(*args, None)


def test_a_lattice_computes_its_discriminant_form_once(monkeypatch):
    calls = []
    original = lattice.smith_normal_form

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(lattice, "smith_normal_form", counted)
    lat = GramLattice([[2, 1], [1, 2]])
    form = discriminant_form(lat)
    assert discriminant_form(lat) is form
    assert len(calls) == 1
    assert form == FiniteQuadraticForm((3,), [[2]])
    # the kept form is no field: it enters neither equality nor the hash
    fresh = GramLattice([[2, 1], [1, 2]])
    assert lat == fresh and hash(lat) == hash(fresh)


# Classes besides Record that define their own equality, hash or
# assignment, each with the reason it does not derive from Record
ONE_OFF_VALUES = {
    ("cyclotomic", "CycInt"):
        "hot arithmetic type whose == also compares with a rational integer",
    ("cyclotomic", "IntPoly"):
        "hot arithmetic type whose == also compares with an integer constant",
    ("pointcount", "WeierstrassModel"):
        "pointcount imports nothing from characters, so the oracles stay "
        "independent of the Jacobi-sum side (test_oracles)",
    ("pointcount", "KodairaFiber"): "in pointcount, as WeierstrassModel",
}
VALUE_DUNDERS = {"__setattr__", "__eq__", "__hash__"}


def classes_defining_value_dunders():
    """[(module, class)] for every package class whose body defines or
    assigns __setattr__, __eq__ or __hash__."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(item.name)
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            if names & VALUE_DUNDERS:
                found.append((path.stem, node.name))
    return found


def test_only_record_and_the_listed_classes_define_equality_hash_or_assignment():
    assert sorted(classes_defining_value_dunders()) == sorted(
        [("characters", "Record")] + list(ONE_OFF_VALUES))


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
