"""CLI contract: exit codes, report text, JSON stability."""

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import k3fermat.cli as cli
from k3fermat import delsarte
from k3fermat.cli import _build_parser, _read_argv, cmd_count, cmd_verify, main
from k3fermat.cyclotomic import JACOBI_WORK_LIMIT, jacobi_work
from k3fermat.field import PrimeField


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    return code, json.loads(out), out


def _assert_no_floats(obj):
    if isinstance(obj, float):
        raise AssertionError(f"float leaked into JSON: {obj}")
    if isinstance(obj, dict):
        for key, value in obj.items():
            assert isinstance(key, str)
            _assert_no_floats(value)
    elif isinstance(obj, list):
        for value in obj:
            _assert_no_floats(value)


class TestCatalogCommand:
    def test_listing_has_all_sixteen_rows(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 17  # header + 16 entries
        assert lines[1].split()[0] == "66"

    def test_single_entry(self, capsys):
        code, out, _ = run(capsys, "catalog", "--k", "19")
        assert code == 0
        assert "y^2 = x^3 + t^7*x - t" in out
        assert "height 19/2" in out

    def test_unknown_order_exits_2(self, capsys):
        code, _, err = run(capsys, "catalog", "--k", "8")
        assert code == 2
        assert "no catalog entry of order 8" in err

    def test_json_catalog_is_list_of_entries(self, capsys):
        code, doc, out = run_json(capsys, "catalog")
        assert code == 0
        assert [entry["k"] for entry in doc] == [66, 44, 42, 36, 28, 12,
                                                 19, 17, 13, 11, 7, 5,
                                                 27, 9, 3, 25]
        _assert_no_floats(doc)
        assert json.dumps(doc, indent=2) + "\n" == out


class TestVerifyCommand:
    def test_pass_run_exits_0(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "12")
        assert code == 0
        assert "[pass] cover" in out
        assert "[pass] zeta-q13" in out
        assert out.strip().splitlines()[-1].startswith("PASS")

    def test_inadmissible_prime_exits_2_and_suggests(self, capsys):
        code, _, err = run(capsys, "verify", "--k", "66", "--q", "11")
        assert code == 2
        assert "not 1 mod 66" in err
        assert "67" in err

    def test_composite_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--k", "12", "--q", "25")
        assert code == 2

    def test_override_prime(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "12", "--q", "61")
        assert code == 0
        assert "zeta-q61" in out
        assert "zeta-q13" not in out

    def test_repeated_prime_is_checked_once(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--k", "66", "--q", "67",
                                "--q", "199", "--q", "67")
        assert code == 0
        assert doc["inputs"] == {"k": [66], "q": [67, 199]}
        names = [c["name"] for c in doc["reports"][0]["checks"]]
        assert [n for n in names if n.startswith("zeta-")] == ["zeta-q67", "zeta-q199"]

    def test_json_report_shape(self, capsys):
        code, doc, out = run_json(capsys, "verify", "--k", "5")
        assert code == 0
        assert doc["command"] == "verify"
        assert doc["inputs"] == {"k": [5], "q": None}
        assert doc["ok"] is True
        report = doc["reports"][0]
        assert report["k"] == 5
        names = [c["name"] for c in report["checks"]]
        assert "cover" in names and "mirror" in names
        assert all(c["status"] in ("pass", "skip") for c in report["checks"])
        _assert_no_floats(doc)
        assert "timing" not in json.dumps(doc)
        assert json.dumps(doc, indent=2) + "\n" == out

    def test_requires_k_or_all(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
        assert exc.value.code == 2

    def test_elapsed_time_survives_a_wall_clock_step_back(self, capsys, monkeypatch):
        clock = iter(range(10**6, 0, -3600))
        monkeypatch.setattr(cli.time, "time", lambda: float(next(clock)))
        code, out, _ = run(capsys, "verify", "--k", "3")
        assert code == 0
        ms = re.fullmatch(r"PASS \(1 entry, (-?\d+) ms\)", out.splitlines()[-1])
        assert ms and int(ms.group(1)) >= 0


class TestZetaCommand:
    def test_unimodular_entry(self, capsys):
        code, out, _ = run(capsys, "zeta", "--k", "12", "--q", "13")
        assert code == 0
        assert "(1 - 13T)^18 (1 + 13T)^0" in out
        assert "predicted count over F_13: 434" in out

    def test_negative_part(self, capsys):
        code, out, _ = run(capsys, "zeta", "--k", "7", "--q", "43")
        assert code == 0
        assert "(1 - 43T)^13 (1 + 43T)^3" in out

    def test_order_3_uses_cm_factor(self, capsys):
        code, out, _ = run(capsys, "zeta", "--k", "3", "--q", "7")
        assert code == 0
        assert "no Fermat cover" in out
        assert "1 + 13*T + 49*T^2" in out
        assert "177" in out

    def test_json_document(self, capsys):
        code, doc, out = run_json(capsys, "zeta", "--k", "12", "--q", "13")
        assert code == 0
        result = doc["result"]
        assert result["m"] == 12
        assert (result["n_plus"], result["n_minus"]) == (18, 0)
        assert len(result["jacobi"]) == 4
        assert all(len(j["alpha"]) == 4 for j in result["jacobi"])
        assert result["r_t"][0] == 1 and result["r_t"][-1] == 13 ** 4
        assert result["predicted_count"] == 434
        _assert_no_floats(doc)
        assert json.dumps(doc, indent=2) + "\n" == out

    def test_bad_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "zeta", "--k", "12", "--q", "7")
        assert code == 2
        assert "13" in err


class TestJacobiCommand:
    def test_rational_value(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--m", "2", "--q", "5",
                           "--alpha", "1,1,1")
        assert code == 0
        assert "j(alpha) = 5" in out
        assert "25" in out

    def test_irrational_value_prints_norm(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--m", "12", "--q", "13",
                           "--alpha", "1,1,5")
        assert code == 0
        assert "j * conj(j) = 169" in out

    def test_json_norm_flag(self, capsys):
        code, doc, out = run_json(capsys, "jacobi", "--m", "4", "--q", "5",
                                  "--alpha", "1,1,1")
        assert code == 0
        assert doc["inputs"]["alpha"] == [1, 1, 1, 1]
        assert doc["result"]["norm"] == 25
        assert doc["result"]["norm_ok"] is True
        assert json.dumps(doc, indent=2) + "\n" == out

    def test_malformed_alpha_exits_2(self, capsys):
        assert run(capsys, "jacobi", "--m", "4", "--q", "5", "--alpha", "1,x,1")[0] == 2
        assert run(capsys, "jacobi", "--m", "4", "--q", "5", "--alpha", "1,3")[0] == 2

    def test_degree_below_two_exits_2(self, capsys):
        for m in ("0", "1", "-3"):
            code, out, err = run(capsys, "jacobi", "--m", m, "--q", "5",
                                 "--alpha", "1,1,1")
            assert code == 2
            assert out == ""
            assert "degree must be at least 2" in err

    def test_zero_coordinate_exits_2(self, capsys):
        code, _, err = run(capsys, "jacobi", "--m", "4", "--q", "5",
                           "--alpha", "1,3,4")
        assert code == 2
        assert "nonzero" in err

    def test_inadmissible_prime_exits_2_and_suggests(self, capsys):
        code, out, err = run(capsys, "jacobi", "--m", "4", "--q", "7",
                             "--alpha", "1,1,1")
        assert code == 2
        assert out == ""
        assert err == "error: q = 7 is not 1 mod 4; smallest admissible primes: 5, 13\n"


@pytest.mark.parametrize("argv", [
    ("zeta", "--k", "66", "--q", "67"),
    ("count", "--k", "19", "--q", "191"),
    ("count", "--fermat", "4", "--q", "13"),
    ("jacobi", "--m", "12", "--q", "13", "--alpha", "1,1,5"),
], ids=" ".join)
def test_one_field_per_prime(capsys, monkeypatch, argv):
    # validating q must not build (and throw away) a second dlog table
    built = []
    init = PrimeField.__init__

    def counting_init(self, p, *args, **kwargs):
        built.append(p)
        init(self, p, *args, **kwargs)

    monkeypatch.setattr(PrimeField, "__init__", counting_init)
    assert run(capsys, *argv)[0] == 0
    assert built == [int(argv[argv.index("--q") + 1])]


@pytest.mark.parametrize("argv", [
    ("zeta", "--k", "3", "--q", "4194301"),
    ("count", "--fermat", "4", "--q", "4194301"),
], ids=" ".join)
def test_no_dlog_table_at_the_cap(capsys, monkeypatch, argv):
    # k = 3's factor comes from the primary prime and the Fermat cone
    # from the primitive root, so neither reads the dlog table, and no
    # field builds its 4194301 entries
    fields = []
    init = PrimeField.__init__

    def recording_init(self, *args, **kwargs):
        fields.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PrimeField, "__init__", recording_init)
    assert run(capsys, *argv)[0] == 0
    assert fields and all("dlog_table" not in vars(field) for field in fields)


class TestCountCommand:
    def test_fermat_quartic(self, capsys):
        # fourth powers mod 5 are 0 or 1, so no projective solutions exist
        code, out, _ = run(capsys, "count", "--fermat", "4", "--q", "5")
        assert code == 0
        assert ": 0 points" in out

    def test_fermat_quartic_in_linear_time(self):
        # a sum over pairs of values of u^4 would visit 2.5e11 of them
        # here; the cone count walks half of the 500001 fourth powers. 21
        # Jacobi sums of absolute value q bound the count's distance
        # from 1 + q + q^2.
        q = 1000003
        proc = run_module("count", "--json", "--fermat", "4", "--q", str(q), timeout=60)
        assert proc.returncode == 0, proc.stderr
        count = json.loads(proc.stdout)["result"]["count"]
        assert abs(count - 1 - q - q * q) <= 21 * q

    def test_catalog_entry(self, capsys):
        code, doc, _ = run_json(capsys, "count", "--k", "12", "--q", "13")
        assert code == 0
        assert doc["result"]["count"] == 434
        assert doc["result"]["note"] is None

    def test_double_sextic_notes_affine_chart(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "25", "--q", "7")
        assert code == 0
        assert "affine" in out

    def test_requires_exactly_one_target(self, capsys):
        assert run(capsys, "count", "--q", "7")[0] == 2
        assert run(capsys, "count", "--fermat", "3", "--k", "5", "--q", "7")[0] == 2

    def test_small_characteristic_exits_2(self, capsys):
        assert run(capsys, "count", "--k", "12", "--q", "3")[0] == 2


class TestLatticeCommand:
    def test_human_report(self, capsys):
        code, out, _ = run(capsys, "lattice", "--k", "7")
        assert code == 0
        assert "S: rank 16" in out
        assert "T: rank 6" in out
        assert "discriminant forms opposite: True" in out

    def test_json_invariants(self, capsys):
        code, doc, out = run_json(capsys, "lattice", "--k", "19")
        assert code == 0
        s, t = doc["result"]["s"], doc["result"]["t"]
        assert (s["rank"], s["determinant"]) == (4, -19)
        assert (t["rank"], t["determinant"]) == (18, 19)
        assert s["signature"] == [1, 3]
        assert s["discriminant_form"]["orders"] == [19]
        assert doc["result"]["forms_opposite"] is True
        _assert_no_floats(doc)
        assert json.dumps(doc, indent=2) + "\n" == out

    def test_unimodular_trivial_group(self, capsys):
        code, doc, _ = run_json(capsys, "lattice", "--k", "66")
        assert code == 0
        assert doc["result"]["s"]["discriminant_form"]["orders"] == []


class TestMirrorCommand:
    def test_definite_case_says_none(self, capsys):
        code, out, _ = run(capsys, "mirror", "--k", "3")
        assert code == 0
        assert out.startswith("none")

    def test_partner_match(self, capsys):
        code, out, _ = run(capsys, "mirror", "--k", "9")
        assert code == 0
        assert "order 27" in out

    def test_family_case(self, capsys):
        code, out, _ = run(capsys, "mirror", "--k", "19")
        assert code == 0
        assert "rank 16" in out
        assert "family" in out

    def test_json_complement_gram(self, capsys):
        code, doc, out = run_json(capsys, "mirror", "--k", "12")
        assert code == 0
        assert doc["ok"] is True
        assert doc["result"]["split"] == "partner"
        assert sorted(doc["result"]["partners"]) == [44, 66]
        assert doc["result"]["complement"]["rank"] == 2
        assert json.dumps(doc, indent=2) + "\n" == out

    def test_none_split_json(self, capsys):
        code, doc, _ = run_json(capsys, "mirror", "--k", "3")
        assert code == 0
        assert doc["result"] == {"split": "none", "partners": None,
                                 "complement": None}


class TestDelsarteCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "delsarte", "--equation",
                           "y^2 = x^3 + t^7*x + 1")
        assert code == 0
        assert "m = 42" in out
        assert "6 transcendental characters" in out
        assert "rho = 16" in out

    def test_json_fields(self, capsys):
        code, doc, out = run_json(capsys, "delsarte", "--equation",
                                  "y^2 = x^3 + t^7*x + 1")
        assert code == 0
        result = doc["result"]
        assert result["m"] == 42
        assert result["transcendental_count"] == 6
        assert result["picard_number"] == 16
        assert len(result["images"]) == 3
        assert all(len(c) == 4 for c in result["characters"])
        assert json.dumps(doc, indent=2) + "\n" == out

    def test_checks_the_derived_map_once(self, capsys, monkeypatch):
        # derive_cover checks the map it returns; the characters come from
        # cover_characters, which checks nothing again
        calls = []
        check = delsarte.verify_cover
        monkeypatch.setattr(delsarte, "verify_cover",
                            lambda surface, pi: calls.append(pi.m) or check(surface, pi))
        code, _, _ = run(capsys, "delsarte", "--equation", "y^2 = x^3 + t^7*x - t")
        assert code == 0
        assert len(calls) == 1

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "delsarte", "--equation", "y^2 = x^3 +")
        assert code == 2
        assert "cannot parse" in err

    def test_five_monomials_rejected(self, capsys):
        code, _, err = run(capsys, "delsarte", "--equation",
                           "y^2 = x^3 + x + t + 1")
        assert code == 2


def run_module(*argv, timeout):
    """`python -m k3fermat.cli argv` on this checkout's sources."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "k3fermat.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


class TestRefusals:
    """Inputs that once ran for hours or printed nonsense must exit 2 at
    once. Each runs in a subprocess with a timeout, so a regression fails
    instead of hanging the suite."""

    @staticmethod
    def refuse(*argv, timeout=30):
        proc = run_module(*argv, timeout=timeout)
        assert proc.returncode == 2
        assert proc.stdout == ""
        return proc.stderr

    def test_jacobi_degree_beyond_the_prime_cap(self):
        err = self.refuse("jacobi", "--m", "100000000", "--q", "5", "--alpha", "1,1,1")
        assert err == ("error: q = 5 is not 1 mod 100000000; "
                       "no admissible prime lies under the cap 2^22\n")

    def test_jacobi_large_degree_suggests_primes(self):
        # 1000001, 2000001, 3000001 and 4000001 are composite, and every
        # larger prime = 1 mod 10^6 lies over the cap
        err = self.refuse("jacobi", "--m", "1000000", "--q", "5", "--alpha", "1,1,1")
        assert err == ("error: q = 5 is not 1 mod 1000000; "
                       "no admissible prime lies under the cap 2^22\n")

    def test_jacobi_large_degree_suggests_primes_under_the_cap(self):
        err = self.refuse("jacobi", "--m", "100000", "--q", "5", "--alpha", "1,1,1")
        assert err == ("error: q = 5 is not 1 mod 100000; "
                       "smallest admissible primes: 700001, 900001\n")

    def test_jacobi_degree_with_too_large_a_power_table(self):
        # m = 3*5*7*11*13 is squarefree, so each of its 15015 - 5760 folded
        # rows may hold phi(m) = 5760 terms
        err = self.refuse("jacobi", "--m", "15015", "--q", "120121", "--alpha", "1,2,3")
        assert err == ("error: arithmetic in Z[zeta_15015] needs a power table of up to "
                       "53314560 entries, over the limit 10000000\n")

    def test_jacobi_with_too_much_convolution_work(self):
        # the convolution pairs 10^5 exponent counts with 10^5 others, and
        # the norm check multiplies two vectors of phi(m) = 40000 coordinates
        err = self.refuse("jacobi", "--m", "100000", "--q", "700001", "--alpha", "1,2,3")
        assert err == ("error: the Jacobi sum in Z[zeta_100000] over F_700001 and its norm "
                       "take about 11600000000 steps, over the limit 1000000000\n")

    @pytest.mark.parametrize("equation, weight_one", [
        ("y^2 = x^3 + t^13 + 1", 2),     # once rho = -2
        ("y^2 = x^3 + t^9*x + 1", 2),    # once rho = 4
    ])
    def test_delsarte_non_k3(self, equation, weight_one):
        err = self.refuse("delsarte", "--equation", equation)
        assert err == (f"error: not a K3 surface: {weight_one} invariant weight-one "
                       "characters, but h^(2,0) = 1 needs exactly one\n")

    @pytest.mark.parametrize("equation, order", [
        ("y^2 = x^3 + x + t^9973", 39892),
        ("y^2 = x^3 + t^99991 + 1", 599946),
    ])
    def test_delsarte_with_a_large_invariant_group(self, equation, order):
        # testing each invariant character for algebraicity ran for hours
        err = self.refuse("delsarte", "--equation", equation, timeout=2)
        assert err == (f"error: the deck-invariant character group has order {order}, "
                       "over the limit 10000\n")


def test_zeta_near_a_million_finishes():
    # the Jacobi sums are linear in q; summing over all pairs ran for hours
    proc = run_module("zeta", "--k", "66", "--q", "1000033", "--json", timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["inputs"] == {"k": 66, "q": 1000033}


def test_monomial_counts_near_a_million_finish():
    # the coset sums are linear in q; one cubic sum per class of r = -t^19
    # would take about 5*10^10 steps here
    proc = run_module("count", "--k", "19", "--q", "1000199", timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the count that zeta --k 19 --q 1000199 predicts
    assert ": 1000405319208 points" in proc.stdout
    proc = run_module("count", "--k", "25", "--q", "1000199", timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_jacobi_work_limit_admits_large_answered_inputs():
    # jacobi --m 10000 --q 70001 answers in well under a second; the
    # m = 4620 run below covers the command end to end
    for m, q in [(4620, 4621), (10000, 70001), (12, 13), (2, 5)]:
        assert jacobi_work(m, q) <= JACOBI_WORK_LIMIT


def test_jacobi_under_the_power_table_limit_answers():
    # bound 1757760 entries; the table holds 860520
    proc = run_module("jacobi", "--m", "4620", "--q", "4621", "--alpha", "1,2,3",
                      "--json", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["norm_ok"] is True


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "k3fermat.cli", "catalog", "--k", "66"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "k = 66" in proc.stdout

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


SUBCOMMANDS = ("catalog", "verify", "zeta", "jacobi", "count", "lattice", "mirror",
               "delsarte")


class TestParserPerSubcommand:
    """main hands a line that _read_argv declines to argparse; what it
    prints and its exit codes match _build_parser()'s byte for byte."""

    @staticmethod
    def exits(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    def both(self, argv, capsys):
        full = self.exits(lambda a: _build_parser().parse_args(a), argv, capsys)
        assert self.exits(main, argv, capsys) == full
        return full

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_is_unchanged(self, name, capsys):
        code, out, err = self.both([name, "--help"], capsys)
        assert code == 0 and err == ""
        assert out.startswith(f"usage: k3fermat {name} [-h] [--json]")

    def test_bad_int_is_unchanged(self, capsys):
        code, out, err = self.both(["zeta", "--k", "x"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: k3fermat zeta [-h] [--json] --k K --q Q\n")
        assert err.endswith("k3fermat zeta: error: argument --k: invalid int value: 'x'\n")

    def test_unrecognized_argument_lists_every_choice(self, capsys):
        code, _, err = self.both(["zeta", "--k", "66", "--q", "67", "extra"], capsys)
        assert code == 2
        assert "{" + ",".join(SUBCOMMANDS) + "}" in err
        assert err.endswith("error: unrecognized arguments: extra\n")

    @pytest.mark.parametrize("argv", [["bogus"], [], ["--help"], ["-h"]])
    def test_no_subcommand_named_builds_the_full_parser(self, argv, capsys):
        code, out, err = self.both(argv, capsys)
        assert "{" + ",".join(SUBCOMMANDS) + "}" in out + err
        if argv == ["bogus"]:
            assert code == 2
            assert "invalid choice: 'bogus'" in err
            assert all(repr(name) in err for name in SUBCOMMANDS)


_FULL_PARSER = _build_parser()
OPTION_TOKENS = ("--json", "--k", "--q", "--all", "--m", "--alpha", "--fermat", "--equation",
                 "--j", "--al", "--eq", "--fer", "--k=3", "--q=67", "--all=1", "--", "-h",
                 "--help")
VALUE_TOKENS = ("3", "66", "67", "-5", "", " 5", "1_000", "+7", "x", "1,2,3", "zeta")


def reference(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return vars(_FULL_PARSER.parse_args(list(argv)))
    except SystemExit:
        return None


class TestCommandLineReader:
    """_read_argv reads a well-formed command line without argparse and
    returns None for anything else, which main hands to argparse."""

    @settings(deadline=None, max_examples=400)
    @given(st.lists(st.sampled_from(SUBCOMMANDS + ("bogus",)), max_size=1),
           st.lists(st.sampled_from(OPTION_TOKENS + VALUE_TOKENS), max_size=7))
    @example(["jacobi"], ["--m", "3", "--q", "7", "--alpha", "1,1,1", "--json"])
    @example(["delsarte"], ["--equation", ""])
    def test_agrees_with_argparse_or_declines(self, command, tokens):
        argv = command + tokens
        mine = _read_argv(argv)
        assert mine is None or vars(mine) == reference(argv)

    @pytest.mark.parametrize("argv, expected", [
        (["verify", "--all", "--q", "67", "--q", "67"],
         {"subcommand": "verify", "func": cmd_verify, "json": False, "k": None,
          "all": True, "q": [67, 67]}),
        (["count", "--fermat", "4", "--q", "5", "--json"],
         {"subcommand": "count", "func": cmd_count, "json": True, "fermat": 4,
          "k": None, "q": 5}),
    ])
    def test_reads_well_formed_lines(self, argv, expected):
        assert vars(_read_argv(argv)) == expected == reference(argv)

    @pytest.mark.parametrize("argv", [
        ["verify", "--k", "3", "--all"],
        ["zeta", "--k=66", "--q", "67"],
        ["zeta", "--k", "66", "--q"],
        ["zeta", "--k", "66", "--q", "67", "-h"],
    ])
    def test_declines_everything_else(self, argv):
        assert _read_argv(argv) is None


# Every code point, surrogates included: the writer must escape each one as
# json.dumps does.
ANY_TEXT = st.text(st.characters(exclude_categories=()))
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 60, 10 ** 60) | ANY_TEXT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(ANY_TEXT, inner, max_size=4)),
    max_leaves=20)


class TestJsonWriter:
    """cli._json_text against the standard library's json.dumps(indent=2)."""

    @settings(deadline=None, max_examples=500)
    @given(REPORT_VALUES)
    @example({"": [], "a": {}, "\x7f\x00 ": ["\ud800", "\U0010ffff", "\U0001f600"]})
    @example(("\b\f\n\r\t\"\\", -(10 ** 60), True, None))
    def test_writes_what_json_dumps_writes(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        [1, [2, 0.5]],
        {"x": [float("inf")]},
        {1: "a"},
        {None: "a"},
        {"a": {2, 3}},
        {3},
    ], ids=["nested-float", "float-in-dict", "int-key", "none-key", "set-in-dict", "set"])
    def test_refuses_what_a_report_never_holds(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)
