"""Command-line surface for the catalog and its verification pipeline.

Every command prints a human-readable report by default and a JSON
document with --json. JSON output is stable: fixed key insertion order,
exact integers, rationals as "num/den" strings, no floats, and no
timing data (elapsed time is shown only in the human format, as integer
milliseconds). Exit codes: 0 success, 1 verification failure, 2 usage
or input error.

The JSON text comes from _json_text, which writes the same bytes as
json.dumps(doc, indent=2) for the types a report holds (dicts with str
keys, lists, tuples, str, int, bool and None) and raises TypeError on
anything else, a float included. So no command imports json.
"""

import sys
import time
import types

from .catalog import (
    ORDERS,
    catalog_as_dicts,
    catalog_entry,
    entry_as_dict,
    load_catalog,
    verify_entry,
)
from .characters import CharacterVector, rational_text
from .cyclotomic import JACOBI_WORK_LIMIT, POWER_TABLE_LIMIT, jacobi_work, power_table_bound
from .delsarte import (
    SurfaceSyntaxError,
    cover_characters,
    derive_cover,
    parse_surface,
)
from .field import check_modulus, make_field
from .jacobi_zeta import default_primes, jacobi_sum, zeta_report
from .pointcount import count_affine_double_sextic, count_elliptic_smooth, count_fermat


class UsageError(Exception):
    """Bad input that is not a verification failure; mapped to exit 2."""


# The escapes json.encoder.py_encode_basestring_ascii writes by name; every
# other character outside printable ASCII becomes \uXXXX.
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f",
            "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _quote(text):
    """text as an ASCII JSON string literal, escaped as json.dumps escapes it."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"' + text + '"'
    out = []
    for ch in text:
        n = ord(ch)
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif 0x20 <= n < 0x7f:
            out.append(ch)
        elif n < 0x10000:
            out.append(f"\\u{n:04x}")
        else:  # a surrogate pair
            n -= 0x10000
            out.append(f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}")
    return '"' + "".join(out) + '"'


def _json_text(value, pad="\n"):
    """json.dumps(value, indent=2) for a report value; pad is the newline
    and indentation that precede value's closing bracket."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys are str, not {type(key).__name__}: {key!r}")
            items.append(_quote(key) + ": " + _json_text(item, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"a report holds no {type(value).__name__}: {value!r}")


def _emit(doc, as_json, human_lines):
    if as_json:
        print(_json_text(doc))
    else:
        for line in human_lines:
            print(line)


def _entry_or_usage(k):
    try:
        return catalog_entry(k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require_prime(q):
    try:
        check_modulus(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require_admissible(q, m):
    if (q - 1) % m == 0:
        return
    good = ", ".join(str(p) for p in default_primes(m))
    if not good:
        raise UsageError(f"q = {q} is not 1 mod {m}; no admissible prime lies under the cap 2^22")
    raise UsageError(f"q = {q} is not 1 mod {m}; smallest admissible primes: {good}")


def _check_zeta_prime(entry, q):
    _require_prime(q)
    if entry.k == 3:
        if q in (2, 3):
            raise UsageError(
                f"q = {q} has bad reduction at order 3; admissible primes: 5, 7, 11, 13")
        return
    _require_admissible(q, entry.m)


def _ms(t0):
    return int((time.perf_counter() - t0) * 1000)


# ---------------------------------------------------------------------------
# commands

def cmd_catalog(args):
    if args.k is None:
        if args.json:
            print(_json_text(catalog_as_dicts()))
            return 0
        lines = [f"{'k':>3}  {'class':<14} {'m':>4}  {'equation':<34} mirror"]
        for e in load_catalog():
            mirror = (",".join(str(p) for p in e.mirror_partner)
                      if isinstance(e.mirror_partner, tuple) else e.mirror_partner)
            lines.append(f"{e.k:>3}  {e.lattice_class:<14} {e.m or '-':>4}  "
                         f"{e.equation:<34} {mirror}")
        _emit(None, False, lines)
        return 0
    entry = _entry_or_usage(args.k)
    doc = entry_as_dict(entry)
    lines = [
        f"k = {entry.k} ({entry.lattice_class}), Fermat degree m = {entry.m}",
        f"equation: {entry.equation}",
        f"action on {', '.join(entry.action_vars)}: exponents {list(entry.action)}",
        f"S: rank {entry.s_gram.rank}, signature {entry.s_gram.signature}, "
        f"det {entry.s_gram.determinant}",
        f"T: rank {entry.t_gram.rank}, signature {entry.t_gram.signature}, "
        f"det {entry.t_gram.determinant}",
    ]
    if entry.fibers:
        lines.append("fibers: " + ", ".join(f"{kind} (deg {d})" for kind, d in entry.fibers))
    if entry.section:
        lines.append(f"section ({entry.section.x_text}, {entry.section.y_text}), "
                     f"height {doc['height']}, disc {entry.disc_s}")
    if entry.expected_characters:
        lines.append(f"characters: {len(entry.expected_characters)} "
                     f"(first {list(entry.expected_characters[0])})")
    lines.append(f"mirror partner: {doc['mirror_partner']}")
    lines.append(f"zeta primes: {list(entry.zeta_primes)}")
    _emit(doc, args.json, lines)
    return 0


def cmd_verify(args):
    t0 = time.perf_counter()
    ks = list(ORDERS) if args.all else [args.k]
    entries = [_entry_or_usage(k) for k in ks]
    primes = tuple(dict.fromkeys(args.q)) if args.q else None
    if primes:
        for entry in entries:
            for q in primes:
                _check_zeta_prime(entry, q)
    reports = [verify_entry(entry, primes) for entry in entries]
    ok = all(r.ok for r in reports)
    doc = {
        "command": "verify",
        "inputs": {"k": ks, "q": list(primes) if primes else None},
        "ok": ok,
        "reports": [r.as_dict() for r in reports],
    }
    lines = []
    for r in reports:
        lines.append(f"k = {r.k}:")
        for c in r.checks:
            lines.append(f"  [{c.status:<4}] {c.name}: {c.detail}")
    noun = "entry" if len(reports) == 1 else "entries"
    lines.append(f"{'PASS' if ok else 'FAIL'} ({len(reports)} {noun}, {_ms(t0)} ms)")
    _emit(doc, args.json, lines)
    return 0 if ok else 1


def cmd_zeta(args):
    entry = _entry_or_usage(args.k)
    _check_zeta_prime(entry, args.q)
    rep = zeta_report(args.k, args.q)
    doc = {
        "command": "zeta",
        "inputs": {"k": args.k, "q": args.q},
        "result": {
            "m": rep.m,
            "n_plus": rep.n_plus,
            "n_minus": rep.n_minus,
            "r_a": list(rep.r_a.coeffs),
            "r_t": list(rep.r_t.coeffs),
            "jacobi": [
                {"alpha": list(alpha.a), "value": value.format()}
                for alpha, value in rep.jacobi_values
            ],
            "trace": rep.trace,
            "predicted_count": rep.predicted_count,
            "notes": list(rep.notes),
        },
    }
    lines = [
        f"k = {args.k}, q = {args.q}, "
        + (f"m = {rep.m}" if rep.m else "no Fermat cover"),
        f"algebraic factor: (1 - {args.q}T)^{rep.n_plus} (1 + {args.q}T)^{rep.n_minus}",
        f"transcendental factor: {rep.r_t.format('T')}",
        f"trace = {rep.trace}",
        f"predicted count over F_{args.q}: {rep.predicted_count}",
    ]
    lines += [f"note: {note}" for note in rep.notes]
    _emit(doc, args.json, lines)
    return 0


def cmd_jacobi(args):
    try:
        triple = tuple(int(part) for part in args.alpha.split(","))
    except ValueError:
        raise UsageError(f"cannot parse --alpha {args.alpha!r}; expected a1,a2,a3")
    if len(triple) != 3:
        raise UsageError("--alpha takes exactly three comma-separated residues")
    _require_prime(args.q)
    if args.m < 2:
        raise UsageError("degree must be at least 2")
    _require_admissible(args.q, args.m)
    try:
        alpha = CharacterVector.from_triple(args.m, triple)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    entries = power_table_bound(args.m)
    if entries > POWER_TABLE_LIMIT:
        raise UsageError(
            f"arithmetic in Z[zeta_{args.m}] needs a power table of up to {entries} "
            f"entries, over the limit {POWER_TABLE_LIMIT}")
    work = jacobi_work(args.m, args.q)
    if work > JACOBI_WORK_LIMIT:
        raise UsageError(
            f"the Jacobi sum in Z[zeta_{args.m}] over F_{args.q} and its norm take about "
            f"{work} steps, over the limit {JACOBI_WORK_LIMIT}")
    value = jacobi_sum(make_field(args.q), args.m, alpha)
    norm = (value * value.conj()).as_rational_integer()
    rational = value.as_rational_integer()
    doc = {
        "command": "jacobi",
        "inputs": {"m": args.m, "q": args.q, "alpha": list(alpha.a)},
        "result": {
            "value": value.format(),
            "rational": rational,
            "norm": norm,
            "norm_ok": norm == args.q * args.q,
        },
    }
    lines = [f"j(alpha) = {rational if rational is not None else value.format()}",
             f"j * conj(j) = {norm} (q^2 = {args.q * args.q})"]
    _emit(doc, args.json, lines)
    return 0 if norm == args.q * args.q else 1


def cmd_count(args):
    if (args.fermat is None) == (args.k is None):
        raise UsageError("pass exactly one of --fermat M or --k K")
    _require_prime(args.q)
    note = None
    if args.fermat is not None:
        if args.fermat < 1:
            raise UsageError("--fermat degree must be positive")
        count = count_fermat(args.fermat, args.q)
        what = f"Fermat surface of degree {args.fermat}"
        inputs = {"fermat": args.fermat, "q": args.q}
    else:
        entry = _entry_or_usage(args.k)
        inputs = {"k": args.k, "q": args.q}
        if entry.elliptic:
            if args.q in (2, 3):
                raise UsageError("point counts need residue characteristic at least 5")
            count = count_elliptic_smooth(entry.model, args.q)
            what = f"smooth elliptic model of the order-{args.k} surface"
        else:
            if args.q == 2:
                raise UsageError("the double sextic needs odd q")
            count = count_affine_double_sextic(entry.sextic_coeffs(), args.q)
            what = f"affine double sextic chart of the order-{args.k} surface"
            note = "affine chart only; smooth count out of scope"
    doc = {
        "command": "count",
        "inputs": inputs,
        "result": {"count": count, "note": note},
    }
    lines = [f"{what} over F_{args.q}: {count} points"]
    if note:
        lines.append(f"note: {note}")
    _emit(doc, args.json, lines)
    return 0


def _form_dict(q):
    r = len(q.orders)
    unit = lambda i: [1 if j == i else 0 for j in range(r)]
    return {
        "orders": list(q.orders),
        "values": [rational_text((q.value(unit(i)), q.exponent)) for i in range(r)],
    }


def cmd_lattice(args):
    from .lattice import discriminant_form, nikulin_complement_check

    entry = _entry_or_usage(args.k)
    qs = discriminant_form(entry.s_gram)
    qt = discriminant_form(entry.t_gram)
    opposite = nikulin_complement_check(entry.s_gram, entry.t_gram)
    doc = {
        "command": "lattice",
        "inputs": {"k": args.k},
        "result": {
            "s": {"rank": entry.s_gram.rank,
                  "signature": list(entry.s_gram.signature),
                  "determinant": entry.s_gram.determinant,
                  "discriminant_form": _form_dict(qs)},
            "t": {"rank": entry.t_gram.rank,
                  "signature": list(entry.t_gram.signature),
                  "determinant": entry.t_gram.determinant,
                  "discriminant_form": _form_dict(qt)},
            "forms_opposite": opposite,
        },
    }
    lines = [
        f"S: rank {entry.s_gram.rank}, signature {entry.s_gram.signature}, "
        f"det {entry.s_gram.determinant}, discriminant group {qs.orders or '(trivial)'}",
        f"T: rank {entry.t_gram.rank}, signature {entry.t_gram.signature}, "
        f"det {entry.t_gram.determinant}, discriminant group {qt.orders or '(trivial)'}",
        f"discriminant forms opposite: {opposite}",
    ]
    _emit(doc, args.json, lines)
    return 0 if opposite else 1


def cmd_mirror(args):
    from .lattice import mirror_split

    entry = _entry_or_usage(args.k)
    result = mirror_split(entry.t_gram)
    partner = entry.mirror_partner
    if result == "none":
        doc_result = {"split": "none", "partners": None, "complement": None}
        lines = ["none: transcendental lattice positive definite"]
        ok = partner == "none"
    else:
        matched = None
        if isinstance(partner, tuple):
            matched = [kp for kp in partner
                       if result.gram == catalog_entry(kp).s_gram.gram]
        doc_result = {
            "split": "family" if partner == "family" else "partner",
            "partners": matched if matched else None,
            "complement": {
                "rank": result.rank,
                "signature": list(result.signature),
                "determinant": result.determinant,
                "gram": result.rows(),
            },
        }
        lines = [f"complement: rank {result.rank}, signature {result.signature}, "
                 f"det {result.determinant}"]
        if matched:
            lines.append("matches the Picard lattice of order " +
                         ", ".join(str(kp) for kp in matched))
            ok = True
        elif partner == "family":
            lines.append("mirror family; no catalog member carries this Picard lattice")
            ok = True
        else:
            lines.append("complement matches no stored partner")
            ok = False
    doc = {"command": "mirror", "inputs": {"k": args.k}, "ok": ok, "result": doc_result}
    _emit(doc, args.json, lines)
    return 0 if ok else 1


def cmd_delsarte(args):
    try:
        surface = parse_surface(args.equation)
    except (SurfaceSyntaxError, ValueError) as exc:
        raise UsageError(f"cannot parse equation: {exc}") from None
    try:
        # derive_cover has already checked the map
        m, pi = derive_cover(surface)
        chars = cover_characters(pi)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rho = 22 - len(chars)
    doc = {
        "command": "delsarte",
        "inputs": {"equation": args.equation},
        "result": {
            "m": m,
            "images": [{"variable": v, "sign": s, "exponents": list(e)}
                       for v, s, e in pi.images],
            "characters": [list(c.a) for c in chars],
            "transcendental_count": len(chars),
            "picard_number": rho,
        },
    }
    lines = [
        f"Fermat cover degree m = {m}",
        "map: " + ", ".join(f"{v} -> {pi.image_text(v)}" for v, _s, _e in pi.images),
        f"{len(chars)} transcendental characters",
        f"Picard number rho = {rho}",
    ]
    _emit(doc, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# parser

# Option kinds.
FLAG, INT, INTS, STR = "flag", "int", "ints", "str"
# An option's required status: ONE_OF marks the options of which a command
# line names exactly one (verify's --k and --all).
ONE_OF = "one of"

# The one declaration of the command line. Each subcommand maps to
# (handler, help, options), each option is (flag, kind, required, help),
# and every subcommand takes COMMON's options first.
COMMON = (("--json", FLAG, False, "emit a JSON document"),)
COMMANDS = {
    "catalog": (cmd_catalog, "list the catalog or show one entry", (
        ("--k", INT, False, "automorphism order"),
    )),
    "verify": (cmd_verify, "recompute and check the stored data", (
        ("--k", INT, ONE_OF, "verify one entry"),
        ("--all", FLAG, ONE_OF, "verify every entry"),
        ("--q", INTS, False, "override the zeta primes (repeatable; repeats are dropped)"),
    )),
    "zeta": (cmd_zeta, "zeta factors and predicted count at one prime", (
        ("--k", INT, True, None),
        ("--q", INT, True, None),
    )),
    "jacobi": (cmd_jacobi, "one Jacobi sum with its norm check", (
        ("--m", INT, True, None),
        ("--q", INT, True, None),
        ("--alpha", STR, True, "a1,a2,a3 residues mod m"),
    )),
    "count": (cmd_count, "brute-force point counts", (
        ("--fermat", INT, False, "Fermat surface degree"),
        ("--k", INT, False, "catalog entry"),
        ("--q", INT, True, None),
    )),
    "lattice": (cmd_lattice, "lattice invariants and discriminant forms", (
        ("--k", INT, True, None),
    )),
    "mirror": (cmd_mirror, "hyperbolic splitting of the transcendental lattice", (
        ("--k", INT, True, None),
    )),
    "delsarte": (cmd_delsarte, "analyze a four-monomial equation", (
        ("--equation", STR, True, None),
    )),
}


def _read_argv(argv):
    """The namespace argparse would return for a well-formed command line:
    the exact subcommand, then exact long flags, each at most once unless
    repeatable, each value not starting with '-'. Anything else (help,
    abbreviations, --flag=value, errors) gives None and is left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    fn, _help, options = COMMANDS[argv[0]]
    options = {flag: (kind, required) for flag, kind, required, _help in COMMON + options}
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in options:
            return None
        kind = options[token][0]
        value = True
        if kind != FLAG:
            value = next(tokens, "-")  # a missing value declines like a flag
            if value.startswith("-"):
                return None
            if kind != STR:
                try:
                    value = int(value)
                except ValueError:
                    return None
        if kind == INTS:
            values.setdefault(token, []).append(value)
        elif token in values:
            return None
        else:
            values[token] = value
    if any(required is True and flag not in values
           for flag, (_kind, required) in options.items()):
        return None
    one_of = [flag in values for flag, (_kind, required) in options.items()
              if required == ONE_OF]
    if one_of and sum(one_of) != 1:
        return None
    ns = {flag[2:]: values.get(flag, False if kind == FLAG else None)
          for flag, (kind, _required) in options.items()}
    return types.SimpleNamespace(subcommand=argv[0], func=fn, **ns)


def _build_parser():
    """The argparse parser for COMMANDS. main builds it only for a command
    line that _read_argv declines: help, abbreviations, --flag=value and
    errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="k3fermat",
        description="Exact zeta, point-count and lattice checks for the catalog "
                    "of K3 surfaces covered by Fermat surfaces.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    kinds = {FLAG: {"action": "store_true"}, INT: {"type": int},
             INTS: {"type": int, "action": "append"}, STR: {}}
    for name, (fn, helptext, options) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(func=fn)
        group = None
        for flag, kind, required, helptext in COMMON + options:
            target = p
            if required == ONE_OF:
                group = target = group or p.add_mutually_exclusive_group(required=True)
            target.add_argument(flag, required=required is True, help=helptext, **kinds[kind])
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
