"""Per-layer timing of k3fermat from outside the package.

A Tracer replaces chosen public functions with timing wrappers for the
length of a `with` block and puts the originals back on exit. Modules
import functions by name (`from .kernels import jacobi_counts`), so every
k3fermat module attribute bound to the original object is patched, not
just the defining one. Methods are patched on their class.

Per wrapped function the tracer keeps:
  calls   number of calls
  incl    inclusive time, counted once for recursive calls
  self    time minus the time spent in wrapped callees
  work    an operation count computed from the arguments (optional)
  keys    distinct argument keys, e.g. distinct q (optional)
Times are kept in integer nanoseconds, so self never exceeds inclusive.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Spec:
    """One function to wrap: `module` under k3fermat, `name` possibly
    'Class.method', the stats to report, and an optional work count and
    distinct-key function, both called with the wrapped function's
    arguments."""

    module: str
    name: str
    report: tuple = ("calls", "s")
    work: object = None
    key: object = None

    @property
    def label(self):
        return f"{self.module}.{self.name}"


@dataclass
class Stat:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    work: int = 0
    keys: set = field(default_factory=set)
    depth: int = 0

    def as_dict(self):
        return {"calls": self.calls, "incl_s": self.incl_ns / 1e9,
                "s": self.self_ns / 1e9, "work": self.work,
                "distinct": len(self.keys)}


# What the benchmark wraps, by layer, and which stats it reports for each.
# Work counts are the inner-loop iteration counts of each kernel, so they
# repeat exactly.
CS = ("calls", "s")
CSI = ("calls", "s", "incl_s")
CSW = ("calls", "s", "work")
LAYERS = (
    Spec("kernels", "jacobi_counts", CSW, work=lambda dlog, q, m, a1, a2, a3: (q - 1) ** 2),
    Spec("kernels", "chi_cubic_sum", CSW, work=lambda chi2, cubes, a, b, q: q),
    Spec("kernels", "fermat_affine", CSW, work=lambda powm, rootcnt, q: q * q),
    Spec("jacobi_zeta", "jacobi_sum", CSI),
    Spec("jacobi_zeta", "zeta_report", CSI),
    Spec("jacobi_zeta", "cm_factor_k3", CSI),
    Spec("cyclotomic", "CycInt.__mul__", CS),
    Spec("cyclotomic", "reduce", CS),
    Spec("cyclotomic", "CycInt.galois_apply", CS),
    Spec("cyclotomic", "orbit_product", CSW, work=lambda values: len(values)),
    Spec("intmat", "fraction_inverse", CS),
    Spec("intmat", "smith_normal_form", CS),
    Spec("intmat", "signature", CS),
    Spec("intmat", "det", CS),
    Spec("lattice", "discriminant_form", CSI + ("distinct",), key=lambda lattice: lattice),
    Spec("lattice", "nikulin_complement_check", CS),
    Spec("lattice", "mirror_split", CS),
    Spec("lattice", "fqf_equivalent", CS),
    Spec("pointcount", "count_elliptic_smooth", CSI),
    Spec("pointcount", "count_fermat", CSI),
    Spec("pointcount", "count_affine_double_sextic", CSW,
         work=lambda f, q: q * q * sum(1 for c in f.values() if c % q)),
    Spec("pointcount", "tate_fiber", CS),
    Spec("pointcount", "geometric_fibers", CS),
    Spec("field", "make_field", CSW + ("distinct",), work=lambda p: p, key=lambda p: p),
    Spec("delsarte", "parse_surface", CS),
    Spec("delsarte", "verify_cover", CS),
    Spec("delsarte", "derive_cover", CS),
    Spec("delsarte", "transcendental_characters", CS),
    Spec("catalog", "verify_entry", ("calls", "incl_s")),
    Spec("catalog", "load_catalog", ("s",)),
)


def _resolve(spec):
    """(owner, attribute, original) for the spec's defining binding."""
    owner = importlib.import_module(f"k3fermat.{spec.module}")
    *path, attr = spec.name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def _bindings(owner, attr, original):
    """Every place the original is bound: the owner, plus any loaded
    k3fermat module attribute that refers to the same object."""
    found = [(owner, attr)]
    if isinstance(owner, type):
        return found
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "k3fermat" or modname.startswith("k3fermat.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original and (mod, name) != (owner, attr):
                found.append((mod, name))
    return found


class Tracer:
    """Context manager that wraps the given specs while it is active."""

    def __init__(self, specs=LAYERS):
        self.specs = tuple(specs)
        self.stats = {spec.label: Stat() for spec in self.specs}
        self._stack = []
        self._patched = []

    def __enter__(self):
        try:
            for spec in self.specs:
                owner, attr, original = _resolve(spec)
                wrapper = self._wrap(original, self.stats[spec.label], spec)
                for target, name in _bindings(owner, attr, original):
                    self._patched.append((target, name, original))
                    setattr(target, name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    def _wrap(self, fn, stat, spec):
        clock = time.perf_counter_ns
        stack = self._stack
        work, key = spec.work, spec.key

        def wrapper(*args, **kwargs):
            if work is not None:
                stat.work += work(*args, **kwargs)
            if key is not None:
                stat.keys.add(key(*args, **kwargs))
            stat.depth += 1
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_ns += dt - stack.pop()
                stat.calls += 1
                stat.depth -= 1
                if stat.depth == 0:
                    stat.incl_ns += dt
                if stack:
                    stack[-1] += dt

        return functools.update_wrapper(wrapper, fn)

    def reset(self):
        """Zero every stat in place (the wrappers hold them), e.g. to leave
        set-up work out. Call it outside any wrapped call."""
        for stat in self.stats.values():
            vars(stat).update(vars(Stat()))

    def self_ns(self):
        """Self time summed over every wrapped function so far."""
        return sum(stat.self_ns for stat in self.stats.values())

    def snapshot(self):
        return {label: stat.as_dict() for label, stat in self.stats.items()}
