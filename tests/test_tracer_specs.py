"""The benchmark tracer (perfbench/tracer.py) wraps k3fermat functions by
name, and calls each spec's work and key functions with the wrapped
function's arguments. So every wrapped function must keep its name and its
number of positional arguments; this checks both without running a
benchmark.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("k3fermat_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def positional(function):
    """Number of positional parameters of function."""
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return sum(p.kind in kinds for p in inspect.signature(function).parameters.values())


@pytest.mark.parametrize("spec", tracer.LAYERS, ids=lambda spec: spec.label)
def test_tracer_spec_resolves_and_matches_the_arity_it_wraps(spec):
    try:
        original = tracer._resolve(spec)[2]
    except (ImportError, AttributeError, KeyError) as exc:
        pytest.fail(f"{spec.label} does not resolve: {exc!r}")
    want = positional(original)
    for role in ("work", "key"):
        function = getattr(spec, role)
        if function is not None:
            got = positional(function)
            assert got == want, f"{spec.label}: {role} takes {got} arguments, the function {want}"
