"""The tracer wraps without changing results and puts everything back."""

import contextlib
import io
import sys

import pytest

import k3fermat.cli as cli
from tracer import LAYERS, Tracer

OPS = [["zeta", "--k", "12", "--q", "37"], ["verify", "--k", "12"],
       ["count", "--k", "19", "--q", "191"]]


def bindings():
    """id of every attribute of every k3fermat module and class."""
    out = {}
    for name, mod in sys.modules.items():
        if name.startswith("k3fermat"):
            for attr, value in vars(mod).items():
                out[(name, attr)] = id(value)
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = id(cvalue)
    return out


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv + ["--json"]) == 0
    return buf.getvalue().encode()


@pytest.mark.parametrize("argv", OPS, ids=" ".join)
def test_traced_report_bytes_match_untraced(argv):
    plain = run(argv)
    with Tracer():
        traced = run(argv)
    assert traced == plain


def test_wrapped_names_are_restored():
    before = bindings()
    with Tracer() as tracer:
        assert bindings() != before
        run(OPS[0])
    assert bindings() == before
    assert tracer.stats["kernels.jacobi_counts"].calls > 0


def test_every_binding_is_wrapped():
    with Tracer():
        from k3fermat import jacobi_zeta, kernels, pointcount
        from k3fermat.cyclotomic import CycInt
        for fn in (kernels.jacobi_counts, jacobi_zeta.jacobi_counts,
                   pointcount.chi_cubic_sum, cli.make_field, CycInt.__mul__):
            assert hasattr(fn, "__wrapped__")


def test_self_time_within_inclusive_time():
    with Tracer() as tracer:
        for argv in OPS:
            run(argv)
    called = 0
    for spec in LAYERS:
        stat = tracer.stats[spec.label]
        assert 0 <= stat.self_ns <= stat.incl_ns
        called += stat.calls > 0
    assert called >= 10


def test_reset_zeroes_stats_and_keeps_counting():
    with Tracer() as tracer:
        run(OPS[0])
        tracer.reset()
        assert tracer.self_ns() == 0
        assert all(stat.calls == 0 for stat in tracer.stats.values())
        run(OPS[0])
    assert tracer.stats["kernels.jacobi_counts"].calls > 0
