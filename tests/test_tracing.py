"""The benchmark's per-layer tracer (perfbench/tracing.py) wraps library
functions by name.  Installing it must find every traced name, and
uninstalling it must put every original back, so that renaming or deleting a
traced function fails here and not only in a traced benchmark run."""
import pathlib

import numpy as np
import pytest

from lkholonomy import potentials
from lkholonomy.jets import Jet, JetSpace

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def _bindings(tracing) -> dict:
    """Every name bound in an lkholonomy module, plus the Jet product and
    the SVD, which the tracer also wraps."""
    out = {(mod.__name__, attr): val
           for mod in tracing._modules() for attr, val in vars(mod).items()}
    out["Jet.__mul__"], out["Jet.__rmul__"] = Jet.__mul__, Jet.__rmul__
    out["np.linalg.svd"] = np.linalg.svd
    return out


def test_tracer_wraps_every_span_and_restores_it(tracing):
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings(tracing)
        for _, module, names, _ in tracing.SPANS:
            for name in names:
                key = (f"lkholonomy.{module}", name)
                assert during[key] is not before[key], key
        for key in [("lkholonomy.curvspace", "_complex_span_basis"),
                    ("lkholonomy.lie", "sigma_involution"), "Jet.__mul__", "np.linalg.svd"]:
            assert during[key] is not before[key], key
    finally:
        tracer.uninstall()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_calls_count_products_and_potential_terms(tracing):
    """A traced jet product adds |a| |b| to jets.mul_pairs, and a traced
    potential adds its term count to potentials.terms."""
    a = Jet(2, 3, {((1, 0), (0, 0)): 1.0, ((0, 0), (0, 1)): 2.0, ((0, 0), (0, 0)): 0.5})
    b = Jet(2, 3, {((0, 1), (0, 0)): 1.5j, ((0, 0), (0, 0)): 1.0})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        a * b
        assert tracer.counts["jets.mul_pairs"] == len(a.terms) * len(b.terms)
        f = potentials.fc_potential(JetSpace(2, 4), 1.0, 0.5)
        assert tracer.counts["potentials.terms"] == len(f.terms)
    finally:
        tracer.uninstall()
