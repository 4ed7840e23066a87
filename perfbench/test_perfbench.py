"""Self-tests of the benchmark: its generated inputs, its verdict checkers,
and one independent check of the span the dense workload relies on.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import numpy as np
import pytest

import checks
import inputs
import workloads
from lkholonomy import geometry as G
from lkholonomy.curvspace import _full_algebra, berger_check
from lkholonomy.serialization import build_metric_from_config, decode_algebra

SEEDS = [0, 1, 7]


# -- generated inputs -------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_dense_potentials_are_real_walker(seed):
    for n, order, _, _, f in workloads.dense_potentials(seed):
        assert f.is_real_valued(), (n, order)
        assert G.metric_from_potential(f).is_walker(), (n, order)


@pytest.mark.parametrize("seed", SEEDS)
def test_ppwave_potentials_are_real_walker(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2):
        m = build_metric_from_config({"kind": "ppwave", "n": n, "order": 8,
                                      "phi_terms": inputs.ppwave_profile(rng, n)})
        assert m.potential.is_real_valued()
        assert m.is_walker()


def test_n0_dense_inputs_ignore_the_seed():
    a = [f for n, *_, f in workloads.dense_potentials(1) if n == 0]
    b = [f for n, *_, f in workloads.dense_potentials(2) if n == 0]
    assert a and all(x.coeffs == y.coeffs for x, y in zip(a, b))


def test_basis_change_keeps_the_span():
    rng = np.random.default_rng(3)
    for d in inputs.regression_descriptors():
        alg = decode_algebra(d)
        copy = decode_algebra(inputs.basis_file(d["n"], inputs.real_basis_change(rng, alg.basis)))
        assert copy.equals(alg)


# -- checkers reject wrong verdicts -----------------------------------------

def test_full_curvature_dim_matches_solver():
    for n in (1, 2):
        assert berger_check(_full_algebra(n))["dim_R_space"] == checks.full_curvature_dim(n)
    assert [checks.full_curvature_dim(n) for n in (1, 2, 3, 4)] == [15, 44, 110, 237]


def test_check_dense_rejects():
    good = dict(n=1, dim=6, stabilized=True, family="GK", dim_k=3, bracket_residual=1e-15)
    assert checks.check_dense(**good) == []
    assert checks.check_dense(**{**good, "family": "GKL"})
    assert checks.check_dense(**{**good, "dim": 7})
    assert checks.check_dense(**{**good, "dim_k": 4})
    assert checks.check_dense(**{**good, "stabilized": False})
    assert checks.check_dense(**{**good, "bracket_residual": 1e-6})
    assert checks.check_dense(**{**good, "n": 0, "dim": 3, "family": "G1"}) == []
    assert checks.check_dense(**{**good, "n": 0, "dim": 3, "family": "UNKNOWN"})


@pytest.mark.parametrize("source", inputs.regression_descriptors() + inputs.n0_descriptors())
def test_check_classify_and_holonomy_reject(source):
    got = {k: v for k, v in source.items() if k in ("family", "n", "m", "r", "gamma")}
    res = {"descriptor": got, "dim": checks.family_dim(source), "stabilized": True}
    assert checks.check_classify(0, res, source) == []
    assert checks.check_classify(2, res, source)
    assert checks.check_classify(0, {**res, "dim": res["dim"] + 1}, source)
    wrong = {**got, "family": "GKL" if source["family"] != "GKL" else "GK"}
    assert checks.check_classify(0, {**res, "descriptor": wrong}, source)
    if "n" in source:
        assert checks.check_holonomy(0, res, source) == []
        assert checks.check_holonomy(0, {**res, "stabilized": False}, source)
        assert checks.check_holonomy(0, {**res, "descriptor": {**got, "n": got["n"] + 1}},
                                     source)


def test_check_ppwave_rejects():
    res = {flag: True for flag in checks.PPWAVE_FLAGS} | {"parallel_p": True}
    assert checks.check_ppwave(0, res, True) == []
    assert checks.check_ppwave(0, res, False)
    assert checks.check_ppwave(0, {**res, "cond3_mixed_curvature": False}, True)
    assert checks.check_ppwave(0, {**res, "parallel_p": False}, True)
    gk = next(d for d in inputs.regression_descriptors() if d["family"] == "GK")
    gkl = next(d for d in inputs.regression_descriptors() if d["family"] == "GKL")
    assert not checks.ppwave_expected(gk) and checks.ppwave_expected(gkl)


def test_check_validate_and_symspace_reject():
    res = {"hermitian_residual": 0.0, "kahler_residual": 1e-15, "inverse_residual": 1e-14,
           "frame_gram_residual": 1e-13, "is_walker": True}
    assert checks.check_validate(0, res) == []
    assert checks.check_validate(0, {**res, "kahler_residual": 1e-6})
    assert checks.check_validate(0, {**res, "is_walker": False})
    sym = {"jacobi": True, "g_equals_image": True, "calabi_yau": True}
    assert checks.check_symspace(0, sym, "a") == []
    assert checks.check_symspace(0, sym, "f")
    assert checks.check_symspace(0, {**sym, "jacobi": False}, "d")


def test_check_berger_rejects():
    res = {"dim": 6, "dim_R_space": 15, "is_berger": True, "generated_dim": 6}
    assert checks.check_berger(0, res, dim_R_space=15) == []
    assert checks.check_berger(0, res, dim_R_space=16)
    assert checks.check_berger(0, {**res, "is_berger": False})
    assert checks.check_berger(0, {**res, "generated_dim": 5})
    no_ir = {"dim": 2, "dim_R_space": 0, "is_berger": False, "generated_dim": 0}
    assert checks.check_berger(0, no_ir, is_berger=False) == []
    assert checks.check_berger(0, {**no_ir, "is_berger": True}, is_berger=False)


# -- the radial-gauge span against the direct iterated derivatives ----------

def test_direct_span_matches_radial_gauge_span():
    rng = np.random.default_rng(5)
    f = inputs.dense_walker_potential(rng, 1, 6, 6)
    m = G.metric_from_potential(f)
    hol = G.infinitesimal_holonomy(m, r_max=2)
    assert len(G.iterated_covariant_span(m, r_max=2)) == hol.complex_dim
