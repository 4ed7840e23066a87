"""Metric jets, curvature, frames, holonomy spans: frozen desk oracles."""
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from oracles import is_ppwave, jmat_residual, reference_mul, same_matrix_bits

from lkholonomy import classify as C
from lkholonomy import cli
from lkholonomy import geometry as G
from lkholonomy import potentials as P
from lkholonomy import serialization as S
from lkholonomy.config import DEFAULT_TOL
from lkholonomy.jetmat import (jmat_add, jmat_derivative, jmat_eval0, jmat_inverse,
                               jmat_max_abs, jmat_mul, jmat_scale, jmat_truncated)
from lkholonomy.jets import MASK, JetSpace, real_part
from lkholonomy.lie import MatrixAlgebra, row_space

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _fc_metric(a, b, order=8):
    space = JetSpace(2, order)
    return G.metric_from_potential(P.fc_potential(space, a, b))


def _nondiagonal_metric(order=6):
    """n = 2 Walker metric whose base-point h_{jbar k} block is Hermitian
    but not diagonal, and depends on u."""
    space = JetSpace(4, order)
    z, zb = [space.variable(k) for k in (1, 2)], [space.conj_variable(k) for k in (1, 2)]
    u, ub = space.variable(3), space.conj_variable(3)
    H = np.array([[2.0, 0.5 - 0.5j], [0.5 + 0.5j, 1.0]])
    f = P.fc_potential(space, 1.0, 0.5) + real_part(u * ub * zb[0] * z[1] * 0.3)
    for j in range(2):
        for k in range(2):
            f = f + zb[j] * z[k] * H[j, k]
    m = G.metric_from_potential(f)
    assert m.is_walker()
    return m


def test_flat_metric_everything_vanishes():
    for n in (0, 1, 3):
        space = JetSpace(n + 2, 7)
        f = P.fc_potential(space, 0.0, 0.0) + P.fun_potential(space, n, [])
        m = G.metric_from_potential(f)
        gamma = G.christoffel(m)
        assert max(jmat_max_abs(g) for g in gamma) < 1e-12
        curv = G.curvature(m)
        assert max(jmat_max_abs(c) for row in curv for c in row) < 1e-12
        hol = G.infinitesimal_holonomy(m, r_max=3)
        assert hol.algebra.dim == 0


def test_fc_huv_series_identity():
    """h_{ubar v} must equal exp(-i a u ubar - (i b / 4)(u ubar)^2)."""
    a, b = 1.0, 1.0
    m = _fc_metric(a, b)
    space = m.space
    u, ub = space.variable(1), space.conj_variable(1)
    target = (u * ub * (-1j * a) + u * u * ub * ub * (-0.25j * b)).exp()
    assert (m.h[1, 0] - target).max_abs() < 1e-12


def test_fc_christoffel_oracle():
    a, b = 1.0, 1.0
    m = _fc_metric(a, b)
    space = m.space
    u, ub = space.variable(1), space.conj_variable(1)
    gamma = G.christoffel(m)
    target = ub * (-1j * a) + u * ub * ub * (-0.5j * b)
    assert (gamma[1][0, 0] - target).max_abs() < 1e-9


def test_fc_curvature_oracle():
    a, b = 1.0, 1.0
    m = _fc_metric(a, b)
    space = m.space
    u, ub = space.variable(1), space.conj_variable(1)
    curv = G.curvature(m)
    target = space.constant(1j * a) + u * ub * (1j * b)
    assert (curv[1][1][0, 0] - target).max_abs() < 1e-9


def test_fc_second_covariant_derivative_oracle():
    a, b = 1.0, 1.0
    m = _fc_metric(a, b)
    gamma = G.christoffel(m)
    curv = G.curvature(m)
    xi = G.covariant_derivative(curv[1][1], gamma, 1, holomorphic=True)
    xi = G.covariant_derivative(xi, gamma, 1, holomorphic=False)
    from lkholonomy.jetmat import jmat_eval0
    assert abs(jmat_eval0(xi)[0, 0] - 1j * b) < 1e-9


def test_walker_inverse_equals_generic():
    for d in ((1.0, 1.0),):
        m = _fc_metric(*d)
        assert jmat_residual(G.walker_inverse(m), G.generic_inverse(m)) < 1e-10
    m2 = P.small_dim_metric("g2", order=6)
    assert jmat_residual(G.walker_inverse(m2), G.generic_inverse(m2)) < 1e-10


def test_witt_frame_gram():
    m = _fc_metric(1.0, 1.0)
    F = G.witt_frame(m)
    assert G.frame_gram_residual(m, F) < 1e-10


def _inputs(monkeypatch):
    """The benchmark's input generators, loaded by file path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # inputs.py imports common
    spec = importlib.util.spec_from_file_location("inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _dense_walker_potential(monkeypatch, seed, n, order):
    """The benchmark's seeded dense Walker potential."""
    return _inputs(monkeypatch).dense_walker_potential(np.random.default_rng(seed),
                                                       n, order, order)


def test_witt_frame_when_the_square_root_step_stalls(monkeypatch):
    """On this dense n = 1, order-8 Walker potential the Denman-Beavers step
    of the h_{jbar k} square root settles near 2e-12 from rounding, above
    the absolute stop of 1e-12; the frame must still come back."""
    f = _dense_walker_potential(monkeypatch, (28, 4), 1, 8)
    m = G.metric_from_potential(f)
    F = G.witt_frame(m)
    assert G.frame_gram_residual(m, F) < 1e-9


def test_witt_frame_of_an_indefinite_block_is_a_degeneracy():
    space = JetSpace(3, 6)
    z, zb = space.variable(1), space.conj_variable(1)
    m = G.metric_from_potential(P.fc_potential(space, 0.0, 0.0) - z * zb)
    with pytest.raises(G.DegeneracyError, match="frame factor C"):
        G.witt_frame(m)


@pytest.mark.parametrize("metric", ["fc", "nondiagonal"])
def test_gauge_is_parallel_along_the_radial_field(metric):
    """sum_c z^c (d_c P + Gamma_c P) + zbar^c d_cbar P = 0: nabla_cbar is
    the plain derivative, so the radial field's covariant derivative is the
    total Euler operator plus sum_c z^c Gamma_c."""
    m = _fc_metric(1.0, 0.5) if metric == "fc" else _nondiagonal_metric()
    P = G.radial_parallel_gauge(m.gamma)
    assert P[0, 0].order == m.space.order - 1
    total = None
    for c in range(m.dim):
        holo = jmat_add(jmat_derivative(P, c), jmat_mul(m.gamma[c], P))
        term = jmat_add(jmat_scale(holo, m.space.variable(c)),
                        jmat_scale(jmat_derivative(P, c, holomorphic=False),
                                   m.space.conj_variable(c)))
        total = term if total is None else jmat_add(total, term)
    assert jmat_max_abs(total) < 1e-12 * max(jmat_max_abs(P), 1.0)


def test_metric_invariants():
    m = _fc_metric(1.0, 1.0)
    assert m.hermitian_residual() < 1e-12
    assert m.kahler_residual() < 1e-12
    assert m.is_walker()


def test_degenerate_potential_rejected():
    space = JetSpace(2, 4)
    # f = |v|^2 has h_{ubar v} = 0: the isotropic pairing degenerates
    f = space.variable(0) * space.conj_variable(0)
    with pytest.raises(G.DegeneracyError):
        G.metric_from_potential(f)
    # an h_{jbar k} block that is not positive definite has no Witt frame
    space = JetSpace(3, 6)
    z, zb = space.variable(1), space.conj_variable(1)
    m = G.metric_from_potential(P.fc_potential(space, 0.0, 0.0) - z * zb)
    with pytest.raises(G.DegeneracyError):
        G.infinitesimal_holonomy(m, r_max=2)


def test_holonomy_matches_iterated_span():
    m = _fc_metric(1.0, 1.0)
    hol = G.infinitesimal_holonomy(m, r_max=3)
    direct = G.iterated_covariant_span(m, 3)
    assert hol.algebra.dim == len(direct)


@pytest.mark.xfail(
    reason="the span is declared stabilized when its last two dimensions agree, "
    "so the plateau [4, 4, 5, 5] at r_max = 3 ends the span at dimension 5; "
    "the family has dimension 6, which order 9 with r_max = 5 reaches",
    strict=True)
def test_holonomy_does_not_stop_on_a_plateau(suite):
    d = suite[0]  # GK, k = C + u(1), n = 1
    m = G.metric_from_potential(P.build_potential(d, order=7))
    hol = G.infinitesimal_holonomy(m, r_max=3)
    assert not hol.stabilized or hol.algebra.dim == C.family_dim(d)


def test_ppwave_check_positive_and_negative():
    space = JetSpace(3, 8)
    z, ub = space.variable(1), space.conj_variable(2)
    phi = z * z * ub * ub + z * ub * ub * ub * 0.5
    m = G.metric_from_potential(P.ppwave_potential(space, 1, phi))
    rep = G.ppwave_check(m)
    assert rep.parallel_p and is_ppwave(rep) and rep.consistent
    hol = G.infinitesimal_holonomy(m, r_max=3)
    assert hol.algebra.dim == 3  # C^1 |x iR

    bad = _fc_metric(1.0, 0.0)
    rep2 = G.ppwave_check(bad)
    assert not rep2.parallel_p and not is_ppwave(rep2)


def test_insufficient_order_raises():
    m = _fc_metric(1.0, 1.0, order=4)
    with pytest.raises(Exception):
        G.infinitesimal_holonomy(m, r_max=5)


def test_frame0_is_the_witt_frame_at_the_base_point():
    m = _nondiagonal_metric()
    assert abs(m.gram0()[1, 2]) > 0.5
    assert np.abs(m.frame0 - jmat_eval0(G.witt_frame(m))).max() < 1e-12


def test_holonomy_takes_no_jet_square_root(monkeypatch):
    def refuse(A):
        raise AssertionError("jmat_sqrt called")

    monkeypatch.setattr(G, "jmat_sqrt", refuse)
    hol = G.infinitesimal_holonomy(_nondiagonal_metric(), r_max=2)
    assert hol.algebra.dim > 0


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts of christoffel and curvature builds."""
    calls = {"christoffel": 0, "curvature": 0}
    for name in calls:
        def counted(*args, fn=getattr(G, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(G, name, counted)
    return calls


def test_ppwave_check_builds_each_stage_once(stage_calls):
    G.ppwave_check(_fc_metric(1.0, 1.0))
    assert stage_calls == {"christoffel": 1, "curvature": 1}


def test_cli_holonomy_builds_each_stage_once(stage_calls, tmp_path, capsys):
    p = tmp_path / "fc.json"
    p.write_text(json.dumps({"kind": "fc", "a": 1.0, "b": 1.0, "order": 8}))
    assert cli.main(["holonomy", "--potential", str(p)]) == cli.EXIT_OK
    assert stage_calls == {"christoffel": 1, "curvature": 1}


def test_gauge_is_built_from_gamma_truncated_to_r_max(monkeypatch):
    seen = {}

    def recording(gamma, fn=G.radial_parallel_gauge):
        jets = [j for g in gamma for j in g.flat]
        seen["orders"] = {j.order for j in jets}
        seen["top_degree"] = max((sum(I) + sum(J) for j in jets for I, J in j.coeffs),
                                 default=0)
        return fn(gamma)

    monkeypatch.setattr(G, "radial_parallel_gauge", recording)
    m = _fc_metric(1.0, 1.0, order=9)
    G.infinitesimal_holonomy(m, r_max=3)
    assert m.gamma[0][0, 0].order == m.space.order - 1  # the cached stage keeps full order
    assert seen == {"orders": {3}, "top_degree": 3}


def test_truncated_conjugation_keeps_every_coefficient_it_reads(monkeypatch):
    """P^{-1} R P from full-order Gamma, P and R has, up to degree r_max,
    the same keys in the same order and bit-equal coefficients as the one
    the holonomy builds from operands cut at r_max."""
    r_max = 3
    m = G.metric_from_potential(_dense_walker_potential(monkeypatch, (0, 3), 1, 7))
    P_full = G.radial_parallel_gauge(m.gamma)
    P = G.radial_parallel_gauge([jmat_truncated(g, r_max) for g in m.gamma])
    Pinv_full, Pinv = jmat_inverse(P_full), jmat_inverse(P)
    for c in range(m.dim):
        for d in range(m.dim):
            full = jmat_mul(Pinv_full, jmat_mul(m.curv[c][d], P_full))
            cut = jmat_mul(Pinv, jmat_mul(jmat_truncated(m.curv[c][d], r_max), P))
            for idx in np.ndindex(*full.shape):
                low = {k: v for k, v in full[idx].coeffs.items()
                       if sum(k[0]) + sum(k[1]) <= r_max}
                assert list(low) == list(cut[idx].coeffs)
                assert (np.array(list(low.values()), complex).tobytes()
                        == np.array(list(cut[idx].coeffs.values()), complex).tobytes())


def _reference_holonomy(m, r_max):
    """infinitesimal_holonomy with every block P^-1 R_cd P, zero or not,
    conjugated through the entrywise product: dims_by_order, the basis and
    the bracket residual."""
    Q = m.frame0
    Qinv = np.linalg.inv(Q)
    P = G.radial_parallel_gauge([jmat_truncated(g, r_max) for g in m.gamma])
    Pinv = jmat_inverse(P)
    coeffs_by_deg = {r: [] for r in range(r_max + 1)}
    for row in m.curv:
        for R in row:
            M = reference_mul(Pinv, reference_mul(jmat_truncated(R, r_max), P))
            table = {}
            for idx in np.ndindex(*M.shape):
                for key, val in M[idx].terms.items():
                    if key & MASK <= r_max:
                        table.setdefault(key, np.zeros((m.dim, m.dim), complex))[idx] = val
            for key, mat in table.items():
                coeffs_by_deg[key & MASK].append(Qinv @ mat @ Q)
    scale = max((np.abs(w).max() for ws in coeffs_by_deg.values() for w in ws), default=1.0)
    dims, rows = [], np.zeros((0, m.dim * m.dim), complex)
    for r in range(r_max + 1):
        new = [w.ravel() / scale for w in coeffs_by_deg[r]
               if np.abs(w).max() > DEFAULT_TOL.coeff_zero * scale]
        rows = row_space(np.vstack([rows, *new]))
        dims.append(len(rows))
    alg = MatrixAlgebra(m.n, G._real_points([row.reshape(m.dim, m.dim) for row in rows]))
    return dims, alg.basis, alg.bracket_residual()


@pytest.mark.parametrize("metric", ["flat", "gkl", "dense"])
def test_holonomy_skipping_zero_blocks_matches_the_full_conjugation(metric, suite, monkeypatch):
    """Skipping the blocks R_cd with no terms changes no bit: on the flat
    metric (all 16 blocks zero), the order-9 GKL(2, 0) potential (11 of 16)
    and a seeded dense n = 1 potential (3 of 9)."""
    if metric == "flat":
        space = JetSpace(4, 9)
        f = P.fc_potential(space, 0.0, 0.0) + P.fun_potential(space, 2, [])
    elif metric == "gkl":
        f = P.build_potential(suite[6], order=9)
    else:
        f = _dense_walker_potential(monkeypatch, (0, 3), 1, 7)
    m = G.metric_from_potential(f)
    r_max = m.space.order - 4
    zero = [not any(j.terms for j in jmat_truncated(R, r_max).flat)
            for row in m.curv for R in row]
    assert sum(zero) == {"flat": 16, "gkl": 11, "dense": 3}[metric]
    hol = G.infinitesimal_holonomy(m, r_max)
    dims, basis, bracket = _reference_holonomy(m, r_max)
    assert hol.dims_by_order == dims
    assert np.array(hol.algebra.basis).tobytes() == np.array(basis).tobytes()
    assert np.float64(hol.bracket_residual).tobytes() == np.float64(bracket).tobytes()


@pytest.mark.parametrize("metric", ["dense-n0", "dense-n1", "dense-n2", "gk-n1", "gk0psi-n2",
                                    "not-walker"])
def test_gamma_from_the_cut_inverse_is_gamma_from_the_full_inverse(metric, suite, monkeypatch):
    """Gamma built from h^-1 at order - 1 has the keys, the key order and
    the bits of Gamma built from the full-order `hinv`: on seeded dense
    Walker potentials at n = 0, 1, 2, two regression descriptors at order
    10, and a metric outside the Walker form, whose inverse is the generic
    one."""
    if metric.startswith("dense"):
        n = int(metric[-1])
        f = _dense_walker_potential(monkeypatch, (0, n), n, (8, 7, 6)[n])
    elif metric == "not-walker":
        space = JetSpace(3, 7)
        z, zb = space.variable(1), space.conj_variable(1)
        v, vb = space.variable(0), space.conj_variable(0)
        f = P.fc_potential(space, 1.0, 0.5) + z * zb + v * vb * 0.5 + real_part(v * z * zb * 0.3)
    else:
        f = P.build_potential(suite[0 if metric == "gk-n1" else 8], order=10)
    m = G.metric_from_potential(f)
    assert m.is_walker() == (metric != "not-walker")
    hinv_t = m.hinv.T.copy()
    assert hinv_t[0, 0].order == m.space.order
    for c in range(m.dim):
        assert same_matrix_bits(m.gamma[c], jmat_mul(hinv_t, jmat_derivative(m.h, c)))


def _skew_and_sum_max_abs_of_jets(X, Y):
    return max(jmat_max_abs(jmat_add(X, jmat_scale(Y, -1.0))), jmat_max_abs(jmat_add(X, Y)))


def _real_curvature_residual_from_jets(m):
    """The pp-wave real-curvature residual as the jet sums R_cd - R_dc and
    R_cd + R_dc over c, d <= n give it."""
    worst = 0.0
    for c in range(m.n + 1):
        for d in range(m.n + 1):
            worst = max(worst, _skew_and_sum_max_abs_of_jets(m.curv[c][d], m.curv[d][c]))
    return float(worst)


def test_skew_and_sum_residual_reads_the_keys_of_either_side():
    """The largest coefficient may sit on a key of X only, of Y only, or of
    both."""
    space = JetSpace(2, 3)
    x, y = space.variable(0), space.conj_variable(1)
    X = np.array([[x * 0.5 + y * 0.25, y * -4.0]], dtype=object)
    for Y, want in [(np.array([[x * 0.5 + y * y * -3.0, x]], dtype=object), 4.0),
                    (np.array([[x * 0.5 + y * y * -5.0, x]], dtype=object), 5.0),
                    (np.array([[x * 6.0, y]], dtype=object), 6.5)]:
        assert G._skew_and_sum_max_abs(X, Y) == _skew_and_sum_max_abs_of_jets(X, Y) == want


def test_real_curvature_residual_is_the_residual_of_the_jet_sums(suite, monkeypatch):
    """ppwave_check reads the residual from the term dicts with the bits of
    the jet sums, on the ten regression descriptors at order 8 and the six
    pp-wave profiles of the benchmark's verdict-mix at seed 0."""
    inputs = _inputs(monkeypatch)
    rng = np.random.default_rng((0, 1))
    metrics = [G.metric_from_potential(P.build_potential(d, order=8)) for d in suite[:10]]
    metrics += [S.build_metric_from_config({"kind": "ppwave", "n": n, "order": 8,
                                            "phi_terms": inputs.ppwave_profile(rng, n)})
                for n in (1, 1, 1, 2, 2, 2)]
    nonzero = 0
    for m in metrics:
        got = G.ppwave_check(m).residuals["real_curvature_residual"]
        want = _real_curvature_residual_from_jets(m)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        nonzero += want > 0
    assert nonzero == 7  # the pp-wave profiles and GKL with m = 0 give exactly 0
