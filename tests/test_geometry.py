"""Metric jets, curvature, frames, holonomy spans: frozen desk oracles."""
import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (is_ppwave, jmat_radial_gauge, jmat_residual, list_real_points,
                     list_real_span_basis, list_span_by_degree, reference_inverse,
                     reference_mul, reference_sqrt, same_bits, same_matrix_bits, table_jmat)

from lkholonomy import classify as C
from lkholonomy import cli
from lkholonomy import geometry as G
from lkholonomy import jetmat
from lkholonomy import potentials as P
from lkholonomy import serialization as S
from lkholonomy.config import DEFAULT_TOL
from lkholonomy.jetmat import (jmat_add, jmat_derivative, jmat_eval0, jmat_inverse,
                               jmat_max_abs, jmat_mul, jmat_scale, jmat_sqrt, jmat_truncated)
from lkholonomy.jets import MASK, Jet, JetSpace, real_part
from lkholonomy.lie import MatrixAlgebra, parabolic_mask, row_space

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


def _cut_h_uu(m, order):
    """The Walker metric m with h_{ubar u} cut to a lower order than the
    rest of h."""
    h = m.h.copy()
    h[m.u, m.u] = h[m.u, m.u].truncated(order)
    return G.MetricJet(m.n, h)


def test_walker_row_and_frame_column_are_the_entrywise_loops_bit_for_bit(suite):
    """h^{vbar k} of walker_inverse and the v-row of witt_frame's e_j, now
    jmat_mul products, have the order, the keys in the same order and the
    bits of the loops acc = acc + x * y from space.zero(): on the ten
    regression descriptors at order 9, the nondiagonal metric, and both
    with h_{ubar u} two orders below the rest of h."""
    metrics = [G.metric_from_potential(P.build_potential(d, order=9)) for d in suite[:10]]
    metrics.append(_nondiagonal_metric())
    metrics += [_cut_h_uu(m, m.space.order - 2) for m in (metrics[0], metrics[-1])]
    for m in metrics:
        n, v, u, space = m.n, m.v, m.u, m.space
        tilde = m.h[1:n + 1, 1:n + 1]
        tinv, C = jmat_inverse(tilde).T, jmat_inverse(jmat_sqrt(tilde))
        hinv, F = G.walker_inverse(m), G.witt_frame(m)
        for k in range(n):
            row = col = space.zero()
            for j in range(n):
                row = row + m.h[1 + j, u] * tinv[j, k]
                col = col + C[j, k] * m.h[u, 1 + j]
            assert same_bits(hinv[v, 1 + k], row * m.h[v, u].reciprocal() * (-1.0))
            assert same_bits(F[v, 1 + k], col * m.h[u, v].reciprocal() * (-1.0))
            assert hinv[v, 1 + k].order == F[v, 1 + k].order == space.order


def test_the_gauge_inverse_does_not_call_graded_inverse(monkeypatch):
    """P^-1's step is its own pass, 0.0 + (-1-0j) c per term, not the
    graded inverse's table product by the constant -I."""
    def refuse(*args):
        raise AssertionError("radial_parallel_gauge called graded_inverse")

    monkeypatch.setattr(jetmat, "graded_inverse", refuse)
    monkeypatch.setattr(G, "graded_inverse", refuse, raising=False)
    m = _fc_metric(1.0, 0.5)
    P_table, Pinv_table = G.radial_parallel_gauge(m.gamma, 3)
    assert P_table and Pinv_table


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
    total Euler operator plus sum_c z^c Gamma_c.  Checked on the term table
    of P to the full order of Gamma."""
    m = _fc_metric(1.0, 0.5) if metric == "fc" else _nondiagonal_metric()
    r_max = m.space.order - 1
    P = table_jmat(G.radial_parallel_gauge(m.gamma, r_max)[0], (m.dim, m.dim),
                   JetSpace(m.dim, r_max))
    assert P[0, 0].order == m.space.order - 1
    total = None
    for c in range(m.dim):
        holo = jmat_add(jmat_derivative(P, c), jmat_mul(m.gamma[c], P))
        term = jmat_add(jmat_scale(holo, m.space.variable(c)),
                        jmat_scale(jmat_derivative(P, c, holomorphic=False),
                                   m.space.conj_variable(c)))
        total = term if total is None else jmat_add(total, term)
    assert jmat_max_abs(total) < 1e-12 * max(jmat_max_abs(P), 1.0)


def test_mirrored_metric_entries_differ_in_their_last_bit():
    """h[b, a] is not conj(h[a, b]) bit for bit in general, so h cannot be
    built as half its entries and their conjugates.  The term c v^3 ubar^5
    gives h[u, v] the coefficient 0.0 + 5 (0.0 + 3 c) and its conjugate term
    gives h[v, u] the coefficient 0.0 + 3 (0.0 + 5 conj(c)); with c = 0.1 +
    0.7i their real parts differ (3 (5 x) is not 5 (3 x) for 26 % of random
    x).  Mirroring would also make hermitian_residual compare each entry
    with its own mirror, so that check could never fail."""
    c = 0.1 + 0.7j
    # f = Re(v ubar) + Re(c v^3 ubar^5), coordinates v = 0 and u = 1
    m = G.metric_from_potential(real_part(Jet(2, 8, {((1, 0), (0, 1)): 1.0,
                                                     ((3, 0), (0, 5)): c})))
    uv = m.h[1, 0].coeffs[((2, 0), (0, 4))]
    vu = m.h[0, 1].coeffs[((0, 4), (2, 0))]
    assert np.complex128(uv).tobytes() == np.complex128(0.0 + 5 * (0.0 + 3 * c)).tobytes()
    assert np.complex128(vu).tobytes() == np.complex128(
        0.0 + 3 * (0.0 + 5 * c.conjugate())).tobytes()
    assert vu != uv.conjugate()
    assert m.hermitian_residual() > 0


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
    """Also at order 10 with r_max 3, where the span alone would cut Gamma
    to r_max + 1: ppwave_check reads the full Gamma first, and the span
    reuses it and the full R."""
    for order, r_max in [(8, 3), (10, 3)]:
        stage_calls.update(christoffel=0, curvature=0)
        G.ppwave_check(_fc_metric(1.0, 1.0, order), r_max)
        assert stage_calls == {"christoffel": 1, "curvature": 1}


def test_cli_holonomy_builds_each_stage_once(stage_calls, tmp_path, capsys):
    """Also at order 10 with r_max 3: Ricci caches the full Gamma and R
    before the span, which reuses them."""
    p = tmp_path / "fc.json"
    for order, rmax in [(8, []), (10, ["--rmax", "3"])]:
        stage_calls.update(christoffel=0, curvature=0)
        p.write_text(json.dumps({"kind": "fc", "a": 1.0, "b": 1.0, "order": order}))
        assert cli.main(["holonomy", "--potential", str(p), *rmax]) == cli.EXIT_OK
        assert stage_calls == {"christoffel": 1, "curvature": 1}


def test_gauge_is_built_from_gamma_truncated_to_r_max(monkeypatch):
    """The holonomy's gauge gets Gamma cut to r_max + 1 when no Gamma is
    cached, and reads no Gamma term of degree >= r_max: with every such
    term of the full Gamma set to nan, P and P^-1 keep their keys and bits.
    The cut Gamma is not cached, and the cached stage keeps full order."""
    seen = {}

    def recording(gamma, r_max, fn=G.radial_parallel_gauge):
        seen["gamma"], seen["r_max"] = gamma, r_max
        return fn(gamma, r_max)

    monkeypatch.setattr(G, "radial_parallel_gauge", recording)
    m = _fc_metric(1.0, 1.0, order=9)
    G.infinitesimal_holonomy(m, r_max=3)
    assert seen["r_max"] == 3 and seen["gamma"][0][0, 0].order == 4
    assert "gamma" not in vars(m)
    assert m.gamma[0][0, 0].order == m.space.order - 1
    poisoned, high = [], 0
    for g in m.gamma:
        p = np.empty(g.shape, dtype=object)
        for idx, jet in np.ndenumerate(g):
            p[idx] = Jet(jet.num_coords, jet.order)
            p[idx].terms = {k: v if k & MASK < 3 else complex("nan") for k, v in jet.terms.items()}
            high += sum(k & MASK >= 3 for k in jet.terms)
        poisoned.append(p)
    assert high > 0
    space = JetSpace(m.dim, 3)
    for want, cut, got in zip(G.radial_parallel_gauge(m.gamma, 3),
                              G.radial_parallel_gauge(seen["gamma"], 3),
                              G.radial_parallel_gauge(poisoned, 3)):
        for table in (cut, got):
            assert same_matrix_bits(table_jmat(table, (m.dim, m.dim), space),
                                    table_jmat(want, (m.dim, m.dim), space))


@pytest.mark.parametrize("metric", ["dense", "suite-o10"])
def test_holonomy_from_the_cut_gamma_is_the_holonomy_from_the_cached_gamma(metric, suite,
                                                                          monkeypatch):
    """Two metrics of one potential, the full Gamma cached on one of them
    only, give the same basis bytes, dims_by_order and bracket_residual
    bytes at every r_max from 0 to order - 4: on the dense potentials of
    report_digests.py at seeds 0 and 7, and the regression descriptors at
    order 10.  The other metric's span gets Gamma cut to r_max + 1, and
    caches none, whenever the metric reaches higher."""
    orders = []
    gauge = G.radial_parallel_gauge
    monkeypatch.setattr(G, "radial_parallel_gauge",
                        lambda gamma, r_max: orders.append(gamma[0][0, 0].order)
                        or gauge(gamma, r_max))
    if metric == "dense":
        fs = [_dense_walker_potential(monkeypatch, (seed, case), n, order)
              for seed in (0, 7)
              for case, (n, order) in enumerate([(0, 8), (0, 10), (1, 6), (1, 7), (2, 6)])]
    else:
        fs = [P.build_potential(d, order=10) for d in suite[:10]]
    cut = 0
    for f in fs:
        for r_max in range(f.order - 3):
            full, fresh = G.metric_from_potential(f), G.metric_from_potential(f)
            assert full.gamma
            want = G.infinitesimal_holonomy(full, r_max)
            orders.clear()
            got = G.infinitesimal_holonomy(fresh, r_max)
            if orders and fresh.space.order > r_max + 2:
                assert orders == [r_max + 1] and "gamma" not in vars(fresh)
                cut += 1
            assert got.dims_by_order == want.dims_by_order
            assert np.array(got.algebra.basis).tobytes() == np.array(want.algebra.basis).tobytes()
            assert (np.float64(got.bracket_residual).tobytes()
                    == np.float64(want.bracket_residual).tobytes())
    assert cut > 0


@pytest.mark.parametrize("metric", ["dense", "suite"])
def test_jet_coefficients_stay_builtin_complex(metric, suite, monkeypatch):
    """Every coefficient of the potential, h, h^-1, Gamma and R is a builtin
    complex, not a numpy scalar: np.complex128 subclasses complex, so only
    the exact type can tell them apart."""
    if metric == "dense":
        f = _dense_walker_potential(monkeypatch, (0, 4), 2, 6)
    else:
        f = P.build_potential(suite[8], order=10)
    m = G.metric_from_potential(f)
    stages = [[f], m.h.flat, m.inverse().flat, [j for g in m.gamma for j in g.flat],
              [j for row in m.curv for R in row for j in R.flat]]
    for jets in stages:
        coeffs = [c for jet in jets for c in jet.terms.values()]
        assert coeffs and all(type(c) is complex for c in coeffs)


@pytest.mark.parametrize("metric", ["suite-o9", "suite-o10", "dense-n0", "fc", "nondiagonal"])
def test_gauge_tables_are_the_jet_matrix_gauge_bit_for_bit(metric, suite, monkeypatch):
    """The term tables of P and P^-1 hold, entry by entry, the keys in the
    same order and the coefficient bytes of the jet-matrix gauge of Gamma
    cut to r_max and of its reference_inverse, both built on jet matrices
    over the entrywise product: on the ten regression descriptors
    at order 9 (r_max 5) and 10 (r_max 6), the dense n = 0 potentials of
    orders 8 and 10 at seeds 0 and 7 (r_max order - 4), and the fc and
    nondiagonal metrics at r_max 3 and at the full order of Gamma."""
    if metric.startswith("suite"):
        order = int(metric.split("-o")[1])
        cases = [(G.metric_from_potential(P.build_potential(d, order=order)), order - 4)
                 for d in suite[:10]]
    elif metric == "dense-n0":
        cases = [(G.metric_from_potential(
                     _dense_walker_potential(monkeypatch, (seed, case), 0, order)), order - 4)
                 for seed in (0, 7) for case, order in enumerate([8, 10])]
    else:
        m = _fc_metric(1.0, 0.5) if metric == "fc" else _nondiagonal_metric()
        cases = [(m, 3), (m, m.space.order - 1)]
    for m, r_max in cases:
        want = jmat_radial_gauge([jmat_truncated(g, r_max) for g in m.gamma])
        tables = G.radial_parallel_gauge(m.gamma, r_max)
        got = [table_jmat(t, want.shape, JetSpace(m.dim, r_max)) for t in tables]
        assert same_matrix_bits(got[0], want)
        assert same_matrix_bits(got[1], reference_inverse(want))


@pytest.mark.parametrize("metric", ["suite", "dense", "gauge"])
def test_jet_inverse_is_the_jet_matrix_loop_bit_for_bit(metric, suite, monkeypatch):
    """jmat_inverse, the graded inverse of the kernel, has the keys in the
    same order and the bits of the graded loop on jet matrices over the
    entrywise product: on the Walker h_{jbar k} blocks of the ten regression
    descriptors at order 9 and of the dense n = 1, 2 potentials of
    report_digests.py at seeds 0 and 7, where jmat_sqrt has the bits of its
    loop too, and on the gauge P of the fc and nondiagonal metrics at
    r_max 3 and 5."""
    if metric == "gauge":
        blocks = [jmat_radial_gauge([jmat_truncated(g, r_max) for g in m.gamma])
                  for m in (_fc_metric(1.0, 0.5), _nondiagonal_metric()) for r_max in (3, 5)]
    else:
        fs = ([P.build_potential(d, order=9) for d in suite[:10]] if metric == "suite" else
              [_dense_walker_potential(monkeypatch, (seed, case), n, order)
               for seed in (0, 7) for case, n, order in DIGEST_DENSE])
        blocks = [m.h[1:m.n + 1, 1:m.n + 1] for m in map(G.metric_from_potential, fs)]
    for M in blocks:
        assert M.size and same_matrix_bits(jmat_inverse(M), reference_inverse(M))
        if metric != "gauge":
            assert same_matrix_bits(jmat_sqrt(M), reference_sqrt(M))


def test_truncated_conjugation_keeps_every_coefficient_it_reads(monkeypatch):
    """P^{-1} R P from full-order Gamma, P and R has, up to degree r_max,
    the same keys in the same order and bit-equal coefficients as the one
    the holonomy builds from operands cut at r_max."""
    r_max = 3
    m = G.metric_from_potential(_dense_walker_potential(monkeypatch, (0, 3), 1, 7))
    top = m.space.order - 1
    shape = (m.dim, m.dim)
    P_full, Pinv_full = (table_jmat(t, shape, JetSpace(m.dim, top))
                         for t in G.radial_parallel_gauge(m.gamma, top))
    P, Pinv = (table_jmat(t, shape, JetSpace(m.dim, r_max))
               for t in G.radial_parallel_gauge(m.gamma, r_max))
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
    conjugated through the entrywise product, with the jet-matrix gauge and
    its reference_inverse: dims_by_order, the basis and the bracket
    residual."""
    Q = m.frame0
    Qinv = np.linalg.inv(Q)
    P = jmat_radial_gauge([jmat_truncated(g, r_max) for g in m.gamma])
    Pinv = reference_inverse(P)
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
    rows, dims = list_span_by_degree(coeffs_by_deg, r_max, m.dim * m.dim)
    # MatrixAlgebra orthonormalizes the real points once more
    basis = list_real_span_basis(list_real_points([row.reshape(m.dim, m.dim) for row in rows]))
    alg = MatrixAlgebra(m.n, [])
    alg.basis = basis
    return dims, basis, alg.bracket_residual()


@pytest.mark.parametrize("metric", ["flat", "gkl", "dense", "gk0psi", "dense-n0"])
def test_holonomy_skipping_zero_blocks_matches_the_full_conjugation(metric, suite, monkeypatch):
    """Skipping the blocks R_cd with no terms and conjugating the others in
    one stacked product per side changes no bit: on the flat metric (all 16
    blocks zero), the order-9 GKL(2, 0) potential (11 of 16), a seeded dense
    n = 1 potential (3 of 9), the order-9 GK0PSI potential of suite index 8
    (10 of 16) and the seeded dense n = 0, order-10 potential (1 of 4).  The
    dense n = 1 curvature spans the ambient at the base point, so the public
    entry point stops there; that case compares the full span it bypasses."""
    if metric == "flat":
        space = JetSpace(4, 9)
        f = P.fc_potential(space, 0.0, 0.0) + P.fun_potential(space, 2, [])
    elif metric == "gkl":
        f = P.build_potential(suite[6], order=9)
    elif metric == "gk0psi":
        f = P.build_potential(suite[8], order=9)
    elif metric == "dense":
        f = _dense_walker_potential(monkeypatch, (0, 3), 1, 7)
    else:
        f = _dense_walker_potential(monkeypatch, (0, 1), 0, 10)
    m = G.metric_from_potential(f)
    r_max = m.space.order - 4
    zero = [not any(j.terms for j in jmat_truncated(R, r_max).flat)
            for row in m.curv for R in row]
    assert (sum(zero), len(zero)) == {"flat": (16, 16), "gkl": (11, 16), "dense": (3, 9),
                                      "gk0psi": (10, 16), "dense-n0": (1, 4)}[metric]
    hol = (G._holonomy_span if metric == "dense" else G.infinitesimal_holonomy)(m, r_max)
    dims, basis, bracket = _reference_holonomy(m, r_max)
    assert hol.dims_by_order == dims
    assert np.array(hol.algebra.basis).tobytes() == np.array(basis).tobytes()
    assert np.float64(hol.bracket_residual).tobytes() == np.float64(bracket).tobytes()


@st.composite
def coefficient_stacks(draw):
    """r_max = 0..3 and k = 0..6 complex N x N matrices on the parabolic
    pattern, N = 2..4, each with a degree <= r_max: entries with both signs
    of zero, some matrices all-zero and some below the noise cut."""
    N, r_max, k = draw(st.integers(2, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 6))
    entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]),
                        st.floats(-3.0, 3.0, allow_nan=False, width=64))
    X = np.array(draw(st.lists(entries, min_size=2 * k * N * N, max_size=2 * k * N * N)))
    X = (X[:k * N * N] + 1j * X[k * N * N:]).reshape(k, N, N) * parabolic_mask(N - 2)
    scale = draw(st.lists(st.sampled_from([1.0, 0.0, 1e-20, 1e-200]), min_size=k, max_size=k))
    degs = draw(st.lists(st.integers(0, r_max), min_size=k, max_size=k))
    return X * np.reshape(scale, (k, 1, 1)), degs, r_max


@given(coefficient_stacks())
@settings(max_examples=150, deadline=None)
def test_stacked_span_rows_are_the_per_matrix_rows_bit_for_bit(case):
    """The span's row handling on one stack of coefficient rows with a
    parallel degree array, and the real points of the span on one stack of
    candidates, give the bytes of one numpy call per matrix
    (oracles.list_span_by_degree, list_real_points): empty stacks, a single
    matrix, all-zero and below-noise matrices included."""
    mats, degs, r_max = case
    N = mats.shape[-1]
    by_deg = {r: [] for r in range(r_max + 1)}
    for w, d in zip(mats, degs):
        by_deg[d].append(w)
    span, dims = G._span_by_degree(mats.reshape(len(mats), N * N), np.array(degs, int), r_max)
    want, want_dims = list_span_by_degree(by_deg, r_max, N * N)
    assert dims == want_dims
    assert span.dtype == want.dtype and span.shape == want.shape
    assert span.tobytes() == want.tobytes()
    got = G._real_points(span.reshape(-1, N, N))
    want = list_real_points([row.reshape(N, N) for row in want])
    assert len(got) == len(want)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("r_max", range(4))
def test_flat_potential_spans_nothing(r_max):
    """The flat potential has no curvature block, so the span's stack is
    empty: all-zero dimensions, an empty basis, and stabilized from
    r_max 1 on."""
    m = S.build_metric_from_config({"kind": "flat", "n": 1})
    assert G.infinitesimal_holonomy(m, r_max) == G.HolonomyResult(
        MatrixAlgebra(1, []), [0] * (r_max + 1), r_max >= 1, 0, 0.0)


# (case, n, order) of the dense n >= 1 lines of scripts/report_digests.py,
# drawn with default_rng((seed, case)); r_max is order - 4
DIGEST_DENSE = [(2, 1, 6), (3, 1, 7), (4, 2, 6)]


def _not_walker_potential():
    space = JetSpace(3, 7)
    z, zb = space.variable(1), space.conj_variable(1)
    v, vb = space.variable(0), space.conj_variable(0)
    return P.fc_potential(space, 1.0, 0.5) + z * zb + v * vb * 0.5 + real_part(v * z * zb * 0.3)


@pytest.mark.parametrize("metric", ["suite", "dense", "flat"])
def test_curvature_at_the_base_point_from_the_two_jet(metric, suite, monkeypatch):
    """MetricJet.curv0, read from the 2-jet of h, is R(0) within
    1e-13 max(|R(0)|, 1): on the eleven suite descriptors at order 9, the
    dense n = 0, 1, 2 potentials of report_digests.py at seeds 0 and 7, and
    the flat metric."""
    if metric == "suite":
        fs = [P.build_potential(d, order=9) for d in suite]
    elif metric == "dense":
        fs = [_dense_walker_potential(monkeypatch, (seed, case), n, order)
              for seed in (0, 7)
              for case, (n, order) in enumerate([(0, 8), (0, 10), (1, 6), (1, 7), (2, 6)])]
    else:
        space = JetSpace(4, 6)
        fs = [P.fc_potential(space, 0.0, 0.0) + P.fun_potential(space, 2, [])]
    for f in fs:
        m = G.metric_from_potential(f)
        R0 = np.array([[jmat_eval0(R) for R in row] for row in m.curv])
        assert np.abs(m.curv0 - R0).max() <= 1e-13 * max(np.abs(R0).max(), 1.0)


def _refuse_the_full_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full holonomy span was reached")
    for name in ("christoffel", "radial_parallel_gauge", "jmat_inverse"):
        monkeypatch.setattr(G, name, refuse)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case,n,order", DIGEST_DENSE)
def test_holonomy_stops_at_the_ambient_without_gamma(case, n, order, seed, monkeypatch):
    """A dense Walker potential whose curvature at the base point spans
    u(1,n+1)_Cp gets the whole pattern at every order without Gamma, the
    radial gauge or a jet inverse."""
    m = G.metric_from_potential(_dense_walker_potential(monkeypatch, (seed, case), n, order))
    _refuse_the_full_route(monkeypatch)
    hol = G.infinitesimal_holonomy(m, order - 4)
    D = (n + 1) ** 2 + 2
    assert (hol.dims_by_order, hol.complex_dim, hol.stabilized) == ([D] * (order - 3), D, True)
    assert hol.algebra.dim == D


@pytest.mark.parametrize("metric", ["suite", "dense-n0", "not-walker"])
def test_holonomy_below_the_ambient_takes_the_full_span(metric, suite, monkeypatch):
    """The first ten suite descriptors at order 9 (r_max 5) and the dense
    n = 0 potentials at seeds 0 and 7 each build the radial gauge once:
    their curvature at the base point falls short of the ambient.  A metric
    outside the Walker form is refused with the normal form's one-line
    error before h^-1, Gamma, R or the gauge is built."""
    if metric == "suite":
        cases = [(P.build_potential(d, order=9), 5) for d in suite[:10]]
    elif metric == "dense-n0":
        cases = [(_dense_walker_potential(monkeypatch, (seed, case), 0, order), 4)
                 for seed in (0, 7) for case, order in enumerate([8, 10])]
    else:
        cases = [(_not_walker_potential(), 3)]
    calls = []
    gauge = G.radial_parallel_gauge
    monkeypatch.setattr(G, "radial_parallel_gauge",
                        lambda gamma, r_max: calls.append(1) or gauge(gamma, r_max))
    for f, r_max in cases:
        m = G.metric_from_potential(f)
        assert m.is_walker() == (metric != "not-walker")
        if m.is_walker():
            G.infinitesimal_holonomy(m, r_max)
        else:
            with pytest.raises(ValueError, match="^metric is not in the isotropic-line normal"):
                G.infinitesimal_holonomy(m, r_max)
            assert not {"hinv", "gamma", "curv"} & set(vars(m))
    assert len(calls) == (0 if metric == "not-walker" else len(cases))


@pytest.mark.parametrize("case,n,order", DIGEST_DENSE)
def test_the_ambient_result_is_the_full_span(case, n, order, monkeypatch):
    """At seeds 0..9 the result at the ambient and the full span it bypasses
    agree in dims_by_order, stabilized, complex_dim and the matched
    descriptor, and span the same algebra."""
    for seed in range(10):
        m = G.metric_from_potential(_dense_walker_potential(monkeypatch, (seed, case), n, order))
        fast, full = G.infinitesimal_holonomy(m, order - 4), G._holonomy_span(m, order - 4)
        assert ((fast.dims_by_order, fast.stabilized, fast.complex_dim)
                == (full.dims_by_order, full.stabilized, full.complex_dim))
        got, want = C.match_algebra(fast.algebra), C.match_algebra(full.algebra)
        assert got.family == want.family == "GK"
        assert C.same_descriptor(got, want)
        assert fast.algebra.equals(full.algebra)


def test_ppwave_check_refuses_a_metric_outside_the_walker_form_first(monkeypatch):
    """ppwave_check on a metric outside the Walker form gives the normal
    form's one-line error before Gamma is built."""
    m = G.metric_from_potential(_not_walker_potential())

    def refuse(m):
        raise AssertionError("christoffel called")

    monkeypatch.setattr(G, "christoffel", refuse)
    with pytest.raises(ValueError, match="^metric is not in the isotropic-line normal form$"):
        G.ppwave_check(m)
    assert "gamma" not in vars(m)


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
        f = _not_walker_potential()
    else:
        f = P.build_potential(suite[0 if metric == "gk-n1" else 8], order=10)
    m = G.metric_from_potential(f)
    assert m.is_walker() == (metric != "not-walker")
    hinv_t = m.inverse().T.copy()
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
