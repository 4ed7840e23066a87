"""Hermitian-form helpers, the exp-derivative series oracle, and real-form data."""
import numpy as np
import pytest

from oracles import exp_derivative_series, jmat_residual

from lkholonomy.hermitian import RealFormData, WittMetric, _canonical_f_pair
from lkholonomy.jetmat import (
    jmat_derivative,
    jmat_exp,
    jmat_inverse,
    jmat_mul,
    jmat_zero,
)
from lkholonomy.jets import JetSpace


def test_exp_derivative_series_oracle(rng):
    """e^{-G} d e^G from the ad-series against the direct jet product."""
    space = JetSpace(2, 6)
    G = jmat_zero((2, 2), space)
    for a in range(2):
        for b in range(2):
            c1 = complex(rng.standard_normal(), rng.standard_normal()) * 0.4
            c2 = complex(rng.standard_normal(), rng.standard_normal()) * 0.4
            G[a, b] = space.variable(0) * c1 + space.variable(1) * c2
    direct = jmat_mul(jmat_inverse(jmat_exp(G)),
                      jmat_derivative(jmat_exp(G), 0, holomorphic=True))
    series = exp_derivative_series(G, 0)
    assert jmat_residual(direct, series) < 1e-10


def test_lambdas_are_recomputed_from_any_orthonormal_basis(rng):
    """The lambda rule on F @ Q, Q a random real orthogonal matrix: the same
    real form in another basis gives back from_lambdas' lambdas."""
    for n_minus_m in (2, 3, 4, 5):
        for blocks in range(n_minus_m // 2 + 1):  # a kernel when 2 * blocks < n - m
            lambdas = sorted(rng.uniform(0.05, 0.95, blocks), reverse=True)
            F = RealFormData.from_lambdas(lambdas, n_minus_m).basis_f
            Q, _ = np.linalg.qr(rng.standard_normal((n_minus_m, n_minus_m)))
            rf = RealFormData(n_minus_m, F @ Q)
            assert rf.lambdas == pytest.approx(lambdas, rel=0, abs=1e-14)


def test_canonical_f_pair_pairings():
    for lam in (0.0, 0.3, 0.9):
        F = _canonical_f_pair(lam)
        f1, f2 = F[:, 0], F[:, 1]
        # h(x, y) = conj(y)^T x with the identity gram on C^2
        assert abs(np.vdot(f1, f1) - 1.0) < 1e-12
        assert abs(np.vdot(f2, f2) - 1.0) < 1e-12
        assert abs(np.conj(f2) @ f1 - (-1j * lam)) < 1e-12


def test_real_form_trivial():
    rf = RealFormData.from_lambdas([], 3)
    assert rf.is_trivial()
    assert np.abs(rf.theta).max() < 1e-12
    twisted = RealFormData.from_lambdas([0.5], 2)
    assert not twisted.is_trivial()
    assert twisted.lambdas == [0.5]


def test_theta_eigenvalues_are_plus_minus_i_lambda():
    for lambdas, n_minus_m in (([0.4], 2), ([0.7, 0.2], 4), ([0.6], 3), ([0.9, 0.3], 5)):
        rf = RealFormData.from_lambdas(lambdas, n_minus_m)
        expected = lambdas + [-l for l in lambdas] + [0.0] * (n_minus_m - 2 * len(lambdas))
        eig = np.linalg.eigvals(rf.theta)
        assert np.abs(eig.real).max() < 1e-12
        assert np.abs(np.sort(eig.imag) - np.sort(expected)).max() < 1e-12


def test_witt_and_hermitian_forms():
    wm = WittMetric(1)
    g = wm.gram
    assert g[0, 2] == 1 and g[2, 0] == 1 and g[1, 1] == 1


def test_real_form_rejects_overfull_lambdas():
    with pytest.raises(ValueError):
        RealFormData.from_lambdas([0.5, 0.5], 2)
