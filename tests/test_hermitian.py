"""Hermitian-form helpers, the exp-derivative series, and real-form data."""
import numpy as np
import pytest

from lkholonomy.hermitian import (
    RealFormData,
    WittMetric,
    _canonical_f_pair,
    adapted_basis,
    exp_derivative_series,
    matrix_exp,
    skew_normal_form,
)
from lkholonomy.jetmat import (
    jmat_derivative,
    jmat_exp,
    jmat_inverse,
    jmat_mul,
    jmat_residual,
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


def test_skew_normal_form(rng):
    for k in (2, 3, 4, 5):
        M = rng.standard_normal((k, k))
        omega = 0.4 * (M - M.T) / k
        Q, lambdas, n_zero = skew_normal_form(omega)
        assert np.abs(Q.T @ Q - np.eye(k)).max() < 1e-10
        B = Q.T @ omega @ Q
        # block diagonal with [[0, lam], [-lam, 0]] blocks then zeros
        rebuilt = np.zeros((k, k))
        for s, lam in enumerate(lambdas):
            rebuilt[2 * s, 2 * s + 1] = lam
            rebuilt[2 * s + 1, 2 * s] = -lam
        assert np.abs(np.abs(B) - np.abs(rebuilt)).max() < 1e-9
        assert 2 * len(lambdas) + n_zero == k


def test_canonical_f_pair_pairings():
    for lam in (0.0, 0.3, 0.9):
        F = _canonical_f_pair(lam)
        f1, f2 = F[:, 0], F[:, 1]
        # h(x, y) = conj(y)^T x with the identity gram on C^2
        assert abs(np.vdot(f1, f1) - 1.0) < 1e-12
        assert abs(np.vdot(f2, f2) - 1.0) < 1e-12
        assert abs(np.conj(f2) @ f1 - (-1j * lam)) < 1e-12


def test_real_form_tau_involution():
    rf = RealFormData.from_lambdas([0.5], 2)
    x = np.array([0.3 + 0.1j, -0.2 + 0.7j])
    assert np.abs(rf.tau(rf.tau(x)) - x).max() < 1e-12
    assert not rf.is_trivial()
    assert np.allclose(sorted(abs(l) for l in rf.lambdas), [0.5, 0.5])


def test_real_form_trivial():
    rf = RealFormData.from_lambdas([], 3)
    assert rf.is_trivial()
    assert np.abs(rf.theta).max() < 1e-12


def test_adapted_basis_diagonalizes_theta():
    rf = RealFormData.from_lambdas([0.4], 2)
    E = adapted_basis(rf)
    # columns are h-orthonormal and theta acts by -+ i lam on the pair
    G = np.conj(E).T @ E
    assert np.abs(G - np.eye(2)).max() < 1e-10
    th = np.conj(E).T @ rf.theta @ E
    assert np.abs(np.sort(np.abs(np.diag(th))) - [0.4, 0.4]).max() < 1e-10


def test_witt_and_hermitian_forms():
    wm = WittMetric(1)
    g = wm.gram
    assert g[0, 2] == 1 and g[2, 0] == 1 and g[1, 1] == 1
    p = np.array([1.0, 0, 0], complex)
    q = np.array([0, 0, 1.0], complex)
    assert wm.h(p, q) == 1.0 and wm.h(p, p) == 0.0


def test_real_form_rejects_overfull_lambdas():
    with pytest.raises(ValueError):
        RealFormData.from_lambdas([0.5, 0.5], 2)
