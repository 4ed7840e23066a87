"""Potential builders and their defining series identities."""
import math

import numpy as np
import pytest

from lkholonomy import classify as C
from lkholonomy import geometry as G
from lkholonomy import potentials as P
from lkholonomy.hermitian import RealFormData
from lkholonomy.jets import JetSpace


def test_fc_defining_identity():
    """The f_C potential is built so that h_{ubar v} is exactly the
    exponential factor; checked coefficient-wise."""
    space = JetSpace(2, 10)
    a, b = 0.7, -1.3
    m = G.metric_from_potential(P.fc_potential(space, a, b))
    u, ub = space.variable(1), space.conj_variable(1)
    target = (u * ub * (-1j * a) + u * u * ub * ub * (-0.25j * b)).exp()
    assert (m.h[1, 0] - target).max_abs() < 1e-12


def test_fun_zero_matrix_gives_flat_block():
    space = JetSpace(4, 6)
    f = P.fun_potential(space, 2, [np.zeros((2, 2), complex)])
    m = G.metric_from_potential(P.fc_potential(space, 0.0, 0.0) + f)
    assert max(jet.max_abs() for row in G.christoffel(m) for jet in row.ravel()) < 1e-12


def test_fun_rejects_non_unitary_generator():
    space = JetSpace(3, 6)
    with pytest.raises(ValueError):
        P.fun_potential(space, 1, [np.array([[1.0]], complex)])


def test_fun_bounds_the_hermitian_defect_of_a_alpha_itself():
    """The rule of classify's k-generator check applies to A_alpha, not to
    B_alpha = -i A_alpha / (alpha!)^2, whose defect is 36 times smaller at
    alpha = 3."""
    space = JetSpace(3, 8)
    A = [np.array([[1j]]), np.array([[2j]]), np.array([[0.5j]])]
    P.fun_potential(space, 1, A)
    A[2] = A[2] + 1e-9   # Hermitian defect |A + A^H| = 2e-9
    with pytest.raises(ValueError, match="anti-Hermitian"):
        P.fun_potential(space, 1, A)
    with pytest.raises(ValueError, match="anti-Hermitian"):
        C.build_family(C.KLDescriptor(1, 1, [(0.0, A[2])]))


def test_fun_skips_generators_above_the_order():
    """|u|^{2 alpha} with 2 alpha > order is zero in the jet, so a long list
    of generators gives the potential of its first order/2, and the
    (alpha!)^2 that overflows a float at alpha = 99 is never formed."""
    space = JetSpace(3, 8)
    A = [np.array([[1j * (k % 3)]]) for k in range(120)]
    long, short = P.fun_potential(space, 1, A), P.fun_potential(space, 1, A[:4])
    assert list(long.coeffs.items()) == list(short.coeffs.items())


def test_canonical_b_matrix_pairing():
    """The B of fl0_potential and psi_d_matrix: the canonical real form's basis."""
    B = RealFormData.from_lambdas([0.5], 2).basis_f
    f1, f2 = B[:, 0], B[:, 1]
    assert abs(np.conj(f2) @ f1 - (-0.5j)) < 1e-12
    B2 = RealFormData.from_lambdas([], 3).basis_f
    assert np.abs(B2 - np.eye(3)).max() < 1e-12


def test_small_dim_metric_tags():
    for tag, dim in [("g1", 3), ("g2", 2), ("g3gamma", 2), ("g3zero", 1)]:
        m = P.small_dim_metric(tag, order=8)
        hol = G.infinitesimal_holonomy(m, r_max=4)
        assert hol.algebra.dim == dim, tag


def test_ppwave_potential_validation():
    space = JetSpace(3, 6)
    with pytest.raises(ValueError):
        # phi must not involve v
        P.ppwave_potential(space, 1, space.variable(0))
    with pytest.raises(ValueError):
        # phi must be holomorphic in z
        P.ppwave_potential(space, 1, space.conj_variable(1))


def test_build_potential_requires_single_scalar_gkjl():
    # two independent a2-carrying generators cannot share one normalization
    d = C.KLDescriptor(1, 0, [(1j, np.zeros((0, 0), complex)),
                              (0.5j, np.zeros((0, 0), complex))])
    f = P.build_potential(d, order=8)  # collinear pair collapses to one
    m = G.metric_from_potential(f)
    assert m.n == 1


def test_oriented_lines_variants():
    mh = P.oriented_lines_metric(order=8, variant="hermitized")
    assert mh.hermitian_residual() < 1e-12
    assert mh.kahler_residual() < 1e-12
    ml = P.oriented_lines_metric(order=8, variant="literal")
    assert ml.hermitian_residual() > 1e-3  # printed form, kept for inspection
    with pytest.raises(ValueError):
        P.oriented_lines_metric(variant="unknown")
