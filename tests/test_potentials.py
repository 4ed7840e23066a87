"""Potential builders and their defining series identities."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lkholonomy import classify as C
from lkholonomy import geometry as G
from lkholonomy import potentials as P
from lkholonomy.hermitian import RealFormData
from lkholonomy.jetmat import jmat_max_abs
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


def test_fc_places_each_scalar_like_fun_places_its_matrix():
    """The alpha-th scalar enters as -i a_alpha |u|^{2 alpha} / (alpha!)^2."""
    space = JetSpace(2, 10)
    a = [0.7, -1.3, 0.4 + 0.2j]
    m = G.metric_from_potential(P.fc_potential(space, *a))
    uu = space.variable(1) * space.conj_variable(1)
    exponent, upow = space.zero(), space.constant(1.0)
    for alpha, c in enumerate(a, start=1):
        upow = upow * uu
        exponent = exponent + upow * (-1j * c / math.factorial(alpha) ** 2)
    assert (m.h[1, 0] - exponent.exp()).max_abs() < 1e-12


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


def test_build_potential_collapses_collinear_gkjl_scalars():
    """GKJL scales its first scalar generator to a = i and subtracts it from
    the others; a second generator collinear with it becomes zero, so the
    potential is that of the first generator alone."""
    z00 = np.zeros((0, 0), complex)
    pair = C.KLDescriptor(1, 0, [(1j, z00), (0.5j, z00)])
    single = C.KLDescriptor(1, 0, [(2j, z00)])
    f, g = P.build_potential(pair, order=8), P.build_potential(single, order=8)
    assert list(f.coeffs.items()) == list(g.coeffs.items())


@pytest.mark.parametrize("n,order", [(4, 8), (3, 20)])
def test_build_potential_keys_are_python_ints(n, order):
    """From n = 3 the packed exponent fields reach past bit 63, where numpy
    integer keys would wrap or overflow; every key of every catalog entry's
    potential is a Python int."""
    from lkholonomy.cli import _catalog_entries
    for entry in _catalog_entries(n):
        f = P.build_potential(entry["descriptor"], order)
        assert {type(k) for k in f.terms} == {int}, entry["descriptor"]


def test_oriented_lines_variants():
    mh = P.oriented_lines_metric(order=8, variant="hermitized")
    assert mh.hermitian_residual() < 1e-12
    assert mh.kahler_residual() < 1e-12
    ml = P.oriented_lines_metric(order=8, variant="literal")
    assert ml.hermitian_residual() > 1e-3  # printed form, kept for inspection
    with pytest.raises(ValueError):
        P.oriented_lines_metric(variant="unknown")


# -- random descriptors: each is realized by its potential -------------------

def _unitary(rng, k):
    if k == 0:
        return np.eye(0, dtype=complex)
    Q, R = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _on_torus(U, t):
    """U diag(i t) U^H: an element of the maximal torus of u(k) in the basis U."""
    return U @ np.diag(1j * np.asarray(t)) @ U.conj().T


@st.composite
def _descriptors(draw):
    """A GK, GKJL, GKL or GK0PSI descriptor with n <= 3.  k is diagonal in a
    random unitary basis, and the first generator's diagonal has zeros in
    some draws, so that its A has a kernel in any position; L_0 is twisted
    in some draws where the family allows it."""
    fam = draw(st.sampled_from(["GK", "GKJL", "GKL", "GK0PSI"]))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = n if fam == "GK" else draw(st.integers(1 if fam == "GK0PSI" else 0, n - (fam != "GK0PSI")))
    twisted = fam in ("GKL", "GK0PSI") and n - m >= 2 and draw(st.booleans())
    rf = (RealFormData.from_lambdas([rng.uniform(0.1, 0.9)] if twisted else [], n - m)
          if n > m else None)
    if fam == "GK0PSI":
        # psi maps into a torus of u(r) whose directions avoid those of k0;
        # at least m - r of them, so that no complex line of C^{m-r} lies in
        # ker psi (C^r is then the complex part of the translations)
        r = draw(st.integers((m + 1) // 2, m))
        n_psi, q = 2 * (m - r) + (n - m), max(1, m - r)
        assume(n_psi > 0)
        dk = draw(st.integers(0, r - q))
        U, dirs = _unitary(rng, r), rng.standard_normal((r, r))
        k0 = [_on_torus(U, v) for v in dirs[:dk]]
        p = draw(st.integers(q, r - dk))
        psi = [_on_torus(U, rng.standard_normal(p) @ dirs[dk:dk + p]) for _ in range(n_psi)]
        return C.GK0PsiDescriptor(n, m, r, k0, psi, real_form=rf)
    cap = {"GK": 2 + m, "GKJL": 1 + m, "GKL": m}[fam]
    U, k_basis = _unitary(rng, m), []
    for i in range(draw(st.integers(fam != "GKL", min(3, cap)))):
        kernel = draw(st.lists(st.booleans(), min_size=m, max_size=m)) if i == 0 else [False] * m
        t = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m) * ~np.array(kernel, bool)
        if fam == "GK":
            a = complex(*rng.standard_normal(2)) * draw(st.sampled_from([0, 1, 1j, 1 + 1j]))
        elif fam == "GKJL":
            a = 1j * rng.standard_normal() * (i == 0 or draw(st.booleans()))
        else:
            a = 0j
        k_basis.append((a, _on_torus(U, t)))
    return C.KLDescriptor(n, m, k_basis, real_form=rf)


@given(_descriptors())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_random_descriptor_is_realized_by_its_potential(d):
    """build_potential realizes the descriptor's algebra itself, in the
    canonical frame: it matches back, with the family dimension, and its
    Ricci-flatness is the trace condition of the built algebra."""
    alg = C.build_family(d)
    assume(alg.dim == C.family_dim(d))  # the drawn k basis is independent
    assert C.is_holonomy_realizable(d) == "yes"
    # the alpha-th generator enters at |u|^{2 alpha}: span to that degree
    terms = (len(d.k_basis) + d.n - d.m if isinstance(d, C.KLDescriptor)
             else len(d.psi_images) + 1 + len(d.k0_basis))
    r_max = max(5, 2 * terms + 1)
    metric = G.metric_from_potential(P.build_potential(d, order=r_max + 4))
    hol = G.infinitesimal_holonomy(metric, r_max=r_max)
    got = C.match_algebra(hol.algebra)
    assert C.same_descriptor(got, d), (d, got)
    assert hol.algebra.dim == C.family_dim(d) and hol.algebra.equals(alg)
    assert (jmat_max_abs(G.ricci(metric)) < 1e-9) == C.ricci_flat_condition(d)
