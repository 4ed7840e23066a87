"""Curvature-space solver, Berger test, and the block-parameter codec."""
import numpy as np
import pytest

from lkholonomy import classify as C
from lkholonomy import curvspace
from lkholonomy.curvspace import (
    CurvatureMap,
    berger_check,
    no_ir_counterexample,
    param_decode,
    param_dim,
    param_encode,
    random_param,
    ricci_of_map,
    solve_curvature_space,
    _full_algebra,
)
from lkholonomy.lie import MatrixAlgebra, flatten, sigma_involution


def test_solution_space_dimensions():
    """Dimensions of the curvature space of the full algebra, against the
    closed form and its frozen values."""
    for n, dim in ((1, 15), (2, 44), (3, 110), (4, 237)):
        assert param_dim(n) == dim
        assert len(solve_curvature_space(_full_algebra(n))) == dim


def _reference_solve(alg, sigma, tol=1e-9):
    """The curvature space by unit-vector assembly: probe every real unknown
    (Re mu, Im mu) of rho[i, j] = sum_b mu[i, j, b] B_b, with B a complex
    basis of span_C(g), stack the residuals of the reality and exchange
    conditions as columns, and take the null space.  Small n only."""
    rows = np.array([b.ravel() for b in alg.basis])
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    B = vt[:int(np.sum(s > tol * s[0]))].reshape(-1, *alg.basis[0].shape)
    N, c = alg.n + 2, len(B)
    n_unknowns = 2 * c * N * N

    def assemble(x):
        mu = (x[0::2] + 1j * x[1::2]).reshape(N, N, c)
        return np.einsum("ijb,bst->ijst", mu, B)

    def residual(rho):
        out = [(rho[i, j] + sigma(rho[j, i])).ravel()
               for i in range(N) for j in range(N)]
        out += [rho[i, j][:, k] - rho[k, j][:, i]
                for j in range(N) for i in range(N) for k in range(i + 1, N)]
        v = np.concatenate(out)
        return np.concatenate([v.real, v.imag])

    M = np.array([residual(assemble(x)) for x in np.eye(n_unknowns)]).T
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    return [CurvatureMap(alg.n, assemble(x)) for x in vt[rank:]]


def _real_rank(maps) -> int:
    if not maps:
        return 0
    s = np.linalg.svd(flatten([R.rho for R in maps]), compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0]))


def _oracle_cases(suite, rng):
    """(name, algebra) pairs: the full algebra, every regression family and
    a real change of basis of it, the n = 0 families, the algebras with no
    curvature, the Berger-only family, and an algebra of real matrices."""
    from lkholonomy.hermitian import RealFormData
    cases = [(f"full n={n}", _full_algebra(n)) for n in (1, 2)]
    for d in suite:
        alg = C.build_family(d)
        mix = rng.standard_normal((alg.dim, alg.dim)) + 2 * np.eye(alg.dim)
        mixed = MatrixAlgebra(alg.n, list(np.tensordot(mix, np.array(alg.basis), 1)))
        cases += [(d.family, alg), (d.family + " mixed", mixed)]
    for d in (C.G0Descriptor(), C.G1Descriptor(), C.G2Descriptor(),
              C.G3Descriptor(gamma=1.0), C.G3Descriptor(gamma=0.0)):
        cases.append((d.family, C.build_family(d)))
    cases += [(f"no iR n={n}", no_ir_counterexample(n)) for n in (1, 2, 3)]
    berger_only = C.KLDescriptor(
        2, 0, [(1j, np.zeros((0, 0), complex))],
        real_form=RealFormData.from_lambdas([0.5], 2))
    cases.append(("BERGER_GK", C.build_family(berger_only)))
    so3 = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        E = np.zeros((3, 3), complex)
        E[i, j], E[j, i] = 1.0, -1.0
        so3.append(E)
    cases.append(("so(3)", MatrixAlgebra(1, so3)))
    return cases


def test_solve_matches_reference_assembly(suite, rng):
    """The structured solve and the unit-vector assembly span the same real
    space, and every returned map satisfies all curvature identities."""
    sigmas = {}
    for name, alg in _oracle_cases(suite, rng):
        sigma = sigmas[name] = curvspace._default_sigma(alg)
        got = solve_curvature_space(alg)
        ref = _reference_solve(alg, sigma)
        assert _real_rank(got) == len(got), name
        assert _real_rank(ref) == len(ref), name
        assert _real_rank(got + ref) == len(got) == len(ref), name
        for R in got:
            assert R.invariant_residual(sigma) < 1e-10, name
    assert sigmas["full n=2"] is sigma_involution
    assert sigmas["so(3)"] is np.conj


def test_solve_applies_sigma_per_basis_matrix(monkeypatch):
    """sigma is applied to the N d exchange-space matrices, not to 2 c N^2
    probes (22 518 calls at n = 3 by unit-vector assembly)."""
    calls = []

    def counted(xi, *args, **kwargs):
        calls.append(1)
        return sigma_involution(xi, *args, **kwargs)

    monkeypatch.setattr(curvspace, "sigma_involution", counted)
    assert len(solve_curvature_space(_full_algebra(3))) == 110
    assert 0 < len(calls) < 500


def _param_distance(p, q) -> float:
    worst = max(abs(p.alpha - q.alpha), abs(p.beta - q.beta), abs(p.c - q.c))
    for name in ("N_vec", "K", "T", "R0", "P", "A"):
        worst = max(worst, np.abs(getattr(p, name) - getattr(q, name)).max(initial=0))
    return float(worst)


def test_codec_roundtrip(rng):
    for n in (1, 2):
        for _ in range(50):
            p = random_param(n, rng)
            q = param_decode(param_encode(p))
            assert _param_distance(p, q) < 1e-12


def test_full_algebra_is_berger():
    for n in (1, 2):
        res = berger_check(_full_algebra(n))
        assert res["is_berger"]


def test_family_instances_are_berger(suite):
    for d in suite:
        res = berger_check(C.build_family(d))
        assert res["is_berger"], d.family


def test_counterexample_has_no_curvature():
    for n in (2, 3):
        alg = no_ir_counterexample(n)
        res = berger_check(alg)
        assert res["dim_R_space"] == 0
        assert not res["is_berger"]
        assert res["generated"].dim == 0


def test_ricci_of_map_hermitian(rng):
    p = random_param(1, rng)
    R = param_encode(p)
    ric = ricci_of_map(R)
    assert np.abs(ric - ric.conj().T).max() < 1e-10


def test_invariant_residual_of_encoded(rng):
    p = random_param(2, rng)
    R = param_encode(p)
    assert R.invariant_residual() < 1e-10
