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
from lkholonomy.lie import (
    MatrixAlgebra,
    flatten,
    null_space,
    real_span_basis,
    row_space,
    sigma_involution,
)


def test_solution_space_dimensions():
    """Dimensions of the curvature space of the full algebra, against the
    closed form and its frozen values."""
    for n, dim in ((1, 15), (2, 44), (3, 110), (4, 237), (5, 455)):
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


@pytest.fixture
def null_space_inputs(monkeypatch):
    """Every matrix curvspace passes to null_space, in call order."""
    inputs = []

    def recorded(rows, *args, **kwargs):
        inputs.append(rows)
        return null_space(rows, *args, **kwargs)

    monkeypatch.setattr(curvspace, "null_space", recorded)
    return inputs


def test_solve_builds_no_realified_system(null_space_inputs):
    """Every null space of the solve at n = 3 has at most N d = 230 columns:
    the reality condition is solved over C, not as a real system in
    (Re t, Im t) with 2 N d columns."""
    assert len(solve_curvature_space(_full_algebra(3))) == 110
    shapes = [rows.shape for rows in null_space_inputs]
    assert (250, 230) in shapes
    assert all(cols <= 230 for _, cols in shapes), shapes


def test_tau_maps_the_intersection_into_itself(suite, rng, null_space_inputs):
    """On the orthonormal basis of Z = W & tau W, tau of every row lies in Z,
    and the tau-split's singular values are 1 or 0 relative to the largest,
    for every oracle case (np.conj among them) and the full algebra at
    n = 3."""
    for name, alg in _oracle_cases(suite, rng) + [("full n=3", _full_algebra(3))]:
        rho, tau = curvspace._complex_solutions(alg)
        assert np.abs(rho @ rho.conj().T - np.eye(len(rho))).max(initial=0) <= 1e-12, name
        assert np.abs(tau - (tau @ rho.conj().T) @ rho).max(initial=0) <= 1e-12, name
        solve_curvature_space(alg)
        split = null_space_inputs[-1]
        assert split.shape == (2 * len(rho), 2 * len(rho)), name
        s = np.linalg.svd(split, compute_uv=False)
        rel = s / s[0] if s.size else s
        assert np.all((np.abs(rel - 1) <= 1e-12) | (rel <= 1e-12)), name
        assert np.sum(rel > 0.5) == len(rho), name


def test_curvature_image_spans_every_real_value(suite, rng, monkeypatch):
    """curvature_image passes at most N^2 rows per map to its row space, and
    they span what all (2N)^2 values R(m_a, m_b) of real_curvature span,
    for every oracle case and the full algebra at n = 3."""
    shapes = []

    def recorded(rows, *args, **kwargs):
        shapes.append(rows.shape)
        return row_space(rows, *args, **kwargs)

    monkeypatch.setattr(curvspace, "row_space", recorded)
    for name, alg in _oracle_cases(suite, rng) + [("full n=3", _full_algebra(3))]:
        maps, N = solve_curvature_space(alg), alg.n + 2
        shapes.clear()
        image = curvspace.curvature_image(maps)
        assert all(rows <= len(maps) * N * N for rows, _ in shapes), name
        ref = real_span_basis([w for R in maps for w in R.real_curvature().reshape(-1, N, N)])
        assert len(image) == len(ref), name
        if ref:
            s = np.linalg.svd(flatten(image + ref), compute_uv=False)
            assert np.sum(s > 1e-9 * s[0]) == len(ref), name


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


def _reference_invariant_residual(R, sigma=sigma_involution) -> float:
    """The curvature-map invariants one index pair or triple at a time:
    reality, exchange symmetry, and the cyclic sum of R(b_i, b_j) b_k."""
    N, rho = R.dim_v, R.rho
    worst = 0.0
    for i in range(N):
        for j in range(N):
            worst = max(worst, np.abs(rho[i, j] + sigma(rho[j, i])).max())
            for k in range(N):
                worst = max(worst, np.abs(rho[i, j][:, k] - rho[k, j][:, i]).max())
    for i in range(N):
        for j in range(N):
            for k in range(N):
                cyc = ((rho[i, j] - rho[j, i])[:, k] + (rho[j, k] - rho[k, j])[:, i]
                       + (rho[k, i] - rho[i, k])[:, j])
                worst = max(worst, np.abs(cyc).max())
    return float(worst)


def _reference_real_curvature(rho, x, y):
    """R(X, Y) for real tangent vectors given by x, y in C^N: R(x, conj y)
    - R(y, conj x)."""
    return (np.einsum("i,j,ijab->ab", x, np.conj(y), rho)
            - np.einsum("i,j,ijab->ab", y, np.conj(x), rho))


def _perturbed_maps(rng):
    """Encoded maps at n = 1, 2, each also with a seeded random perturbation
    of rho that breaks every invariant but keeps the parabolic block pattern
    that sigma reads."""
    maps = []
    for n in (1, 2):
        R = param_encode(random_param(n, rng))
        noise = rng.standard_normal(R.rho.shape) + 1j * rng.standard_normal(R.rho.shape)
        noise[..., 1:, 0] = noise[..., n + 1, 1:n + 1] = 0
        maps += [R, CurvatureMap(n, R.rho + 1e-3 * noise)]
    return maps


def test_real_curvature_is_exact(rng):
    """Every entry of the (2N, 2N, N, N) array equals the pairwise formula
    on the m-basis (b_k, i b_k), bit for bit."""
    for R in _perturbed_maps(rng):
        N = R.dim_v
        mb = list(np.eye(N)) + list(1j * np.eye(N))
        Rm = R.real_curvature()
        assert Rm.shape == (2 * N, 2 * N, N, N)
        for a, x in enumerate(mb):
            for b, y in enumerate(mb):
                assert np.array_equal(Rm[a, b], _reference_real_curvature(R.rho, x, y))


def test_invariant_residual_matches_loop_oracle(suite, rng):
    """The whole-array residual agrees with the index loops to rounding, on
    encoded and perturbed maps and on solved maps of algebras of real
    matrices (sigma = np.conj)."""
    cases = [(R, sigma_involution) for R in _perturbed_maps(rng)]
    for _, alg in _oracle_cases(suite, rng):
        sigma = curvspace._default_sigma(alg)
        cases += [(R, sigma) for R in solve_curvature_space(alg)]
    assert any(sigma is np.conj for _, sigma in cases)
    for R, sigma in cases:
        ref = _reference_invariant_residual(R, sigma)
        assert abs(R.invariant_residual(sigma) - ref) <= 1e-15 * max(ref, 1.0)
