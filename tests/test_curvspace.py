"""Curvature-space solver, Berger test, and the block-parameter codec."""
import numpy as np
import pytest

from oracles import conjugations, r0_units, random_param, random_unitary, unit_params

from lkholonomy import classify as C
from lkholonomy import curvspace
from lkholonomy.config import DEFAULT_TOL
from lkholonomy.curvspace import (
    CurvatureMap,
    CurvatureParam,
    UnitMaps,
    berger_check,
    no_ir_counterexample,
    param_decode,
    param_dim,
    param_encode,
    ricci_of_map,
    solve_curvature_space,
    _full_algebra,
)
from lkholonomy.hermitian import WittMetric
from lkholonomy.lie import (
    MatrixAlgebra,
    flatten,
    null_space,
    parabolic_mask,
    real_span_basis,
    row_space,
    sigma_involution,
    unflatten,
    unitary_basis,
)


def test_solution_space_dimensions(rng):
    """Dimensions of the curvature space of the full algebra, against the
    closed form and its frozen values.  For n <= 4 the closed-form map
    params -> rho is injective with the solved space as its image:
    param_dim(n) + 5 random encoded maps have real rank param_dim(n), and
    the solver's basis adds nothing to their span."""
    for n, dim in ((1, 15), (2, 44), (3, 110), (4, 237), (5, 455)):
        assert param_dim(n) == dim
        solved = solve_curvature_space(_full_algebra(n))
        assert len(solved) == dim
        if n <= 4:
            encoded = [param_encode(random_param(n, rng)) for _ in range(dim + 5)]
            assert _real_rank(encoded) == dim, n
            assert _real_rank(encoded + solved) == dim, n


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


def _witt_sigma(X):
    """The anti-linear involution -Gram X^H Gram of gl(N) whose fixed points
    are u(1,n+1) in the Witt frame, along leading axes."""
    N = X.shape[-1]
    swap = np.r_[N - 1, 1:N - 1, 0]
    return -np.conj(X).swapaxes(-2, -1)[..., swap, :][..., swap]


def _witt_residual(rho) -> float:
    """invariant_residual's three identities with reality read by
    _witt_sigma, which takes values outside the parabolic pattern."""
    swapped = rho.swapaxes(-4, -3)
    P = (rho - swapped).swapaxes(-2, -1)
    return float(max(np.abs(rho + _witt_sigma(swapped)).max(),
                     np.abs(rho - rho.swapaxes(-4, -1)).max(),
                     np.abs(P + np.moveaxis(P, -2, -4) + np.moveaxis(P, -4, -2)).max()))


def _unitary_algebra(n):
    """u(1,n+1) in the Witt frame: Gram S for every anti-Hermitian S."""
    return MatrixAlgebra(n, [WittMetric(n).gram @ S for S in unitary_basis(n + 2)])


def _fits_pattern(alg) -> bool:
    """Whether the orthonormal basis of g has no entry above rank_rel off
    parabolic_mask: the route check of the solve, read off the mask."""
    off = np.array(alg.basis)[:, ~parabolic_mask(alg.n)]
    return np.abs(off).max(initial=0.0) <= DEFAULT_TOL.rank_rel


def test_parabolic_mask_is_where_the_unit_maps_live():
    """The closed-form mask is the support of the values of the encoded
    unit parameters."""
    for n in range(6):
        E = curvspace._encode(unit_params(n))
        assert np.array_equal((E != 0).any(axis=(0, 1, 2)), parabolic_mask(n)), n


def test_sigma_is_the_witt_involution_on_the_pattern(rng):
    """On stacks in the pattern, random complex ones and the values of an
    encoded map, sigma writes the bits _witt_sigma writes on the mask and
    exact zeros off it, also when the entries off the mask are not zero but
    within the fit."""
    for n in range(4):
        N, mask = n + 2, parabolic_mask(n)
        stack = (rng.standard_normal((3, 2, N, N)) + 1j * rng.standard_normal((3, 2, N, N))) * mask
        for X in (stack, param_encode(random_param(n, rng)).rho, stack + 1e-12 * ~mask):
            got, want = sigma_involution(X), _witt_sigma(X)
            assert got[..., mask].tobytes() == want[..., mask].tobytes(), n
            assert not got[..., ~mask].any(), n


def _oracle_cases(suite, rng):
    """(name, algebra) pairs: the full algebra, every regression family and
    a real change of basis of it, the n = 0 families, the algebras with no
    curvature, the Berger-only family, and u(1,1) and u(1,2), which with G0
    are the cases outside the parabolic pattern."""
    from lkholonomy.hermitian import RealFormData
    cases = [(f"full n={n}", _full_algebra(n)) for n in (1, 2)]
    for d in suite:
        alg = C.build_family(d)
        mix = rng.standard_normal((alg.dim, alg.dim)) + 2 * np.eye(alg.dim)
        mixed = MatrixAlgebra(alg.n, list(np.tensordot(mix, np.array(alg.basis), 1)))
        cases += [(d.family, alg), (d.family + " mixed", mixed)]
    for d in (C.N0Descriptor("G0"), C.N0Descriptor("G1"), C.N0Descriptor("G2"),
              C.N0Descriptor("G3", 1.0), C.N0Descriptor("G3", 0.0)):
        cases.append((d.family, C.build_family(d)))
    cases += [(f"no iR n={n}", no_ir_counterexample(n)) for n in (1, 2, 3)]
    berger_only = C.KLDescriptor(
        2, 0, [(1j, np.zeros((0, 0), complex))],
        real_form=RealFormData.from_lambdas([0.5], 2))
    cases.append(("BERGER_GK", C.build_family(berger_only)))
    cases += [(f"u(1,{n + 1})", _unitary_algebra(n)) for n in (0, 1)]
    return cases


# -- the dense route: every unit map as one dense (N, N, N, N) array ----------


def _dense_unitary_units(n):
    """K(u(1,n+1)) as dense unit maps: rho[i, j] = Gram R0[:, :, i, j] for
    the R0 units at size N = n + 2."""
    return WittMetric(n).gram @ np.moveaxis(r0_units(n + 2), (-2, -1), (-4, -3))


def _dense_solve(E, alg):
    """Rows rho (k, N^4) spanning K(g) in the span of the dense unit maps
    E: the slot-pair null spaces over the dense conditions E @ H, each
    mixing the whole active block of the coordinates."""
    N = alg.n + 2
    E = E.reshape(-1, N * N, N * N)
    B = np.array([b.ravel() for b in alg.basis])
    B = row_space(B)
    nonzero = E != 0
    pattern = nonzero.any(axis=(0, 1))
    if len(B) == np.count_nonzero(pattern):
        return E.reshape(len(E), -1)
    complement = null_space(B[:, pattern])
    H = np.zeros((N * N, len(complement)), complex)
    H[pattern] = complement.conj().T
    C = (E.reshape(-1, N * N) @ H).reshape(len(E), N, N, -1)
    floor = DEFAULT_TOL.rank_rel * np.linalg.norm(C)
    reach = nonzero.any(axis=2).reshape(len(E), N, N)
    reach = reach | reach.swapaxes(1, 2)
    X = np.eye(len(E))
    for i, j in zip(*np.nonzero(np.triu(reach.any(axis=0)))):
        reached = np.flatnonzero(reach[:, i, j])
        active = X[reached].any(axis=0)
        if active.any():
            rows = C[reached[:, None], [i, j], [j, i]].reshape(len(reached), -1)
            rows = np.concatenate([rows.real, rows.imag], axis=1)
            x = null_space(rows.T @ X[np.ix_(reached, active)], floor)
            X = np.concatenate([X[:, ~active], X[:, active] @ x.T], axis=1)
    return X.T @ E.reshape(len(E), -1)


def _dense_image(rho):
    """The curvature image of the dense maps rho (k, N, N, N, N): all N^2
    values of every map stacked as rows, values at or below coeff_zero
    dropped, and one row space."""
    if not len(rho):
        return []
    N = rho.shape[-1]
    (a, b), (s, t) = np.triu_indices(N, 1), np.triu_indices(N)
    W = np.concatenate([rho[:, a, b] - rho[:, b, a], 1j * (rho[:, s, t] + rho[:, t, s])],
                       axis=1).reshape(-1, N * N)
    W = W[np.abs(W).max(axis=1) > DEFAULT_TOL.coeff_zero]
    return [unflatten(row, (N, N)) for row in row_space(np.hstack([W.real, W.imag]))]


def _dense_berger(alg):
    """berger_check by the dense route: the solve on the encoded unit
    parameters or the dense unitary units, and the image of the stacked
    maps."""
    N = alg.n + 2
    E = (curvspace._encode(unit_params(alg.n)) if _fits_pattern(alg)
         else _dense_unitary_units(alg.n))
    rho = _dense_solve(E, alg).reshape(-1, N, N, N, N)
    generated = MatrixAlgebra(alg.n, _dense_image(rho))
    return {"dim_R_space": len(rho), "is_berger": generated.equals(alg), "generated": generated}


def _route_cases(suite, rng):
    """The oracle cases, every catalog entry with n <= 4, and a U(n)-, a
    parabolic and a U(1,n+1)-conjugate (oracles.conjugations) of each
    catalog entry with 1 <= n <= 3; only the last leave the block
    pattern."""
    from lkholonomy.cli import _catalog_entries
    cases = _oracle_cases(suite, rng)
    for n in range(5):
        for i, e in enumerate(_catalog_entries(n)):
            alg = C.build_family(e["descriptor"])
            cases.append((f"catalog n={n} e{i}", alg))
            if 1 <= n <= 3:
                for name, U in conjugations(n, rng).items():
                    moved = MatrixAlgebra(n, [U @ b @ np.linalg.inv(U) for b in alg.basis])
                    assert _fits_pattern(moved) == (name != "unitary"), (n, i, name)
                    cases.append((f"catalog n={n} e{i} {name}", moved))
    return cases


def test_sparse_route_matches_the_dense_route(suite, rng):
    """berger_check on the sparse unit tables gives the dimension of K(g),
    the verdict and the generated algebra of the dense route it replaced,
    on every route case."""
    for name, alg in _route_cases(suite, rng):
        want, got = _dense_berger(alg), berger_check(alg)
        assert got["dim_R_space"] == want["dim_R_space"], name
        assert got["is_berger"] == want["is_berger"], name
        assert got["generated"].equals(want["generated"]), name


def test_unit_tables_densify_to_the_dense_unit_maps():
    """Each cached table holds exactly the nonzero entries of its dense unit
    maps, bit for bit: the unitary one those of _dense_unitary_units(n), the
    parabolic one those of its maps with every value in parabolic_mask(n),
    in order; and neither can be written."""
    for n in range(6):
        E = _dense_unitary_units(n)
        inside = ~E[..., ~parabolic_mask(n)].any(axis=(1, 2, 3))
        parabolic, unitary = curvspace._ambient(n, True), curvspace._ambient(n, False)
        assert parabolic.dense().tobytes() == E[inside].tobytes(), n
        assert unitary.dense().tobytes() == E.tobytes(), n
        for table in (parabolic, unitary):
            assert not any(a.flags.writeable for a in (table.unit, table.slot, table.entry,
                                                       table.value)), n


def test_real_values_are_the_nonzero_dense_values():
    """real_values lists, in order, the values E[:, a, b] - E[:, b, a] for
    a < b and then i (E[:, s, t] + E[:, t, s]) for s <= t of the dense unit
    maps that some unit has nonzero: the units and the real columns of the
    entries that are nonzero, and the values there, exactly, n = 0..4 in
    both ambients."""
    for n in range(5):
        N = n + 2
        for parabolic in (True, False):
            units = curvspace._ambient(n, parabolic)
            E = units.dense().reshape(units.count, N, N, N * N)
            values = [E[:, a, b] - E[:, b, a] for a, b in zip(*np.triu_indices(N, 1))]
            values += [1j * (E[:, s, t] + E[:, t, s]) for s, t in zip(*np.triu_indices(N))]
            want = []
            for V in values:
                reach, entries = np.flatnonzero(V.any(axis=1)), np.flatnonzero(V.any(axis=0))
                if len(reach):
                    W = V[np.ix_(reach, entries)]
                    want.append((reach, np.ravel([[2 * e, 2 * e + 1] for e in entries]),
                                 np.stack([W.real, W.imag], axis=2).reshape(len(reach), -1)))
            got = units.real_values
            assert len(got) == len(want), (n, parabolic)
            for g, w in zip(got, want):
                assert all(np.array_equal(x, y) for x, y in zip(g, w)), (n, parabolic)


def test_gk_curvature_dimensions_follow_the_closed_form():
    """For GK with L = C^n, n = 1..5, dim K(g) is (n+1)(n+2) + n^2 +
    n^2 (n+1) + (n(n+1)/2)^2 for k = iR + u(n), the first catalog entry
    (10, 37, 101, 226, 442): the part fixed by n, A, P(u(n)) and K(u(n));
    (n+1)(n+2) for k = iR alone; and param_dim(n) for k = C + u(n), the
    full algebra."""
    from lkholonomy.cli import _catalog_entries
    for n, first in zip(range(1, 6), (10, 37, 101, 226, 442)):
        zero = np.zeros((n, n), complex)
        cases = [(_catalog_entries(n)[0]["descriptor"],
                  (n + 1) * (n + 2) + n * n + n * n * (n + 1) + (n * (n + 1) // 2) ** 2),
                 (C.KLDescriptor(n, n, [(1.0, zero)]), (n + 1) * (n + 2))]
        assert cases[0][1] == first
        for d, dim in cases:
            assert berger_check(C.build_family(d))["dim_R_space"] == dim, (n, dim)
        assert berger_check(_full_algebra(n))["dim_R_space"] == param_dim(n), n


def test_curvature_image_drops_values_at_coeff_zero(rng):
    """One encoded map scaled so that its largest entry is 5e-13 has an
    empty curvature image, since none of its values exceeds 1e-12; scaled
    to 2e-12 it has a value above 1e-12, and an image.  The scales are
    written out, so that coeff_zero moved from 1e-12 by a factor of 100
    either way fails here."""
    rho = param_encode(random_param(2, rng)).rho
    for largest, empty in ((5e-13, True), (2e-12, False)):
        R = rho * (largest / np.abs(rho).max())
        image = curvspace.curvature_image(UnitMaps.of(2, [R[None]]), np.ones((1, 1)))
        assert (image == []) == empty, largest


def test_solve_matches_reference_assembly(suite, rng):
    """The structured solve and the unit-vector assembly span the same real
    space, and every returned map satisfies all curvature identities, with
    reality read by the Witt involution."""
    for name, alg in _oracle_cases(suite, rng):
        got = solve_curvature_space(alg)
        ref = _reference_solve(alg, _witt_sigma)
        assert _real_rank(got) == len(got), name
        assert _real_rank(ref) == len(ref), name
        assert _real_rank(got + ref) == len(got) == len(ref), name
        for R in got:
            assert _reference_invariant_residual(R, _witt_sigma) < 1e-10, name


def _solve_in(units, alg) -> list[CurvatureMap]:
    N, X = alg.n + 2, curvspace._constrained_solve(units, alg)
    rho = X.T @ units.dense().reshape(units.count, -1)
    return [CurvatureMap(alg.n, r) for r in rho.reshape(-1, N, N, N, N)]


def test_parabolic_ambient_matches_unitary_ambient(suite, rng, monkeypatch):
    """On every oracle case and every catalog entry with n <= 4, the solve
    on the unitary ambient gives a basis, and where the basis of g fits the
    block pattern the parabolic ambient spans the same space.  G0, u(1,1)
    and u(1,2) are the only ones outside the pattern, and
    solve_curvature_space gives exactly them the unitary ambient."""
    from lkholonomy.cli import _catalog_entries
    cases = _oracle_cases(suite, rng)
    for n in range(5):
        cases += [(f"catalog n={n} {e['descriptor'].family}", C.build_family(e["descriptor"]))
                  for e in _catalog_entries(n)]
    ambients = []
    solve = curvspace._constrained_solve
    monkeypatch.setattr(curvspace, "_constrained_solve",
                        lambda units, alg: ambients.append(units.count) or solve(units, alg))
    outside = []
    for name, alg in cases:
        by_unitary = _solve_in(curvspace._ambient(alg.n, False), alg)
        assert _real_rank(by_unitary) == len(by_unitary), name
        assert len(solve_curvature_space(alg)) == len(by_unitary), name
        N = alg.n + 2
        if not _fits_pattern(alg):
            outside.append(name)
            assert ambients[-1] == (N * (N + 1) // 2) ** 2, name
            continue
        assert ambients[-1] == param_dim(alg.n), name
        by_param = _solve_in(curvspace._ambient(alg.n, True), alg)
        assert _real_rank(by_param) == len(by_param), name
        assert _real_rank(by_param + by_unitary) == len(by_param) == len(by_unitary), name
    assert outside == ["G0", "u(1,1)", "u(1,2)", "catalog n=0 G0"]


def test_unitary_units_are_a_basis():
    """The unitary units have real rank (N (N + 1) / 2)^2, the dimension of
    the Kaehler curvature tensors on C^N, and satisfy every curvature
    identity of u(1,n+1) exactly."""
    for n in range(6):
        N = n + 2
        E = curvspace._unitary_units(n).dense()
        assert E.shape == (((N * (N + 1)) // 2) ** 2,) + (N,) * 4
        assert _real_rank([CurvatureMap(n, r) for r in E]) == len(E), n
        assert _witt_residual(E) == 0.0, n


def test_parabolic_units_are_the_unitary_units_inside_the_pattern():
    """The parabolic ambient keeps param_dim(n) of the unitary units, n =
    0..8, and drops only units with an entry off parabolic_mask(n); at n <=
    4 its units are independent and span what the encoded unit parameters
    span, the curvature space of the full algebra."""
    for n in range(9):
        parabolic, unitary = curvspace._ambient(n, True), curvspace._ambient(n, False)
        assert parabolic.count == param_dim(n), n
        off = np.unique(unitary.unit[~parabolic_mask(n).ravel()[unitary.entry]])
        assert unitary.count - len(off) == parabolic.count, n
        if n <= 4:
            maps = [CurvatureMap(n, r) for r in parabolic.dense()]
            encoded = [CurvatureMap(n, r) for r in curvspace._encode(unit_params(n))]
            assert _real_rank(maps) == _real_rank(maps + encoded) == param_dim(n), n


def test_unitary_algebra_is_berger():
    """u(1,1) and u(1,2) in the Witt frame have the curvature spaces of
    dimension 9 and 36, and generate themselves."""
    for n, dim in ((0, 9), (1, 36)):
        res = berger_check(_unitary_algebra(n))
        assert (res["dim_R_space"], res["is_berger"]) == (dim, True), n


def test_algebras_outside_the_pattern_build_no_parabolic_units(rng, monkeypatch):
    """G0, u(1,1), u(1,2) and a U(1,3)-conjugate of a catalog entry at
    n = 2 take the unitary ambient without asking for the parabolic one;
    the conjugate keeps the entry's verdict."""
    from lkholonomy.cli import _catalog_entries
    entry = C.build_family(_catalog_entries(2)[2]["descriptor"])
    U = random_unitary(2, rng)
    moved = MatrixAlgebra(2, [U @ b @ np.linalg.inv(U) for b in entry.basis])
    want = berger_check(entry)

    ambient = curvspace._ambient

    def refuse(n, parabolic):
        assert not parabolic, "parabolic ambient asked for"
        return ambient(n, parabolic)

    monkeypatch.setattr(curvspace, "_ambient", refuse)
    cases = [(C.build_family(C.N0Descriptor("G0")), 5, True), (_unitary_algebra(0), 9, True),
             (_unitary_algebra(1), 36, True), (moved, want["dim_R_space"], want["is_berger"])]
    for alg, dim, is_berger in cases:
        got = berger_check(alg)
        assert (got["dim_R_space"], got["is_berger"]) == (dim, is_berger)


def test_berger_verdict_is_invariant_under_unitary_conjugation(rng):
    """A seeded U(1,n+1)-conjugate of every catalog entry at n = 1, 2 and of
    the no-iR counterexample leaves the parabolic pattern and keeps the
    dimension of K(g) and the Berger verdict."""
    from lkholonomy.cli import _catalog_entries
    algebras = [C.build_family(e["descriptor"]) for n in (1, 2) for e in _catalog_entries(n)]
    algebras += [no_ir_counterexample(n) for n in (1, 2)]
    for alg in algebras:
        U = random_unitary(alg.n, rng)
        gram = WittMetric(alg.n).gram
        assert np.abs(U.conj().T @ gram @ U - gram).max() < 1e-12
        moved = MatrixAlgebra(alg.n, [U @ b @ np.linalg.inv(U) for b in alg.basis])
        assert not _fits_pattern(moved)
        want, got = berger_check(alg), berger_check(moved)
        assert (got["dim_R_space"], got["is_berger"]) == (want["dim_R_space"], want["is_berger"])


def test_unit_parameters_are_a_basis():
    """The encoded unit parameters E have real rank param_dim(n), satisfy
    every curvature identity exactly, and R0 takes n^2 (n + 1)^2 / 4 of
    them."""
    for n in range(6):
        units = unit_params(n)
        E = curvspace._encode(units)
        assert E.shape == (param_dim(n),) + (n + 2,) * 4
        assert _real_rank([CurvatureMap(n, r) for r in E]) == param_dim(n), n
        assert CurvatureMap(n, E).invariant_residual() == 0.0, n
        r0_units = np.count_nonzero(units.R0.reshape(len(E), -1).any(axis=1))
        assert r0_units == n * n * (n + 1) * (n + 1) // 4, n


@pytest.fixture
def null_space_inputs(monkeypatch):
    """Every matrix curvspace passes to null_space, in call order."""
    inputs = []

    def recorded(rows, *args, **kwargs):
        inputs.append(rows)
        return null_space(rows, *args, **kwargs)

    monkeypatch.setattr(curvspace, "null_space", recorded)
    return inputs


def test_full_algebra_takes_no_null_space(null_space_inputs):
    """On the full algebra the parabolic ambient returns the param_dim(n)
    unit maps with no constraint to solve: curvspace calls no null space."""
    for n in range(1, 6):
        assert len(solve_curvature_space(_full_algebra(n))) == param_dim(n)
        assert null_space_inputs == [], n


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
        units, X = curvspace._solve(alg)
        shapes.clear()
        image = curvspace.curvature_image(units, X)
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


def _reference_encode(p):
    """param_encode's block layout one slot at a time, as a loop."""
    n, q = p.n, p.n + 1
    rho = np.zeros((q + 1,) * 4, complex)
    rho[0, q][0] = np.concatenate([[p.alpha], p.N_vec, [p.beta]])
    for j in range(n):
        B = rho[1 + j, q]
        B[0] = np.concatenate([[p.N_vec[j]], p.T[:, j], [np.conj(p.K[j])]])
        B[1:q, 1:q], B[1:q, q] = p.P[:, :, j], p.A[:, j]
        for k in range(n):
            B = rho[1 + j, 1 + k]
            B[0, 1:] = np.concatenate([p.P[k, :, j], [p.A[k, j]]])
            B[1:q, 1:q], B[1:q, q] = p.R0[:, :, j, k], np.conj(p.P[j, :, k])
    B = rho[q, q]
    B[0] = np.concatenate([[p.beta], np.conj(p.K), [p.c]])
    B[1:q, 1:q], B[1:q, q], B[q, q] = p.A, p.K, np.conj(p.beta)
    for i in range(q):
        rho[q, i] = -sigma_involution(rho[i, q])
    return rho


def test_encode_matches_the_block_loop(rng):
    """The whole-array encoder writes the loop's blocks bit for bit, for one
    parameter tuple and for each unit parameter of a stack."""
    for n in (0, 1, 2, 3):
        p = random_param(n, rng)
        assert np.array_equal(param_encode(p).rho, _reference_encode(p))
        units = unit_params(n)
        stack = param_encode(units).rho
        for u in range(param_dim(n)):
            unit = CurvatureParam(n, **{f: getattr(units, f)[u] for f in (
                "alpha", "beta", "c", "N_vec", "K", "T", "R0", "P", "A")})
            assert np.array_equal(stack[u], _reference_encode(unit)), (n, u)


def test_codec_roundtrip(rng):
    for n in (1, 2, 3, 4):
        for _ in range(50):
            p = random_param(n, rng)
            q = param_decode(param_encode(p))
            assert _param_distance(p, q) < 1e-12


def test_random_param_has_every_r0_symmetry(rng):
    """The group average leaves no symmetry error at all: the holomorphic
    pair, the antiholomorphic pair and reality hold exactly."""
    for n in (1, 2, 3):
        R0 = random_param(n, rng).R0
        assert np.array_equal(R0, np.transpose(R0, (0, 2, 1, 3)))
        assert np.array_equal(R0, np.transpose(R0, (3, 1, 2, 0)))
        assert np.array_equal(R0, np.conj(np.transpose(R0, (1, 0, 3, 2))))


def test_encode_refuses_parameters_that_break_a_symmetry(rng):
    """An asymmetric T, an R0 that breaks one holomorphic-pair symmetry, and
    a complex c are each realized by no curvature map."""
    broken = [random_param(2, rng) for _ in range(3)]
    broken[0].T[0, 1] += 1e-3
    broken[1].R0[0, 1, 0, 1] += 1e-3
    broken[2].c += 1e-3j
    for p in broken:
        with pytest.raises(ValueError, match="not realized by any curvature map"):
            param_encode(p)


def test_decode_refuses_maps_outside_the_block_form(rng):
    """Each perturbed map of _perturbed_maps, and an encoded map whose
    A entry in rho[1, 1] alone moves by 1e-3, is refused; the unperturbed
    maps decode."""
    maps = _perturbed_maps(rng)
    for R in maps[0::2]:
        param_decode(R)
    for R in maps[1::2]:
        with pytest.raises(ValueError):
            param_decode(R)
    for n in (1, 2):
        R = param_encode(random_param(n, rng))
        R.rho[1, 1][0, n + 1] += 1e-3
        with pytest.raises(ValueError, match="block form of the full algebra"):
            param_decode(R)


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
    N, rho = R.n + 2, R.rho
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
        noise *= parabolic_mask(n)
        maps += [R, CurvatureMap(n, R.rho + 1e-3 * noise)]
    return maps


def test_real_curvature_is_exact(rng):
    """Every entry of the (2N, 2N, N, N) array equals the pairwise formula
    on the m-basis (b_k, i b_k), bit for bit."""
    for R in _perturbed_maps(rng):
        N = R.n + 2
        mb = list(np.eye(N)) + list(1j * np.eye(N))
        Rm = R.real_curvature()
        assert Rm.shape == (2 * N, 2 * N, N, N)
        for a, x in enumerate(mb):
            for b, y in enumerate(mb):
                assert np.array_equal(Rm[a, b], _reference_real_curvature(R.rho, x, y))


def test_invariant_residual_matches_loop_oracle(suite, rng):
    """The whole-array residual agrees with the index loops to rounding, on
    encoded and perturbed maps and on the solved maps of every oracle case
    in the parabolic pattern."""
    cases = _perturbed_maps(rng)
    for _, alg in _oracle_cases(suite, rng):
        if _fits_pattern(alg):
            cases += solve_curvature_space(alg)
    for R in cases:
        ref = _reference_invariant_residual(R)
        assert abs(R.invariant_residual() - ref) <= 1e-15 * max(ref, 1.0)
