"""Algebraic curvature tensors with values in g^C, the Berger test, and the
block-parameter codec for the full parabolic algebra.

A curvature map is stored through its mixed values rho[i, j] = R(b_i, conj
b_j) on the Witt basis b_0 = p, b_1..b_n = e_j, b_{n+1} = q.  The (1,0)-(1,0)
and (0,1)-(0,1) values vanish identically, and real arguments are recovered
by R(X, Y) = R(X, conj Y) - R(Y, conj X).

The curvature space K(g) is one constraint solve on the closed-form
curvature space of an ambient algebra: the real combinations of its unit
maps whose every value lies in span_C(g).  A basis of g that fits the
parabolic block pattern (lie.fits_pattern) takes the full algebra
u(1,n+1)_{Cp}, whose unit maps are param_encode of the param_dim(n) unit
parameters; any other basis (G0, a U(1,n+1)-conjugate of a family) takes
u(1,n+1) itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .hermitian import WittMetric
from .lie import (MatrixAlgebra, fits_pattern, null_space, row_space, sigma_involution, unflatten,
                  unitary_basis)


# The largest n of an algebra file for berger.  On one core of a 2-core
# Intel Xeon machine the full algebra takes about 0.5 s at a peak RSS of
# 261 MB at n = 6, 1.2-1.5 s at 586 MB at n = 7 and 2.5-3.0 s at 1336 MB at
# n = 8; the unit parameters alone are param_dim(n) (n + 2)^4 complex entries.
# Worst at n = 6 is a basis outside the pattern: a U(1,7)-conjugate of the
# first catalog entry takes 4-5 s at 410 MB (the entry: 2.0 s, 355 MB).
MAX_BERGER_N = 6


@dataclass
class CurvatureMap:
    """Mixed-type algebraic curvature tensor with values in g^C."""

    n: int
    rho: np.ndarray  # shape (N, N, N, N), rho[i, j] = R(b_i, conj b_j)

    @property
    def dim_v(self) -> int:
        return self.n + 2

    def real_curvature(self) -> np.ndarray:
        """Rm[a, b] = R(m_a, m_b) on the real basis m = (b_0..b_{N-1}, i b_0..i
        b_{N-1}) of V, shape (2N, 2N, N, N).  X[a, b] = R(m_a, conj m_b) is
        [[rho, -i rho], [i rho, rho]] and Rm = X - X^T in the argument slots;
        every entry is exact."""
        r = self.rho
        X = np.concatenate([np.concatenate([r, -1j * r], 1), np.concatenate([1j * r, r], 1)])
        return X - X.transpose(1, 0, 2, 3)

    def invariant_residual(self) -> float:
        """Worst violation of reality, exchange symmetry, and the first
        Bianchi identity (on real arguments), over every map when rho carries
        a leading axis.  Reality reads sigma_involution, so the values must
        fit the parabolic block pattern."""
        rho = self.rho
        swapped = rho.swapaxes(-4, -3)  # rho[j, i]
        # P[i, j, k] = R(b_i, b_j) b_k, whose cyclic sum vanishes
        P = (rho - swapped).swapaxes(-2, -1)
        return float(max(np.abs(rho + sigma_involution(swapped)).max(),
                         np.abs(rho - rho.swapaxes(-4, -1)).max(),
                         np.abs(P + np.moveaxis(P, -2, -4) + np.moveaxis(P, -4, -2)).max()))


def _pairs(n: int, strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs j <= k of range(n), or j < k when strict, in row
    order: np.triu_indices at a fraction of its cost."""
    r = np.arange(n)
    return np.nonzero(r[:, None] < r if strict else r[:, None] <= r)


def _complex_span_basis(mats: list[np.ndarray]):
    rows = row_space(np.array([m.ravel() for m in mats]))
    return [row.reshape(mats[0].shape) for row in rows]


def _constrained_solve(E: np.ndarray, alg: MatrixAlgebra) -> np.ndarray:
    """Rows rho (k, N^4) spanning K(g) for g inside an ambient algebra whose
    curvature space has the real basis E: the maps E x, x real, whose every
    value rho[i, j] lies in span_C(g).  Within the pattern of entries where
    the values of E live, span_C(g) is the orthogonal complement of the
    orthonormal rows H, so slot (i, j) asks H^* rho[i, j] = 0.  The
    orthonormal columns X of the admissible parameters are restricted by
    one null space per pair of mirror slots (i, j), (j, i), over the
    columns that pair reaches.  A singular value counts above rank_rel
    times the norm of all the conditions: rounding is all that is left of
    a condition that H or the slots before it make zero.  The ambient
    itself has no H and takes no null space."""
    N = alg.n + 2
    E = E.reshape(-1, N * N, N * N)
    B = np.reshape(_complex_span_basis(alg.basis), (-1, N * N))
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
            # the conditions on slot (i, j) and on its mirror (j, i)
            rows = C[reached[:, None], [i, j], [j, i]].reshape(len(reached), -1)
            rows = np.concatenate([rows.real, rows.imag], axis=1)
            x = null_space(rows.T @ X[np.ix_(reached, active)], floor)
            X = np.concatenate([X[:, ~active], X[:, active] @ x.T], axis=1)
    return X.T @ E.reshape(len(E), -1)


def solve_curvature_space(alg: MatrixAlgebra) -> list[CurvatureMap]:
    """A real basis of the curvature space K(g), as a constraint on the
    curvature space of the full parabolic algebra when the basis of g fits
    the block pattern, else on that of u(1,n+1)."""
    if alg.dim == 0:
        return []
    N = alg.n + 2
    E = (_encode(_unit_params(alg.n)) if fits_pattern(np.array(alg.basis)).all()
         else _unitary_units(alg.n))
    return [CurvatureMap(alg.n, r) for r in _constrained_solve(E, alg).reshape(-1, N, N, N, N)]


def curvature_image(maps: list[CurvatureMap]) -> list[np.ndarray]:
    """Orthonormal real basis of the span of every value R(X, Y) of the maps.
    R is skew, R(iX, iY) = R(X, Y) and R(i b_a, b_b) = R(i b_b, b_a), so the
    N^2 values R(b_a, b_b) for a < b and R(i b_a, b_b) for a <= b are all of
    them; values at or below coeff_zero are dropped."""
    if not maps:
        return []
    N = maps[0].dim_v
    rho = np.array([R.rho for R in maps])
    (a, b), (s, t) = _pairs(N, strict=True), _pairs(N)
    # R(b_a, b_b) = rho[a, b] - rho[b, a] and R(i b_s, b_t) = i (rho[s, t] + rho[t, s])
    W = np.concatenate([rho[:, a, b] - rho[:, b, a], 1j * (rho[:, s, t] + rho[:, t, s])],
                       axis=1).reshape(-1, N * N)
    W = W[np.abs(W).max(axis=1) > DEFAULT_TOL.coeff_zero]
    return [unflatten(row, (N, N))
            for row in row_space(np.hstack([W.real, W.imag]))]


def berger_check(alg: MatrixAlgebra) -> dict:
    """Span of all curvature images, as the sigma-fixed real algebra it
    generates; alg is Berger iff that span is all of alg."""
    maps = solve_curvature_space(alg)
    generated = MatrixAlgebra(alg.n, curvature_image(maps))
    return {
        "dim_R_space": len(maps),
        "is_berger": generated.equals(alg),
        "generated": generated,
    }


# ---------------------------------------------------------------------------
# block-parameter codec for the full algebra u(1,n+1)_{Cp}
# ---------------------------------------------------------------------------


@dataclass
class CurvatureParam:
    """Free parameters of the curvature space of the full parabolic algebra.

    T is symmetric; P is symmetric in its two covariant (conjugate) slots;
    R0 has the unitary curvature symmetries; A is Hermitian; c is real.
    These are the reality and exchange identities of the map param_encode
    writes, which refuses parameters that break them.
    """

    n: int
    alpha: complex = 0.0
    beta: complex = 0.0
    c: float = 0.0
    N_vec: np.ndarray = None  # conjugate n-vector
    K: np.ndarray = None
    T: np.ndarray = None      # (n, n) symmetric
    R0: np.ndarray = None     # (n, n, n, n): R0[:, :, j, k] = R0(e_j, conj e_k)
    P: np.ndarray = None      # (n, n, n): P[:, :, j] = P(e_j), P[s, j, k] sym in (j, k)
    A: np.ndarray = None

    def __post_init__(self):
        n = self.n
        for name, shape in (("N_vec", (n,)), ("K", (n,)), ("T", (n, n)), ("R0", (n,) * 4),
                            ("P", (n,) * 3), ("A", (n, n))):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(shape, complex))


def param_dim(n: int) -> int:
    """Real dimension of the parameter space: alpha, beta (2 each), c (1),
    N, K (2n each), symmetric complex T (n(n+1)), Hermitian A (n^2),
    complex P (n^2(n+1)), and R0 in the real unitary curvature space
    (n^2(n+1)^2/4).  The number of unit parameters _unit_params builds, and
    the dimension of K(u(1,n+1)_{Cp})."""
    return (2 + 2 + 1 + 2 * n + 2 * n + n * (n + 1) + n * n
            + n * n * (n + 1) + n * n * (n + 1) * (n + 1) // 4)


def _r0_average(R0: np.ndarray) -> np.ndarray:
    """The average over the 8-element group generated by the holomorphic-pair,
    antiholomorphic-pair and reality symmetries of R0, along leading axes:
    exact in one pass."""
    R0 = R0 + R0.swapaxes(-3, -2)
    R0 = R0 + R0.swapaxes(-4, -1)
    return (R0 + np.conj(R0.swapaxes(-4, -3).swapaxes(-2, -1))) / 8


def _r0_units(size: int) -> np.ndarray:
    """A real basis of the unitary curvature tensors R0 on C^size along one
    leading axis of length (size (size + 1) / 2)^2: one orbit sum of a unit
    tensor under the group of _r0_average per orbit.  R0 is a Hermitian
    form on symmetric pairs, R0[a, b, j, k] at the pairs (a, k) and (b, j):
    a unit at u <= v of the pairs, and i times it when u < v."""
    j, k = _pairs(size)
    u, v = _pairs(len(j))
    R0 = np.zeros((len(u),) + (size,) * 4, complex)
    R0[np.arange(len(u)), j[u], j[v], k[v], k[u]] = 1.0
    return _r0_average(np.concatenate([R0, 1j * R0[u < v]]))


def _unitary_units(n: int) -> np.ndarray:
    """A real basis of K(u(1,n+1)) along one leading axis of length
    (N (N + 1) / 2)^2, N = n + 2: rho[i, j] = Gram R0[:, :, i, j] for the R0
    units at size N, as Gram rho[i, j] meets the reality condition of u(N)."""
    return WittMetric(n).gram @ np.moveaxis(_r0_units(n + 2), (-2, -1), (-4, -3))


def _unit_params(n: int) -> CurvatureParam:
    """A real basis of the parameter space along one leading axis of length
    param_dim(n): 1 and i in each free complex entry, 1 in c, the Hermitian
    units of A, and the R0 units at size n."""
    j, k = _pairs(n)
    sym = np.zeros((len(j), n, n))
    sym[np.arange(len(j)), j, k] = sym[np.arange(len(j)), k, j] = 1.0
    eye = np.eye(n)

    def cplx(U):
        return np.concatenate([U, 1j * U])

    units = {
        "alpha": cplx(np.ones(1)),
        "beta": cplx(np.ones(1)),
        "c": np.ones(1),
        "N_vec": cplx(eye),
        "K": cplx(eye),
        "T": cplx(sym),
        "R0": _r0_units(n),
        "P": (eye[:, None, :, None, None] * cplx(sym)[:, None])
               .reshape((2 * n * len(j),) + (n,) * 3),
        "A": np.concatenate([sym, 1j * sym[j < k] * (np.tri(n).T - np.tri(n))]),
    }
    p, start, fields = param_dim(n), 0, {}
    for name, U in units.items():
        fields[name] = np.zeros((p,) + U.shape[1:], U.dtype)
        fields[name][start:start + len(U)] = U
        start += len(U)
    return CurvatureParam(n, **fields)


def _full_algebra(n: int) -> MatrixAlgebra:
    from .classify import KLDescriptor, build_family
    zero = np.zeros((n, n), complex)
    return build_family(KLDescriptor(n, n, [(1.0, zero), (1j, zero)]
                                     + [(0.0, A) for A in unitary_basis(n)]))


def _encode(p: CurvatureParam) -> np.ndarray:
    """rho of param_encode, unchecked, along the leading axes of the parameters."""
    n, q = p.n, p.n + 1
    alpha, beta, c = np.asarray(p.alpha), np.asarray(p.beta), np.asarray(p.c)
    rho = np.zeros(alpha.shape + (q + 1,) * 4, complex)
    rho[..., 0, q, 0, :] = np.concatenate([alpha[..., None], p.N_vec, beta[..., None]], -1)
    jq = rho[..., 1:q, q, :, :]
    jq[..., 0, 0], jq[..., 0, 1:q], jq[..., 0, q] = p.N_vec, p.T.swapaxes(-2, -1), np.conj(p.K)
    jq[..., 1:q, 1:q], jq[..., 1:q, q] = np.moveaxis(p.P, -1, -3), p.A.swapaxes(-2, -1)
    jk = rho[..., 1:q, 1:q, :, :]
    jk[..., 0, 1:q], jk[..., 0, q] = np.moveaxis(p.P, -1, -3), p.A.swapaxes(-2, -1)
    jk[..., 1:q, 1:q] = np.moveaxis(p.R0, (-2, -1), (-4, -3))
    jk[..., 1:q, q] = np.conj(p.P).swapaxes(-2, -1)
    qq = rho[..., q, q, :, :]
    qq[..., 0, :] = np.concatenate([beta[..., None], np.conj(p.K), c[..., None]], -1)
    qq[..., 1:q, 1:q], qq[..., 1:q, q], qq[..., q, q] = p.A, p.K, np.conj(beta)
    rho[..., q, :q, :, :] = -sigma_involution(rho[..., :q, q, :, :])
    return rho


def param_encode(p: CurvatureParam) -> CurvatureMap:
    """The curvature map of the full algebra carrying the given parameters,
    or the stack of maps when every parameter carries one leading axis.
    With q = n + 1 and e_j = b_j, whose parameters sit at index j - 1, the
    blocks are
        rho[0, q] row 0 = (alpha, N^T, beta),
        rho[j, q] = [[N_j, T[:, j]^T, conj K_j], [P(e_j), A e_j]],
        rho[j, k] = [[0, P[k, :, j], A[k, j]], [R0[:, :, j, k], conj P[j, :, k]]],
        rho[q, q] = [[beta, conj K^T, c], [A, K], [conj beta]],
        rho[q, i] = -sigma(rho[i, q]),
    and every other block is zero.  The parameters' symmetries are the
    map's reality and exchange identities, so one invariant_residual check,
    within residual relative to max(largest entry, 1), refuses any
    parameters that break them."""
    R = CurvatureMap(p.n, _encode(p))
    if R.invariant_residual() > DEFAULT_TOL.residual * max(np.abs(R.rho).max(), 1.0):
        raise ValueError("parameters are not realized by any curvature map")
    return R


def param_decode(R: CurvatureMap) -> CurvatureParam:
    """Read the block parameters off a curvature map of the full algebra:
    the entries param_encode writes, read once each.  The map is refused
    unless param_encode accepts them and their re-encoding is R within
    rank_rel."""
    n, q, rho = R.n, R.n + 1, R.rho
    p = CurvatureParam(
        n,
        alpha=complex(rho[0, q][0, 0]),
        beta=complex(rho[0, q][0, q]),
        c=float(rho[q, q][0, q].real),
        N_vec=rho[0, q][0, 1:q].copy(),
        K=rho[q, q][1:q, q].copy(),
        T=rho[1:q, q, 0, 1:q].T.copy(),
        R0=rho[1:q, 1:q, 1:q, 1:q].transpose(2, 3, 0, 1).copy(),
        P=rho[1:q, q, 1:q, 1:q].transpose(1, 2, 0).copy(),
        A=rho[q, q][1:q, 1:q].copy(),
    )
    if np.abs(param_encode(p).rho - rho).max() > DEFAULT_TOL.rank_rel:
        raise ValueError("curvature map is not in the block form of the full algebra")
    return p


def no_ir_counterexample(n: int) -> MatrixAlgebra:
    """The span R(i, i id) + L_0 with m = 0, the untwisted L_0 = R^n, and no
    iR line.  Its curvature space is forced to zero, so it is not a Berger
    algebra (this is why every weakly irreducible Berger subalgebra contains
    iR)."""
    from .lie import ABZCElement
    eye = np.eye(n, dtype=complex)
    basis = [ABZCElement(1j, 1j * eye, np.zeros(n, complex), 0.0).to_matrix()]
    basis += [ABZCElement(0.0, np.zeros((n, n), complex), e, 0.0).to_matrix() for e in eye]
    return MatrixAlgebra(n, basis)


def ricci_of_map(R: CurvatureMap) -> np.ndarray:
    """Trace contraction ric[j, i] = trace of R(b_i, conj b_j) over V^C;
    the output is Hermitian for maps with values in the parabolic algebra."""
    return np.einsum("ijss->ji", R.rho)
