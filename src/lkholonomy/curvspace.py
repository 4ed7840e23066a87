"""Algebraic curvature tensors with values in g^C, the Berger test, and the
block-parameter codec for the full parabolic algebra.

A curvature map is stored through its mixed values rho[i, j] = R(b_i, conj
b_j) on the Witt basis b_0 = p, b_1..b_n = e_j, b_{n+1} = q.  The (1,0)-(1,0)
and (0,1)-(0,1) values vanish identically, and real arguments are recovered
by R(X, Y) = R(X, conj Y) - R(Y, conj X).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .lie import MatrixAlgebra, null_space, row_space, sigma_involution, unflatten, unitary_basis


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

    def invariant_residual(self, sigma=sigma_involution) -> float:
        """Worst violation of reality, exchange symmetry, and the first
        Bianchi identity (on real arguments).  sigma is a parameter because
        the tests check algebras of real matrices with np.conj."""
        rho, N = self.rho, self.dim_v
        mirror = np.array([[sigma(rho[j, i]) for j in range(N)] for i in range(N)])
        # P[i, j, k] = R(b_i, b_j) b_k, whose cyclic sum vanishes
        P = self.real_curvature()[:N, :N].transpose(0, 1, 3, 2)
        return float(max(np.abs(rho + mirror).max(),
                         np.abs(rho - rho.transpose(3, 1, 2, 0)).max(),
                         np.abs(P + P.transpose(2, 0, 1, 3) + P.transpose(1, 2, 0, 3)).max()))


def _complex_span_basis(mats: list[np.ndarray]):
    rows = row_space(np.array([m.ravel() for m in mats]))
    return [row.reshape(mats[0].shape) for row in rows]


def _default_sigma(alg: MatrixAlgebra):
    """The anti-linear involution of span_C(g) fixing g: the parabolic block
    involution when the basis fits that pattern, entrywise conjugation for
    algebras of real matrices."""
    try:
        for b in alg.basis:
            sigma_involution(b)
        return sigma_involution
    except ValueError:
        return np.conj


def _exchange_rows(M: np.ndarray) -> np.ndarray:
    """Rows of sum_e x[a, e] M[j, e][s, b] - x[b, e] M[j, e][s, a] = 0 over
    j, a < b and s, in the unknowns x (N, d), for M of shape (J, d, N, N)."""
    J, d, N, _ = M.shape
    ii, kk = np.triu_indices(N, 1)
    X = np.zeros((len(ii), J, N, N, d), complex)
    X[np.arange(len(ii)), :, :, ii] = M[..., kk].transpose(3, 0, 2, 1)
    X[np.arange(len(ii)), :, :, kk] = -M[..., ii].transpose(3, 0, 2, 1)
    return X.reshape(-1, N * d)


def _complex_solutions(alg: MatrixAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows rho (k, N^4) spanning Z = W & tau W over C, and their
    images under tau rho[i, j] = -sigma(rho[j, i]).  W, the exchange null
    space, parametrizes rho[:, j] = sum_e t[j, e] E[:, e] with orthonormal E.
    tau rho is in W iff the columns of -sum_e conj(t[i, e]) sigma(E[j, e])
    satisfy the exchange condition: conjugated, one complex null space in t."""
    sigma = _default_sigma(alg)
    N = alg.n + 2
    B = np.array(_complex_span_basis(alg.basis))  # (c, N, N)
    K = null_space(_exchange_rows(B[None])).conj().T.reshape(N, len(B), -1)
    d = K.shape[2]
    if d == 0:
        return np.zeros((0, N ** 4)), np.zeros((0, N ** 4))
    E = np.einsum("ibe,bst->iest", K, B)  # (N, d, N, N)
    S = np.array([[sigma(E[i, e]) for e in range(d)] for i in range(N)])
    t = null_space(_exchange_rows(S.conj())).conj().reshape(-1, d)
    # rho_l[i, j] = sum_e t_l[j, e] E[i, e], tau rho_l[i, j] = -sum_e conj(t_l[i, e]) S[j, e]
    rho = (t @ E.transpose(1, 0, 2, 3).reshape(d, -1)).reshape(-1, N, N, N, N)
    tau = -(t.conj() @ S.transpose(1, 0, 2, 3).reshape(d, -1))
    return rho.transpose(0, 2, 1, 3, 4).reshape(-1, N ** 4), tau.reshape(-1, N ** 4)


def solve_curvature_space(alg: MatrixAlgebra) -> list[CurvatureMap]:
    """Basis of the real solution space of rho[i,j] = -sigma(rho[j,i]) and
    rho[i,j] b_k = rho[k,j] b_i, values in span_C(g): the tau-fixed points of
    Z.  tau is an anti-unitary involution of Z, so T[l, m] = <rho_l, tau rho_m>
    is unitary and symmetric, and the fixed points a = T conj(a) are a null
    space whose singular values are 0 and 2 only."""
    if alg.dim == 0:
        return []
    rho, tau = _complex_solutions(alg)
    k, N = len(rho), alg.n + 2
    T = rho.conj() @ tau.T
    a = null_space(np.block([[T.real - np.eye(k), T.imag], [T.imag, -T.real - np.eye(k)]]))
    return [CurvatureMap(alg.n, r)
            for r in ((a[:, :k] + 1j * a[:, k:]) @ rho).reshape(-1, N, N, N, N)]


def curvature_image(maps: list[CurvatureMap]) -> list[np.ndarray]:
    """Orthonormal real basis of the span of every value R(X, Y) of the maps.
    R is skew, R(iX, iY) = R(X, Y) and R(i b_a, b_b) = R(i b_b, b_a), so the
    N^2 values R(b_a, b_b) for a < b and R(i b_a, b_b) for a <= b are all of
    them; values at or below coeff_zero are dropped."""
    if not maps:
        return []
    N = maps[0].dim_v
    skew, sym = np.triu_indices(N, 1), np.triu_indices(N)
    W = np.reshape([np.concatenate([Rm[skew], Rm[N:][sym]])
                    for Rm in (R.real_curvature() for R in maps)], (-1, N * N))
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
    R0 has the unitary curvature symmetries; A is an arbitrary complex
    matrix; its real dimension count is validated against the solver.
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

    def validate(self):
        n, tol = self.n, DEFAULT_TOL.residual
        if np.abs(self.T - self.T.T).max(initial=0) > tol:
            raise ValueError("T must be symmetric")
        if np.abs(self.P - np.transpose(self.P, (0, 2, 1))).max(initial=0) > tol:
            raise ValueError("P must be symmetric in its two covariant slots")
        for j in range(n):
            for k in range(n):
                B = self.R0[:, :, j, k]
                Bc = self.R0[:, :, k, j]
                if np.abs(B - Bc.conj().T).max(initial=0) > tol:
                    raise ValueError("R0 violates the exchange/reality symmetry")
        if abs(complex(self.c).imag) > tol:
            raise ValueError("c must be real")


def param_dim(n: int) -> int:
    """Real dimension of the parameter space: alpha, beta (2 each), c (1),
    N, K (2n each), symmetric complex T (n(n+1)), Hermitian A (n^2),
    complex P (n^2(n+1)), and R0 in the real unitary curvature space
    (n^2(n+1)^2/4).  Matches the solver's null-space dimension."""
    return (2 + 2 + 1 + 2 * n + 2 * n + n * (n + 1) + n * n
            + n * n * (n + 1) + n * n * (n + 1) * (n + 1) // 4)


def random_param(n: int, rng: np.random.Generator) -> CurvatureParam:
    """A random parameter tuple satisfying all invariants."""

    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    T = crandn(n, n)
    T = (T + T.T) / 2
    P = crandn(n, n, n)
    P = (P + np.transpose(P, (0, 2, 1))) / 2
    A = crandn(n, n)
    A = (A + A.conj().T) / 2
    R0 = crandn(n, n, n, n)
    for _ in range(200):  # alternate projections onto the symmetry spaces
        R0 = (R0 + np.transpose(R0, (0, 2, 1, 3))) / 2   # holomorphic pair
        R0 = (R0 + np.transpose(R0, (3, 1, 2, 0))) / 2   # antiholomorphic pair
        R0 = (R0 + np.conj(np.transpose(R0, (1, 0, 3, 2)))) / 2  # reality
    return CurvatureParam(
        n,
        alpha=complex(crandn()),
        beta=complex(crandn()),
        c=float(rng.standard_normal()),
        N_vec=crandn(n),
        K=crandn(n),
        T=T,
        R0=R0,
        P=P,
        A=A,
    )


_SOLUTION_CACHE: dict[int, list[CurvatureMap]] = {}


def _full_algebra(n: int) -> MatrixAlgebra:
    from .classify import KLDescriptor, build_family
    zero = np.zeros((n, n), complex)
    return build_family(KLDescriptor(n, n, [(1.0, zero), (1j, zero)]
                                     + [(0.0, A) for A in unitary_basis(n)]))


def _solution_basis(n: int) -> list[CurvatureMap]:
    if n not in _SOLUTION_CACHE:
        _SOLUTION_CACHE[n] = solve_curvature_space(_full_algebra(n))
    return _SOLUTION_CACHE[n]


def _display_entries(R: CurvatureMap) -> np.ndarray:
    """The parameter-bearing entries of the four displayed blocks, as a real
    vector (used to fit a solution to prescribed parameters)."""
    n = R.n
    q = n + 1
    vals = [R.rho[0, q][0, :]]                       # alpha, N^t, beta
    for j in range(1, n + 1):
        vals.append(R.rho[j, q][0, 1:q])             # T(e_j)^t
        vals.append(R.rho[j, q][1:q, 1:q + 1].ravel())  # P(e_j), A e_j
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            vals.append(R.rho[j, k][1:q, 1:q].ravel())  # R0
    vals.append(R.rho[q, q].ravel())                 # beta, K-bar, c, A, K
    v = np.concatenate(vals)
    return np.concatenate([v.real, v.imag])


def _target_entries(p: CurvatureParam) -> np.ndarray:
    n = p.n
    q = n + 1
    zero = np.zeros((n + 2, n + 2), complex)

    def blk_pq():
        B = zero.copy()
        B[0, 0] = p.alpha
        B[0, 1:q] = p.N_vec
        B[0, q] = p.beta
        return B

    def blk_Xq(j):
        B = zero.copy()
        X = np.zeros(n, complex)
        X[j] = 1.0
        B[0, 0] = 4 * p.N_vec @ X
        B[0, 1:q] = p.T @ X
        B[0, q] = 4 * np.conj(p.K) @ X
        B[1:q, 1:q] = p.P[:, :, j]
        B[1:q, q] = p.A @ X
        return B

    def blk_XY(j, k):
        # X = e_{j+1}, Y = e_k (1-based block column index k)
        B = zero.copy()
        B[0, 1:q] = 4 * p.P[k - 1, :, j]          # g(P(X) . , conj Y)
        B[0, q] = 4 * p.A[k - 1, j]               # g(A X, conj Y)
        B[1:q, 1:q] = p.R0[:, :, j, k - 1]
        B[1:q, q] = np.conj(p.P[j, :, k - 1])     # conj(P(Y))^t X
        return B

    def blk_qq():
        B = zero.copy()
        B[0, 0] = p.beta
        B[0, 1:q] = np.conj(p.K)
        B[0, q] = p.c
        B[1:q, 1:q] = p.A
        B[1:q, q] = p.K
        B[q, q] = np.conj(p.beta)
        return B

    vals = [blk_pq()[0, :]]
    for j in range(n):
        Bj = blk_Xq(j)
        vals.append(Bj[0, 1:q])
        vals.append(Bj[1:q, 1:q + 1].ravel())
    for j in range(n):
        for k in range(1, n + 1):
            Bjk = blk_XY(j, k)
            vals.append(Bjk[1:q, 1:q].ravel())
    vals.append(blk_qq().ravel())
    v = np.concatenate(vals)
    return np.concatenate([v.real, v.imag])


def param_encode(p: CurvatureParam) -> CurvatureMap:
    """The unique curvature map of the full algebra whose displayed blocks
    carry the given parameters (fit within the solved curvature space)."""
    p.validate()
    basis = _solution_basis(p.n)
    if not basis:
        raise ValueError("empty curvature space")
    Mat = np.array([_display_entries(R) for R in basis]).T
    target = _target_entries(p)
    coeff, res, *_ = np.linalg.lstsq(Mat, target, rcond=None)
    fit = Mat @ coeff
    if np.abs(fit - target).max() > DEFAULT_TOL.rank_abs:
        raise ValueError("parameters are not realized by any curvature map")
    rho = sum(c * R.rho for c, R in zip(coeff, basis))
    return CurvatureMap(p.n, rho)


def param_decode(R: CurvatureMap) -> CurvatureParam:
    """Read the block parameters off a curvature map of the full algebra."""
    n, tol = R.n, DEFAULT_TOL.rank_abs
    q = n + 1
    B_pq = R.rho[0, q]
    B_qq = R.rho[q, q]
    if np.abs(B_pq[1:, :]).max(initial=0) > tol:
        raise ValueError("R(p, conj q) violates the block pattern")
    p = CurvatureParam(
        n,
        alpha=complex(B_pq[0, 0]),
        beta=complex(B_pq[0, q]),
        c=float(B_qq[0, q].real),
        N_vec=B_pq[0, 1:q].copy(),
        K=B_qq[1:q, q].copy(),
        A=B_qq[1:q, 1:q].copy(),
    )
    if abs(B_qq[0, q].imag) > tol:
        raise ValueError("c entry is not real")
    if abs(B_qq[0, 0] - p.beta) > tol or abs(B_qq[q, q] - np.conj(p.beta)) > tol:
        raise ValueError("beta entries are inconsistent")
    T = np.empty((n, n), complex)
    P = np.empty((n, n, n), complex)
    for j in range(1, n + 1):
        Bj = R.rho[j, q]
        T[:, j - 1] = Bj[0, 1:q]
        P[:, :, j - 1] = Bj[1:q, 1:q]
        if np.abs(Bj[1:q, q] - p.A @ np.eye(n)[:, j - 1]).max(initial=0) > tol:
            raise ValueError("A entries are inconsistent between blocks")
    R0 = np.empty((n, n, n, n), complex)
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            R0[:, :, j - 1, k - 1] = R.rho[j, k][1:q, 1:q]
    p.T = T
    p.P = P
    p.R0 = R0
    p.validate()
    return p


def no_ir_counterexample(n: int, lambdas: list[float] | None = None) -> MatrixAlgebra:
    """The span R(i, i id + theta) + L_0 with m = 0 and no iR line.  Its
    curvature space is forced to zero, so it is not a Berger algebra (this
    is why every weakly irreducible Berger subalgebra contains iR)."""
    from .hermitian import RealFormData
    from .lie import ABZCElement
    rf = RealFormData.from_lambdas(lambdas or [], n)
    twist = ABZCElement(1j, 1j * np.eye(n) + rf.theta,
                        np.zeros(n, complex), 0.0).to_matrix()
    basis = [twist]
    for j in range(n):
        basis.append(ABZCElement(0.0, np.zeros((n, n), complex),
                                 rf.basis_f[:, j], 0.0).to_matrix())
    return MatrixAlgebra(n, basis)


def ricci_of_map(R: CurvatureMap) -> np.ndarray:
    """Trace contraction ric[j, i] = trace of R(b_i, conj b_j) over V^C;
    the output is Hermitian for maps with values in the parabolic algebra."""
    return np.einsum("ijss->ji", R.rho)
