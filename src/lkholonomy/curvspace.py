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
from .lie import MatrixAlgebra, null_space, real_span_basis, row_space, sigma_involution


@dataclass
class CurvatureMap:
    """Mixed-type algebraic curvature tensor with values in g^C."""

    n: int
    rho: np.ndarray  # shape (N, N, N, N), rho[i, j] = R(b_i, conj b_j)

    @property
    def dim_v(self) -> int:
        return self.n + 2

    def real_value(self, i: int, j: int) -> np.ndarray:
        """R(b_i, b_j) on real basis arguments."""
        return self.rho[i, j] - self.rho[j, i]

    def invariant_residual(self, sigma=sigma_involution) -> float:
        """Worst violation of reality, exchange symmetry, and the first
        Bianchi identity (on real arguments).  sigma is a parameter because
        the tests check algebras of real matrices with np.conj."""
        N = self.dim_v
        worst = 0.0
        for i in range(N):
            for j in range(N):
                worst = max(worst, np.abs(self.rho[i, j]
                                          + sigma(self.rho[j, i])).max())
                for k in range(N):
                    worst = max(worst, np.abs(self.rho[i, j][:, k]
                                              - self.rho[k, j][:, i]).max())
        # first Bianchi on real vectors: cyclic sum of R(b_i, b_j) b_k
        for i in range(N):
            for j in range(N):
                for k in range(N):
                    cyc = (self.real_value(i, j)[:, k]
                           + self.real_value(j, k)[:, i]
                           + self.real_value(k, i)[:, j])
                    worst = max(worst, np.abs(cyc).max())
        return worst


def _complex_span_basis(mats: list[np.ndarray]):
    rows = row_space(np.array([m.ravel() for m in mats]), DEFAULT_TOL.rank_rel)
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


def solve_curvature_space(alg: MatrixAlgebra) -> list[CurvatureMap]:
    """Basis of the real solution space of the two linear conditions
    rho[i,j] = -sigma(rho[j,i]) and rho[i,j] b_k = rho[k,j] b_i, with all
    values constrained to span_C(g).

    The exchange condition is complex-linear and the same for every slot j:
    its null space parametrizes rho[:, j] = sum_e t[j, e] E[:, e].  sigma is
    anti-linear, so reality for i <= j (i > j is sigma of it) is a real
    system in (Re t, Im t) that applies sigma to the matrices E only."""
    if alg.dim == 0:
        return []
    sigma = _default_sigma(alg)
    N = alg.n + 2
    B = np.array(_complex_span_basis(alg.basis))  # (c, N, N)
    ii, kk = np.triu_indices(N, 1)  # exchange rows (i < k, s), unknowns (i, b)
    X = np.zeros((len(ii), N, N, len(B)), complex)
    X[np.arange(len(ii)), :, ii, :] = B[:, :, kk].transpose(2, 1, 0)
    X[np.arange(len(ii)), :, kk, :] = -B[:, :, ii].transpose(2, 1, 0)
    K = null_space(X.reshape(len(ii) * N, -1), DEFAULT_TOL.rank_rel).conj().T.reshape(N, len(B), -1)
    d = K.shape[2]
    if d == 0:
        return []
    E = np.einsum("ibe,bst->iest", K, B)  # (N, d, N, N)
    S = np.array([[sigma(E[i, e]) for e in range(d)] for i in range(N)])
    # reality rows (i <= j, s, t): t[j] . E[i] + conj(t[i]) . S[j]
    ii, jj = np.triu_indices(N)
    lin, anti = np.zeros((2, len(ii), N * N, N, d), complex)
    lin[np.arange(len(ii)), :, jj, :] = E[ii].reshape(-1, d, N * N).transpose(0, 2, 1)
    anti[np.arange(len(ii)), :, ii, :] = S[jj].reshape(-1, d, N * N).transpose(0, 2, 1)
    plus, minus = (lin + anti).reshape(-1, N * d), (lin - anti).reshape(-1, N * d)
    Y = null_space(np.block([[plus.real, -minus.imag], [plus.imag, minus.real]]),
                   DEFAULT_TOL.rank_rel)
    T = (Y[:, :N * d] + 1j * Y[:, N * d:]).reshape(-1, N, d)
    return [CurvatureMap(alg.n, r) for r in np.einsum("kje,iest->kijst", T, E)]


def berger_check(alg: MatrixAlgebra) -> dict:
    """Span of all curvature images, as the sigma-fixed real algebra it
    generates; alg is Berger iff that span is all of alg."""
    maps = solve_curvature_space(alg)
    N = alg.n + 2
    images: list[np.ndarray] = []
    for R in maps:
        for i in range(N):
            for j in range(N):
                images.append(R.rho[i, j] - R.rho[j, i])
                images.append(1j * (R.rho[i, j] + R.rho[j, i]))
    span = real_span_basis([m for m in images if np.abs(m).max() > DEFAULT_TOL.coeff_zero])
    generated = MatrixAlgebra(alg.n, span)
    contained = all(alg.contains(b) for b in generated.basis)
    return {
        "dim_R_space": len(maps),
        "is_berger": contained and generated.dim == alg.dim,
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
        if self.N_vec is None:
            self.N_vec = np.zeros(n, complex)
        if self.K is None:
            self.K = np.zeros(n, complex)
        if self.T is None:
            self.T = np.zeros((n, n), complex)
        if self.R0 is None:
            self.R0 = np.zeros((n, n, n, n), complex)
        if self.P is None:
            self.P = np.zeros((n, n, n), complex)
        if self.A is None:
            self.A = np.zeros((n, n), complex)

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
    k_basis = [(1.0, np.zeros((n, n), complex)), (1j, np.zeros((n, n), complex))]
    for j in range(n):
        for k in range(j, n):
            E = np.zeros((n, n), complex)
            if j == k:
                E[j, j] = 1j
                k_basis.append((0.0, E))
            else:
                E[j, k] = 1.0
                E[k, j] = -1.0
                k_basis.append((0.0, E.copy()))
                k_basis.append((0.0, 1j * np.abs(E)))
    return build_family(KLDescriptor(n, n, k_basis))


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
    N = R.dim_v
    ric = np.empty((N, N), complex)
    for i in range(N):
        for j in range(N):
            ric[j, i] = np.trace(R.rho[i, j])
    return ric
