"""Linear algebra over the Witt model of C^{1,n+1}.

Hermitian forms, matrix exponentials, skew normal forms, and the real-form
data (omega, lambda_k, theta, tau) attached to a real subspace L_0 of
C^{n-m}.

Convention: the Hermitian form is linear in the first argument and
conjugate-linear in the second, h(X, Y) = conj(Y)^T . Gram . X.  This is the
convention forced by requiring the 4-tuple bracket formulas of `lie` to
agree with literal matrix commutators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOL
from .jetmat import (
    jmat_add,
    jmat_commutator,
    jmat_derivative,
    jmat_eval0,
    jmat_scale,
    jmat_space,
)


@dataclass(frozen=True)
class WittMetric:
    """Gram data of the Witt basis p, e_1..e_n, q of C^{1,n+1}."""

    n: int

    @property
    def dim(self) -> int:
        return self.n + 2

    @property
    def gram(self) -> np.ndarray:
        g = np.zeros((self.dim, self.dim), dtype=complex)
        g[0, self.dim - 1] = g[self.dim - 1, 0] = 1.0
        for j in range(1, self.dim - 1):
            g[j, j] = 1.0
        return g

    def h(self, X: np.ndarray, Y: np.ndarray) -> complex:
        """h(X, Y), linear in X, conjugate-linear in Y."""
        return complex(np.conj(Y) @ self.gram @ X)

    def is_anti_hermitian(self, xi: np.ndarray, tol: float = DEFAULT_TOL.unitary) -> bool:
        g = self.gram
        res = xi.conj().T @ g + g @ xi
        return np.abs(res).max() <= tol * max(np.abs(xi).max(), 1.0)


def matrix_exp(A: np.ndarray) -> np.ndarray:
    return scipy.linalg.expm(np.asarray(A, dtype=complex))


def exp_derivative_series(G: np.ndarray, var: int, k_max: int | None = None) -> np.ndarray:
    """e^{-G} d_var e^G as the truncated ad-series
    sum_k (-1)^k/(k+1)! (ad_G)^k d_var G, for a jet matrix G with G(0) = 0."""
    if np.abs(jmat_eval0(G)).max() > DEFAULT_TOL.coeff_zero:
        raise ValueError("exp_derivative_series requires G(0) = 0")
    space = jmat_space(G)
    if k_max is None:
        k_max = space.order
    dG = jmat_derivative(G, var, holomorphic=True)
    acc = dG
    term = dG
    for k in range(1, k_max + 1):
        term = jmat_commutator(G, term)
        coeff = (-1.0) ** k / math.factorial(k + 1)
        acc = jmat_add(acc, jmat_scale(term, coeff))
    return acc


def skew_normal_form(omega: np.ndarray, tol: float = DEFAULT_TOL.rank_rel):
    """Orthogonal normal form of a real skew-symmetric matrix.

    Returns (Q, lambdas, zero_count) with Q^T omega Q block-diagonal:
    2x2 blocks [[0, -l], [l, 0]] with l >= 0 sorted descending, then zeros.
    """
    omega = np.asarray(omega, dtype=float)
    scale = max(np.abs(omega).max(), 1.0)
    if np.abs(omega + omega.T).max() > 1e-10 * scale:
        raise ValueError("input is not skew-symmetric")
    k = omega.shape[0]
    T, Z = scipy.linalg.schur(omega, output="real")
    # collect 2x2 blocks and zero rows of the quasi-triangular (here block-
    # diagonal) Schur form
    blocks: list[tuple[float, int]] = []  # (lambda, column index of block start)
    zero_cols: list[int] = []
    j = 0
    while j < k:
        if j + 1 < k and abs(T[j + 1, j]) > tol * scale:
            blocks.append((T[j + 1, j], j))
            j += 2
        else:
            zero_cols.append(j)
            j += 1
    # orient each block so the (2,1) entry is +lambda with lambda >= 0
    cols = []
    lambdas = []
    for lam, j in sorted(blocks, key=lambda t: -abs(t[0])):
        if lam >= 0:
            cols.extend([j, j + 1])
            lambdas.append(lam)
        else:
            cols.extend([j + 1, j])
            lambdas.append(-lam)
    cols.extend(zero_cols)
    Q = Z[:, cols]
    return Q, lambdas, len(zero_cols)


def _canonical_f_pair(lam: float) -> np.ndarray:
    """Columns f_1, f_2 in C^2 with |f_i| = 1 and h(f_1, f_2) = -i lam."""
    r = math.sqrt(2.0) / 2.0
    f1 = r * np.array([math.sqrt(1 - lam), -1j * math.sqrt(1 + lam)])
    f2 = r * np.array([-1j * math.sqrt(1 - lam), math.sqrt(1 + lam)])
    return np.column_stack([f1, f2])


@dataclass
class RealFormData:
    """A real form L_0 of C^{n-m} together with its metric invariants."""

    n_minus_m: int
    basis_f: np.ndarray  # columns f_j spanning L_0 over R
    omega: np.ndarray = field(init=False)
    lambdas: list[float] = field(init=False)
    theta: np.ndarray = field(init=False)
    tau_T: np.ndarray = field(init=False)  # tau(x) = tau_T . conj(x)

    def __post_init__(self):
        F = np.asarray(self.basis_f, dtype=complex)
        k = self.n_minus_m
        if F.shape != (k, k):
            raise ValueError("basis_f must be square: one real basis vector per column")
        # real-form condition: the f_j and i f_j together span C^{n-m} over R
        big = np.column_stack([F, 1j * F])
        real_stack = np.vstack([big.real, big.imag])
        if np.linalg.matrix_rank(real_stack, tol=1e-9) != 2 * k:
            raise ValueError("basis_f does not span a real form (iL0 and L0 intersect)")
        gram = F.conj().T @ F  # gram[k][j] = h(f_j, f_k)
        if np.abs(gram.real - np.eye(k)).max() > 1e-9:
            raise ValueError("basis_f must be orthonormal for the real part of h")
        # h(f_j, f_k) = delta_jk + i omega_jk  ->  omega_jk = Im gram[k][j]
        self.omega = gram.imag.T.copy()
        _, self.lambdas, _ = skew_normal_form(self.omega)
        if any(l >= 1.0 - 1e-12 for l in self.lambdas):
            raise ValueError("|lambda_k| < 1 violated: h is not positive definite")
        # With h conjugate-linear in its SECOND argument, the defining scalar
        # identity of theta reads Re h(theta X, Y) = Im h(Y, X) on L_0.
        self.theta = F @ self.omega @ np.linalg.inv(F)
        self.tau_T = F @ np.linalg.inv(np.conj(F))

    @staticmethod
    def from_lambdas(lambdas: list[float], n_minus_m: int) -> "RealFormData":
        """Synthesize the canonical real form with the given block invariants."""
        if 2 * len(lambdas) > n_minus_m:
            raise ValueError("too many lambda blocks for the dimension")
        F = np.eye(n_minus_m, dtype=complex)
        for s, lam in enumerate(lambdas):
            if not abs(lam) < 1.0:
                raise ValueError("|lambda_k| < 1 required")
            F[2 * s : 2 * s + 2, 2 * s : 2 * s + 2] = _canonical_f_pair(abs(lam))
        return RealFormData(n_minus_m, F)

    def tau(self, x: np.ndarray) -> np.ndarray:
        return self.tau_T @ np.conj(x)

    def is_trivial(self, tol: float = DEFAULT_TOL.gram) -> bool:
        """theta = 0, i.e. L_0 contains an h-orthonormal basis."""
        return np.abs(self.omega).max() <= tol


def adapted_basis(rf: RealFormData) -> np.ndarray:
    """Adapted h-orthonormal basis diagonalizing theta.

    Columns e_{2k-1}, e_{2k} per lambda block (theta-eigenvalues -+ i lam_k),
    then the theta-kernel vectors.  Built from the normal form of omega.
    """
    F = rf.basis_f
    Q, lambdas, n_zero = skew_normal_form(rf.omega)
    Fc = F @ Q  # canonical f-basis: gram with omega in normal form
    k = rf.n_minus_m
    out = np.empty((k, k), dtype=complex)
    for s, lam in enumerate(lambdas):
        if not abs(lam) < 1.0:
            raise ValueError("|lambda_k| < 1 required for the adapted basis")
        f1, f2 = Fc[:, 2 * s], Fc[:, 2 * s + 1]
        out[:, 2 * s] = math.sqrt(2) / (2 * math.sqrt(1 - lam)) * (f1 + 1j * f2)
        out[:, 2 * s + 1] = math.sqrt(2) / (2 * math.sqrt(1 + lam)) * (f2 + 1j * f1)
    for j in range(n_zero):
        out[:, 2 * len(lambdas) + j] = Fc[:, 2 * len(lambdas) + j]
    return out
