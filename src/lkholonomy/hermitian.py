"""Linear algebra over the Witt model of C^{1,n+1}.

Hermitian forms and the real-form data (omega, lambda_k, theta, tau)
attached to a real subspace L_0 of C^{n-m}.

Convention: the Hermitian form is linear in the first argument and
conjugate-linear in the second, h(X, Y) = conj(Y)^T . Gram . X.  This is the
convention forced by requiring the 4-tuple bracket formulas of `lie` to
agree with literal matrix commutators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL
from .lie import numerical_rank, row_space


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

    def is_anti_hermitian(self, xi: np.ndarray) -> bool:
        """|xi^H Gram + Gram xi| within residual times max(|xi|, 1), per matrix."""
        g = self.gram
        res = np.abs(xi.conj().swapaxes(-2, -1) @ g + g @ xi).max(axis=(-2, -1))
        scale = np.maximum(np.abs(xi).max(axis=(-2, -1)), 1.0)
        return bool(np.all(res <= DEFAULT_TOL.residual * scale))


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
        if len(row_space(real_stack, DEFAULT_TOL.rank_rel)) != 2 * k:
            raise ValueError("basis_f does not span a real form (iL0 and L0 intersect)")
        gram = F.conj().T @ F  # gram[k][j] = h(f_j, f_k)
        if np.abs(gram.real - np.eye(k)).max(initial=0.0) > DEFAULT_TOL.rank_rel:
            raise ValueError("basis_f must be orthonormal for the real part of h")
        # h(f_j, f_k) = delta_jk + i omega_jk  ->  omega_jk = Im gram[k][j]
        self.omega = gram.imag.T.copy()
        # omega is orthogonally similar to blocks [[0, l], [-l, 0]] and zeros,
        # so each lambda_k is a singular value of omega, taken twice
        s = np.linalg.svd(self.omega, compute_uv=False)
        blocks = numerical_rank(s, DEFAULT_TOL.rank_rel) // 2
        self.lambdas = [float(x) for x in s[:2 * blocks:2]]
        if any(l >= 1.0 - DEFAULT_TOL.coeff_zero for l in self.lambdas):
            raise ValueError("|lambda_k| < 1 violated: h is not positive definite")
        # With h conjugate-linear in its SECOND argument, the defining scalar
        # identity of theta reads Re h(theta X, Y) = Im h(Y, X) on L_0.
        self.theta = F @ self.omega @ np.linalg.inv(F)
        self.tau_T = F @ np.linalg.inv(np.conj(F))

    @staticmethod
    def from_lambdas(lambdas: list[float], n_minus_m: int) -> "RealFormData":
        """Synthesize the canonical real form with the given block invariants.
        It keeps the lambdas it was given, not their recomputation from
        omega, so that its basis can be rebuilt exactly from them."""
        if 2 * len(lambdas) > n_minus_m:
            raise ValueError("too many lambda blocks for the dimension")
        F = np.eye(n_minus_m, dtype=complex)
        for s, lam in enumerate(lambdas):
            if not abs(lam) < 1.0:
                raise ValueError("|lambda_k| < 1 required")
            F[2 * s : 2 * s + 2, 2 * s : 2 * s + 2] = _canonical_f_pair(abs(lam))
        rf = RealFormData(n_minus_m, F)
        rf.lambdas = [float(lam) for lam in lambdas]
        return rf

    def tau(self, x: np.ndarray) -> np.ndarray:
        return self.tau_T @ np.conj(x)

    def is_trivial(self) -> bool:
        """theta = 0, i.e. L_0 contains an h-orthonormal basis."""
        return np.abs(self.omega).max(initial=0.0) <= DEFAULT_TOL.residual

