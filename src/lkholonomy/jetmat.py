"""Matrices with Jet entries: products, inverses, exponentials, square roots.

Matrices are numpy object arrays of Jet instances sharing one JetSpace.
These are small (at most (n+2)x(n+2)), so dense object arrays are fine.
"""
from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOL
from .jets import Jet, JetSpace


def jmat_from_const(M: np.ndarray, space: JetSpace) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    out = np.empty(M.shape, dtype=object)
    for idx in np.ndindex(*M.shape):
        out[idx] = space.constant(M[idx])
    return out


def jmat_zero(shape: tuple[int, int], space: JetSpace) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = space.zero()
    return out


def jmat_identity(n: int, space: JetSpace) -> np.ndarray:
    return jmat_from_const(np.eye(n), space)


def jmat_space(A: np.ndarray) -> JetSpace:
    j: Jet = A.flat[0]
    return JetSpace(j.num_coords, j.order)


def jmat_add(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    out = np.empty(A.shape, dtype=object)
    for idx in np.ndindex(*A.shape):
        out[idx] = A[idx] + B[idx]
    return out


def jmat_scale(A: np.ndarray, s) -> np.ndarray:
    out = np.empty(A.shape, dtype=object)
    for idx in np.ndindex(*A.shape):
        out[idx] = A[idx] * s
    return out


def jmat_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    r, k = A.shape
    k2, c = B.shape
    if k != k2:
        raise ValueError("shape mismatch in jet matrix product")
    out = np.empty((r, c), dtype=object)
    for i in range(r):
        for j in range(c):
            acc = A[i, 0] * B[0, j]
            for l in range(1, k):
                acc = acc + A[i, l] * B[l, j]
            out[i, j] = acc
    return out


def jmat_commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return jmat_add(jmat_mul(A, B), jmat_scale(jmat_mul(B, A), -1.0))


def jmat_truncated(A: np.ndarray, order: int) -> np.ndarray:
    out = np.empty(A.shape, dtype=object)
    for idx in np.ndindex(*A.shape):
        out[idx] = A[idx].truncated(order)
    return out


def jmat_eval0(A: np.ndarray) -> np.ndarray:
    out = np.empty(A.shape, dtype=complex)
    for idx in np.ndindex(*A.shape):
        out[idx] = A[idx].constant_term()
    return out


def jmat_derivative(A: np.ndarray, var: int, holomorphic: bool = True) -> np.ndarray:
    out = np.empty(A.shape, dtype=object)
    for idx in np.ndindex(*A.shape):
        out[idx] = A[idx].derivative(var, holomorphic)
    return out


def jmat_conj(A: np.ndarray) -> np.ndarray:
    out = np.empty(A.shape, dtype=object)
    for idx in np.ndindex(*A.shape):
        out[idx] = A[idx].conjugate()
    return out


def jmat_conj_transpose(A: np.ndarray) -> np.ndarray:
    return jmat_conj(A).T.copy()


def jmat_max_abs(A: np.ndarray) -> float:
    return max(A[idx].max_abs() for idx in np.ndindex(*A.shape))


def jmat_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a jet matrix via Neumann series around the constant part.

    A = A0 + M with A0 invertible; A^{-1} = (sum_k (-A0^{-1} M)^k) A0^{-1},
    and the series terminates at the truncation order since M has no
    constant term after splitting.
    """
    space = jmat_space(A)
    A0 = jmat_eval0(A)
    A0inv = np.linalg.inv(A0)
    M = jmat_add(A, jmat_from_const(-A0, space))  # zero constant term
    B = jmat_scale(jmat_mul(jmat_from_const(A0inv, space), M), -1.0)
    acc = jmat_identity(A.shape[0], space)
    power = jmat_identity(A.shape[0], space)
    for _ in range(space.order):
        power = jmat_mul(power, B)
        if jmat_max_abs(power) <= DEFAULT_TOL.coeff_zero:
            break
        acc = jmat_add(acc, power)
    return jmat_mul(acc, jmat_from_const(A0inv, space))


def jmat_exp(G: np.ndarray) -> np.ndarray:
    """exp of a jet matrix with zero constant term (nilpotent in the jet ring)."""
    space = jmat_space(G)
    if np.abs(jmat_eval0(G)).max() > DEFAULT_TOL.coeff_zero:
        raise ValueError("jmat_exp requires a zero constant term")
    acc = jmat_identity(G.shape[0], space)
    term = jmat_identity(G.shape[0], space)
    for k in range(1, space.order + 1):
        term = jmat_scale(jmat_mul(term, G), 1.0 / k)
        if jmat_max_abs(term) <= DEFAULT_TOL.coeff_zero:
            break
        acc = jmat_add(acc, term)
    return acc


def jmat_sqrt(A: np.ndarray) -> np.ndarray:
    """Square root of a jet matrix whose constant part is Hermitian positive
    definite, via the Denman-Beavers iteration lifted to jets.

    The constant parts converge as for numeric matrices; the higher jet
    coefficients stabilize because each iteration is a contraction on them.
    It stops on a step of coeff_zero, or on a step below 1e-9 of the largest
    coefficient that no longer shrinks (a rounding floor above coeff_zero).
    """
    space = jmat_space(A)
    A0 = jmat_eval0(A)
    if np.abs(A0 - A0.conj().T).max() > 1e-9 * max(np.abs(A0).max(), 1.0):
        raise ValueError("jmat_sqrt expects a Hermitian constant part")
    Y = A
    Z = jmat_identity(A.shape[0], space)
    last = math.inf
    for _ in range(40):
        Yn = jmat_scale(jmat_add(Y, jmat_inverse(Z)), 0.5)
        Zn = jmat_scale(jmat_add(Z, jmat_inverse(Y)), 0.5)
        delta = jmat_max_abs(jmat_add(Yn, jmat_scale(Y, -1.0)))
        Y, Z = Yn, Zn
        if delta <= DEFAULT_TOL.coeff_zero or (
                last <= delta <= 1e-9 * max(jmat_max_abs(Y), 1.0)):
            break
        last = delta
    else:
        raise RuntimeError("matrix square-root iteration did not converge")
    return Y


def jmat_residual(A: np.ndarray, B: np.ndarray) -> float:
    return jmat_max_abs(jmat_add(A, jmat_scale(B, -1.0)))
