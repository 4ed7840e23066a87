"""Real Lie subalgebras of u(1,n+1) as spans of complex matrices, and the
one rank rule behind every span and null space of the package.

All spans, ranks and memberships are computed over the reals by flattening
complex matrices into real vectors; the anti-linear sigma involution then
becomes an honest linear map.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL


# -- the rank rule ------------------------------------------------------------

def numerical_rank(s: np.ndarray, floor: float = 0.0) -> int:
    """Number of singular values (sorted descending) above
    max(rank_rel * s[0], floor); 0 for an empty or all-zero spectrum.  Here
    and in row_space and null_space, floor is a parameter: the matcher,
    same_descriptor and RealFormData pass rank_rel at unit scale, and the
    Berger solve rank_rel times the norm of its conditions."""
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > max(DEFAULT_TOL.rank_rel * s[0], floor)))


def row_space(rows: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Orthonormal rows spanning the row space, from a thin SVD."""
    if rows.size == 0:
        return rows[:0]
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[:numerical_rank(s, floor)]


def null_space(rows: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Orthonormal rows x with rows @ x.conj() = 0 spanning the null space;
    U is built in full only when it is smaller than V^H."""
    _, s, vt = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    return vt[numerical_rank(s, floor):]


# -- real-span machinery ------------------------------------------------------

def flatten(mats) -> np.ndarray:
    """One real row (Re, Im) per complex matrix or vector of a stack, or of
    a list of them; an empty stack gives no rows."""
    X = np.asarray(mats)
    X = X.reshape(len(X), np.prod(X.shape[1:], dtype=int))
    return np.concatenate([X.real, X.imag], axis=1)


def unflatten(rows: np.ndarray, shape: tuple = (-1,)) -> np.ndarray:
    """The complex matrix or vector of the given shape behind a real row,
    or the stack of them behind a stack of rows."""
    half = rows.shape[-1] // 2
    return (rows[..., :half] + 1j * rows[..., half:]).reshape(rows.shape[:-1] + tuple(shape))


def real_span_basis(mats) -> list[np.ndarray]:
    """Orthonormal (over R) basis of the real span of a stack or a list of
    matrices, the all-zero ones left out."""
    X = np.asarray(mats)
    rows = flatten(X)
    rows = rows[np.abs(rows).max(axis=1) > 0]
    return list(unflatten(row_space(rows), X.shape[1:]))


def is_anti_hermitian(A: np.ndarray) -> bool:
    """|A + A^H| within residual times max(largest entry, 1), entrywise: the
    one rule for the k-generators of a descriptor and the A_alpha of a
    potential."""
    A = np.asarray(A, dtype=complex)
    return not (A.size and np.abs(A + A.conj().T).max()
                > DEFAULT_TOL.residual * max(np.abs(A).max(), 1.0))


def in_real_span(m: np.ndarray, basis: list[np.ndarray]) -> bool:
    """span_residual within rank_rel times max(largest real component, 1)."""
    scale = max(np.abs(flatten([m])).max(), 1.0) if len(basis) else 1.0
    return span_residual(m, basis) <= DEFAULT_TOL.rank_rel * scale


def span_coords(m: np.ndarray, basis: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Least-squares real coordinates in the real span of the basis of m, one
    matrix or vector shaped like the basis elements or a stack of them along
    leading axes, and the largest real component of the residual.  The
    coordinates keep m's leading axes; an empty basis leaves m itself as the
    residual."""
    m = np.asarray(m)
    if len(basis) == 0:
        return np.zeros(0), float(np.abs(flatten([m])).max(initial=0.0))
    size = basis[0].size
    V = np.concatenate([m.real.reshape(-1, size), m.imag.reshape(-1, size)], axis=1).T
    B = flatten(basis).T
    coeff, *_ = np.linalg.lstsq(B, V, rcond=None)
    lead = m.shape[:m.ndim - basis[0].ndim]
    return (coeff.T.reshape(lead + (len(basis),)),
            float(np.abs(V - B @ coeff).max(initial=0.0)))


def span_residual(m: np.ndarray, basis: list[np.ndarray]) -> float:
    return span_coords(m, basis)[1]


# -- algebra container --------------------------------------------------------

@dataclass
class MatrixAlgebra:
    """A real-spanned space of complex (n+2)x(n+2) matrices."""

    n: int
    basis: list[np.ndarray]

    def __post_init__(self):
        self.basis = real_span_basis(self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket_residual(self) -> float:
        """The largest real residual component of a bracket [x, y] of two
        basis elements (x before y) off the real span, from one
        least-squares fit of all D(D-1)/2 brackets stacked; 0.0 for D <= 1."""
        if self.dim < 2:
            return 0.0
        B = np.array(self.basis)
        i, j = np.triu_indices(self.dim, 1)
        return span_residual(B[i] @ B[j] - B[j] @ B[i], self.basis)

    def equals(self, other: "MatrixAlgebra") -> bool:
        """Equal dimensions, and the basis of self in the real span of other
        within rank_rel: in_real_span's bound for each basis matrix, whose
        orthonormal entries are at most 1, checked in one fit."""
        return self.dim == other.dim and (
            self.dim == 0
            or span_residual(np.array(self.basis), other.basis) <= DEFAULT_TOL.rank_rel)


def unitary_basis(n: int) -> list[np.ndarray]:
    """The real basis of u(n): i E_jj for each j, then E_jk - E_kj and
    i (E_jk + E_kj) for each j < k."""
    E = np.eye(n, dtype=complex)
    basis = [1j * np.outer(E[j], E[j]) for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            Ejk = np.outer(E[j], E[k])
            basis += [Ejk - Ejk.T, 1j * (Ejk + Ejk.T)]
    return basis


# -- the parabolic 4-tuple model ----------------------------------------------

@dataclass
class ABZCElement:
    """Element (a, A, Z, c) of u(1,n+1)_{Cp}."""

    a: complex
    A: np.ndarray  # n x n, anti-Hermitian
    Z: np.ndarray  # n-vector
    c: float

    @property
    def n(self) -> int:
        return len(self.Z)

    def to_matrix(self) -> np.ndarray:
        n = self.n
        m = np.zeros((n + 2, n + 2), dtype=complex)
        m[0, 0] = self.a
        m[0, 1:n + 1] = -np.conj(self.Z)
        m[0, n + 1] = 1j * self.c
        m[1:n + 1, 1:n + 1] = self.A
        m[1:n + 1, n + 1] = self.Z
        m[n + 1, n + 1] = -np.conj(self.a)
        return m

    @staticmethod
    def from_matrix(m: np.ndarray) -> "ABZCElement":
        """(a, A, Z, c) of m, by abzc_parts."""
        a, A, Z, c = abzc_parts(m[None])
        return ABZCElement(a[0], A[0].copy(), Z[0].copy(), c[0])


def abzc_parts(X: np.ndarray) -> tuple[np.ndarray, ...]:
    """The stacks of a, A, Z and c of a stack X of matrices, each of which
    fits the block pattern and is fixed by sigma, both within
    rank_rel·max(|X|, 1); the first matrix that does not is a ValueError."""
    n = X.shape[-1] - 2
    off = ~fits_pattern(X)
    tol = DEFAULT_TOL.rank_rel * np.maximum(np.abs(X).max(axis=(-2, -1)), 1.0)
    bad = off | (np.abs(_sigma(X) - X).max(axis=(-2, -1)) > tol)
    if bad.any():
        raise ValueError("matrix is not in the parabolic block pattern" if off[bad.argmax()]
                         else "matrix is not fixed by sigma")
    return X[:, 0, 0], X[:, 1:n + 1, 1:n + 1], X[:, 1:n + 1, n + 1], X[:, 0, n + 1].imag


# -- the parabolic block pattern and sigma -------------------------------------

@functools.cache
def parabolic_mask(n: int) -> np.ndarray:
    """The entries of u(1,n+1)_{Cp}^C, the stabilizer of the null line p:
    block upper triangular in the Witt blocks (p), (e_1..e_n), (q).  One
    read-only array per n."""
    block = np.array([0] + [1] * n + [2])
    mask = block[:, None] <= block
    mask.flags.writeable = False
    return mask


def fits_pattern(X: np.ndarray) -> np.ndarray:
    """Whether each matrix of X, which may carry leading axes, has its
    entries off parabolic_mask within rank_rel·max(|X|, 1): the one test of
    the block pattern."""
    off = np.abs(X[..., ~parabolic_mask(X.shape[-1] - 2)]).max(axis=-1)
    return off <= DEFAULT_TOL.rank_rel * np.maximum(np.abs(X).max(axis=(-2, -1)), 1.0)


def sigma_involution(xi: np.ndarray) -> np.ndarray:
    """The anti-linear involution X -> -Gram X^H Gram on the block pattern,
    whose fixed points are the embeddings of the real parabolic elements;
    entries off the pattern map to 0.  xi may carry leading axes, and each
    matrix must fit the pattern."""
    if not fits_pattern(xi).all():
        raise ValueError("sigma: matrix violates the upper-triangular block pattern")
    return _sigma(xi)


def _sigma(xi: np.ndarray) -> np.ndarray:
    """sigma_involution without the pattern check, for a caller that has
    made it."""
    n = xi.shape[-1] - 2
    swap = [n + 1, *range(1, n + 1), 0]
    return np.where(parabolic_mask(n), -np.conj(xi[..., swap, :][..., swap]).swapaxes(-2, -1), 0)
