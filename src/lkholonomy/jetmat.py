"""Matrices with Jet entries: products, exponentials, and inverses and square
roots solved degree by degree.

Matrices are numpy object arrays of Jet instances sharing one JetSpace.
These are small (at most (n+2)x(n+2)), so dense object arrays are fine.
"""
from __future__ import annotations

from itertools import repeat

import numpy as np

from .config import DEFAULT_TOL
from .jets import Jet, JetShapeError, JetSpace, _jet, graded_sum, product_into


def _filled(shape: tuple[int, ...], values, dtype=object) -> np.ndarray:
    """The array of the given shape whose entries, in C order, are values."""
    out = np.empty(shape, dtype=dtype)
    out.flat = list(values)
    return out


def _entrywise(f, A: np.ndarray, dtype=object) -> np.ndarray:
    """The array of f(a) over the entries a of A."""
    return _filled(A.shape, map(f, A.flat), dtype)


def jmat_from_const(M: np.ndarray, space: JetSpace) -> np.ndarray:
    """The constant jet matrix M; its zero entries are one shared empty jet,
    which is safe because jets are values."""
    M = np.asarray(M, dtype=complex)
    zero = space.zero()
    return _filled(M.shape, (zero if v == 0 else space.constant(v) for v in M.flat))


def jmat_zero(shape: tuple[int, int], space: JetSpace) -> np.ndarray:
    return jmat_from_const(np.zeros(shape), space)


def jmat_identity(n: int, space: JetSpace) -> np.ndarray:
    return jmat_from_const(np.eye(n), space)


def jmat_space(A: np.ndarray) -> JetSpace:
    j: Jet = A.flat[0]
    return JetSpace(j.num_coords, j.order)


def jmat_add(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A + B  # object arrays add entrywise


def jmat_scale(A: np.ndarray, s) -> np.ndarray:
    return _entrywise(lambda a: a * s, A)


def jmat_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The entries sum_l A[i, l] * B[l, j], fused: each output entry sums its
    products straight into one dict, with the floats, the key order and the
    jet order of the entrywise loop acc = acc + A[i, l] * B[l, j].

    The jet space is checked once.  Entry (i, j) has the least order of row
    i of A and column j of B, so only products of degree <= that order are
    formed, and only over the l, in increasing order, at which both A[i, l]
    and B[l, j] have terms: an empty factor adds nothing to the loop's sum.
    Each product sums its pairs in the order of the jet product and is
    merged as Jet.__add__ merges, and the degree-filtered term lists of
    B[l, j] are shared across the rows."""
    r, k = A.shape
    k2, c = B.shape
    if k != k2:
        raise ValueError("shape mismatch in jet matrix product")
    out = np.empty((r, c), dtype=object)
    if not out.size:
        return out
    n = A.flat[0].num_coords
    if any(a.num_coords != n for a in A.flat) or any(b.num_coords != n for b in B.flat):
        raise JetShapeError("jet spaces differ in a jet matrix product")
    row_order = [min(a.order for a in row) for row in A]
    col_order = [min(b.order for b in col) for col in B.T]
    rows = [[(l, a.terms) for l, a in enumerate(row) if a.terms] for row in A]
    for j in range(c):
        col = [b.terms for b in B[:, j]]
        fits = [{} for _ in range(k)]
        for i in range(r):
            order = min(row_order[i], col_order[j])
            acc: dict = {}
            for l, a in rows[i]:
                b = col[l]
                if not b:
                    continue
                if not acc:
                    # merging into nothing would add 0.0 to sums that start
                    # at 0.0 and so are never -0.0: no bit would change
                    product_into(acc, a, b, order, fits[l])
                    continue
                prod: dict = {}
                product_into(prod, a, b, order, fits[l])
                get = acc.get
                for key, v in prod.items():
                    acc[key] = get(key, 0.0) + v
            out[i, j] = _jet(n, order, acc)
    return out


def jmat_commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return jmat_add(jmat_mul(A, B), jmat_scale(jmat_mul(B, A), -1.0))


def jmat_truncated(A: np.ndarray, order: int) -> np.ndarray:
    return _entrywise(lambda a: a.truncated(order), A)


def jmat_eval0(A: np.ndarray) -> np.ndarray:
    return _entrywise(Jet.constant_term, A, complex)


def jmat_derivative(A: np.ndarray, var: int, holomorphic: bool = True,
                    factor=None) -> np.ndarray:
    return _entrywise(lambda a: a.derivative(var, holomorphic, factor), A)


def jmat_conj(A: np.ndarray) -> np.ndarray:
    return _entrywise(Jet.conjugate, A)


def jmat_conj_transpose(A: np.ndarray) -> np.ndarray:
    return jmat_conj(A).T.copy()


def jmat_max_abs(A: np.ndarray) -> float:
    return max(a.max_abs() for a in A.flat)


def jmat_graded(A: np.ndarray) -> list[np.ndarray | None]:
    """The homogeneous parts of degree 0..order of a jet matrix, None where
    every entry's part is empty."""
    space = jmat_space(A)
    zero = space.zero()
    parts = [[zero] * A.size for _ in range(space.order + 1)]
    for i, a in enumerate(A.flat):
        for d, part in enumerate(a.graded()):
            if part is not None:
                parts[d][i] = part
    return [_filled(A.shape, p) if any(j.terms for j in p) else None for p in parts]


def jmat_from_graded(parts: list[np.ndarray | None]) -> np.ndarray:
    """The jet matrix whose homogeneous parts these are; parts[0] must exist."""
    entries = zip(*(repeat(None) if p is None else p.flat for p in parts))
    return _filled(parts[0].shape, map(Jet.from_graded, entries))


def jmat_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a jet matrix, degree by degree:
    X_0 = A_0^{-1} and X_d = -A_0^{-1} sum_{0<i<=d} A_i X_{d-i}."""
    space = jmat_space(A)
    A0inv = np.linalg.inv(jmat_eval0(A))
    minus_A0inv = jmat_from_const(-A0inv, space)
    parts = jmat_graded(A)
    X = [jmat_from_const(A0inv, space)]
    for d in range(1, space.order + 1):
        s = graded_sum(parts, X, d, jmat_mul)
        X.append(None if s is None else jmat_mul(minus_A0inv, s))
    return jmat_from_graded(X)


def jmat_exp(G: np.ndarray) -> np.ndarray:
    """exp of a jet matrix with zero constant term: the Taylor sum, whose
    k-th term has degree >= k, so it ends at the truncation order."""
    space = jmat_space(G)
    if np.abs(jmat_eval0(G)).max() > DEFAULT_TOL.coeff_zero:
        raise ValueError("jmat_exp requires a zero constant term")
    acc = jmat_identity(G.shape[0], space)
    term = jmat_identity(G.shape[0], space)
    for k in range(1, space.order + 1):
        term = jmat_scale(jmat_mul(term, G), 1.0 / k)
        acc = jmat_add(acc, term)
    return acc


def jmat_sqrt(A: np.ndarray) -> np.ndarray:
    """Square root of a jet matrix whose constant part is Hermitian positive
    definite, solved degree by degree in the eigenbasis U of A_0, where
    B = U^H A U has the constant part diag(w): T_0 = diag(sqrt(w)), and T_d
    solves T_0 T_d + T_d T_0 = B_d - sum_{0<i<d} T_i T_{d-i}, entry (i, j)
    divided by sqrt(w_i) + sqrt(w_j).  The root is U T U^H."""
    space = jmat_space(A)
    A0 = jmat_eval0(A)
    if np.abs(A0 - A0.conj().T).max() > DEFAULT_TOL.rank_rel * max(np.abs(A0).max(), 1.0):
        raise ValueError("jmat_sqrt expects a Hermitian constant part")
    w, U = np.linalg.eigh(A0)
    if w.min() <= 0:
        raise ValueError("jmat_sqrt needs a positive definite constant part")
    root = np.sqrt(w)
    Uh, Uc = jmat_from_const(U.conj().T, space), jmat_from_const(U, space)
    B = jmat_graded(jmat_mul(Uh, jmat_mul(A, Uc)))
    T = [jmat_from_const(np.diag(root), space)]
    for d in range(1, space.order + 1):
        s = graded_sum(T, T, d, jmat_mul)
        R = B[d] if s is None else -s if B[d] is None else B[d] - s
        T.append(None if R is None else R * (1.0 / np.add.outer(root, root)))
    return jmat_mul(Uc, jmat_mul(jmat_from_graded(T), Uh))
