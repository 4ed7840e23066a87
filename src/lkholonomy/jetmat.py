"""Matrices with Jet entries: products, exponentials, and inverses and square
roots solved degree by degree.

Matrices are numpy object arrays of Jet instances sharing one JetSpace.
These are small (at most (n+2)x(n+2)), so dense object arrays are fine.
The jmat_* functions are a boundary: they convert to term tables
{(i, j): terms}, run the term-table kernel of `jets` (`table_mul`, the one
product, and `graded_solve`, the one degree-by-degree solve) and convert
back.  `graded_inverse` is the solve behind `jmat_inverse`.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL
from .jets import (Jet, JetShapeError, JetSpace, _jet, _merge, _scaled, graded_solve,
                   table_from_parts, table_mul, table_parts, table_scaled, uniform)


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
    """The coordinates of A's entries and their least order: the order to
    which a product, inverse or root of A is known."""
    return JetSpace(A.flat[0].num_coords, min(a.order for a in A.flat))


def jmat_add(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A + B  # object arrays add entrywise


def jmat_scale(A: np.ndarray, s) -> np.ndarray:
    return _entrywise(lambda a: a * s, A)


def jmat_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The entries sum_l A[i, l] * B[l, j] by `table_mul`, with the floats,
    the key order and the jet order of the entrywise loop
    acc = acc + A[i, l] * B[l, j].  The jet space is checked once.  Entry
    (i, j) has the least order of row i of A and column j of B, so only
    products of degree <= that order are formed."""
    r, k = A.shape
    k2, c = B.shape
    if k != k2:
        raise ValueError("shape mismatch in jet matrix product")
    if not r * c:
        return np.empty((r, c), dtype=object)
    n = A.flat[0].num_coords
    if any(a.num_coords != n for a in A.flat) or any(b.num_coords != n for b in B.flat):
        raise JetShapeError("jet spaces differ in a jet matrix product")
    row_order = [min(a.order for a in row) for row in A]
    col_order = [min(b.order for b in col) for col in B.T]

    def order(i, j):
        return min(row_order[i], col_order[j])

    return _jmat(table_mul(_table(A), _table(B), order), (r, c), n, order)


def jmat_commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return jmat_add(jmat_mul(A, B), jmat_scale(jmat_mul(B, A), -1.0))


def jmat_truncated(A: np.ndarray, order: int) -> np.ndarray:
    return _entrywise(lambda a: a.truncated(order), A)


def jmat_eval0(A: np.ndarray) -> np.ndarray:
    return _entrywise(Jet.constant_term, A, complex)


def jmat_derivative(A: np.ndarray, var: int, holomorphic: bool = True,
                    factor=None) -> np.ndarray:
    return _entrywise(lambda a: a.derivative(var, holomorphic, factor), A)


def jmat_conj_transpose(A: np.ndarray) -> np.ndarray:
    return _entrywise(Jet.conjugate, A).T.copy()


def jmat_max_abs(A: np.ndarray) -> float:
    return max(a.max_abs() for a in A.flat)


def jmat_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a square jet matrix to the least order of its entries, by
    `graded_inverse`."""
    space = jmat_space(A)
    A0inv = np.linalg.inv(jmat_eval0(A))
    X = graded_inverse(table_parts(_table(A), space.order), A0inv, space.order)
    return _jmat(table_from_parts(X), A.shape, space.num_coords, uniform(space.order))


def jmat_exp(G: np.ndarray) -> np.ndarray:
    """exp of a jet matrix with zero constant term: the Taylor sum, whose
    k-th term has degree >= k, so it ends at the truncation order.  It runs
    on tables, with the floats of term = jmat_scale(jmat_mul(term, G), 1/k)
    and acc = jmat_add(acc, term)."""
    space = jmat_space(G)
    if np.abs(jmat_eval0(G)).max() > DEFAULT_TOL.coeff_zero:
        raise ValueError("jmat_exp requires a zero constant term")
    every, eye, Gt = uniform(space.order), np.eye(G.shape[0]), _table(G)
    acc, term = _const_table(eye), _const_table(eye)
    for k in range(1, space.order + 1):
        term = table_scaled(table_mul(term, Gt, every), complex(1.0 / k))
        for e, terms in term.items():
            _merge(acc.setdefault(e, {}), terms)
    return _jmat(acc, G.shape, space.num_coords, every)


def jmat_sqrt(A: np.ndarray) -> np.ndarray:
    """Square root, to the least order of its entries, of a jet matrix whose
    constant part is Hermitian positive definite, solved degree by degree
    in the eigenbasis U of A_0, where B = U^H A U has the constant part
    diag(w): T_0 = diag(sqrt(w)), and T_d solves
    T_0 T_d + T_d T_0 = B_d - sum_{0<i<d} T_i T_{d-i}, entry (i, j) divided
    by sqrt(w_i) + sqrt(w_j).  The root is U T U^H."""
    space = jmat_space(A)
    A0 = jmat_eval0(A)
    if np.abs(A0 - A0.conj().T).max() > DEFAULT_TOL.rank_rel * max(np.abs(A0).max(), 1.0):
        raise ValueError("jmat_sqrt expects a Hermitian constant part")
    w, U = np.linalg.eigh(A0)
    if w.min() <= 0:
        raise ValueError("jmat_sqrt needs a positive definite constant part")
    root = np.sqrt(w)
    Uh, Uc = jmat_from_const(U.conj().T, space), jmat_from_const(U, space)
    B = table_parts(_table(jmat_mul(Uh, jmat_mul(A, Uc))), space.order)
    scale = 1.0 / np.add.outer(root, root)

    def step(d: int, s: dict) -> dict:
        # B_d - s as Jet.__sub__ forms it, or -s as Jet.__neg__ does when
        # B_d is empty, then each entry times its scalar as Jet.__mul__
        if B[d] is None:
            R = {e: {k: -c for k, c in t.items()} for e, t in s.items()}
        else:
            R = B[d]
            for e, t in s.items():
                _merge(R.setdefault(e, {}), {k: -c for k, c in t.items()})
        return {e: _scaled(t, complex(scale[e])) for e, t in R.items()}

    T = [_const_table(np.diag(root))]
    graded_solve(T, T, space.order, step)
    root_T = _jmat(table_from_parts(T), A.shape, space.num_coords, uniform(space.order))
    return jmat_mul(Uc, jmat_mul(root_T, Uh))


# -- tables of jet matrices ---------------------------------------------------


def _table(A: np.ndarray) -> dict:
    """The term table of a jet matrix; it shares the entries' term dicts,
    which the kernel only reads."""
    c = A.shape[1]
    return {divmod(e, c): a.terms for e, a in enumerate(A.flat) if a.terms}


def _jmat(T: dict, shape: tuple[int, int], num_coords: int, order) -> np.ndarray:
    """The jet matrix of a table it takes over, entry (i, j) of order(i, j)."""
    r, c = shape
    return _filled(shape, (_jet(num_coords, order(i, j), T.get((i, j), {}))
                           for i in range(r) for j in range(c)))


def _const_table(M: np.ndarray) -> dict:
    """The table of the constant jet matrix M, as jmat_from_const builds it."""
    c = M.shape[1]
    return {divmod(e, c): {0: complex(v)} for e, v in enumerate(M.flat) if v != 0}


def graded_inverse(A: list, A0inv: np.ndarray, order: int) -> list:
    """The parts of the inverse of the jet matrix whose parts of degree
    0..order these are, from the inverse of its constant part:
    X_0 = A_0^{-1} and X_d = -A_0^{-1} sum_{0<i<=d} A_i X_{d-i}, the step a
    left product by the constant table of -A_0^{-1}."""
    minus, every = _const_table(-A0inv), uniform(order)
    return graded_solve(A, [_const_table(A0inv)], order,
                        lambda d, s: table_mul(minus, s, every))
