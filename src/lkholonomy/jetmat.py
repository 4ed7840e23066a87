"""Matrices with Jet entries: products, exponentials, and inverses and square
roots solved degree by degree.

Matrices are numpy object arrays of Jet instances sharing one JetSpace,
which `jmat_space` checks.  These are small (at most (n+2)x(n+2)), so
dense object arrays are fine.
The jmat_* functions are a boundary: they convert to term tables
{(i, j): terms}, run the term-table kernel of `jets` (`table_mul`, the one
product, and `graded_solve`, the one degree-by-degree solve) and convert
back.  `graded_inverse` is the solve behind `jmat_inverse`.
"""
from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL
from .jets import (Jet, JetShapeError, JetSpace, _jet, _merge, _scaled, graded_solve,
                   table_from_parts, table_mul, table_parts, table_scaled)


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
    """The one jet space of A's entries; a JetShapeError when they differ in
    coordinate count or in order."""
    spaces = {(a.num_coords, a.order) for a in A.flat}
    if len(spaces) != 1:
        raise JetShapeError(f"a jet matrix needs one jet space, not {sorted(spaces)}")
    return JetSpace(*spaces.pop())


def jmat_mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The entries sum_l A[i, l] * B[l, j] by `table_mul`, with the floats,
    the key order and the jet order of the entrywise loop
    acc = acc + A[i, l] * B[l, j]: each operand's space is read once, and
    the product has the lesser of their orders, so only products of degree
    <= that order are formed."""
    r, k = A.shape
    k2, c = B.shape
    if k != k2:
        raise ValueError("shape mismatch in jet matrix product")
    if not r * c:
        return np.empty((r, c), dtype=object)
    sa, sb = jmat_space(A), jmat_space(B)
    if sa.num_coords != sb.num_coords:
        raise JetShapeError("jet spaces differ in a jet matrix product")
    order = min(sa.order, sb.order)
    return _jmat(table_mul(_table(A), _table(B), order), (r, c), sa.num_coords, order)


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
    """Inverse of a square jet matrix, by `graded_inverse`."""
    space = jmat_space(A)
    A0inv = np.linalg.inv(jmat_eval0(A))
    X = graded_inverse(table_parts(_table(A), space.order), A0inv, space.order)
    return _jmat(table_from_parts(X), A.shape, space.num_coords, space.order)


def jmat_exp(G: np.ndarray) -> np.ndarray:
    """exp of a jet matrix with zero constant term: the Taylor sum, whose
    k-th term has degree >= k, so it ends at the truncation order.  It runs
    on tables, with the floats of term = jmat_mul(term, G) * (1/k) and
    acc = acc + term."""
    space = jmat_space(G)
    if np.abs(jmat_eval0(G)).max() > DEFAULT_TOL.coeff_zero:
        raise ValueError("jmat_exp requires a zero constant term")
    eye, Gt = np.eye(G.shape[0]), _table(G)
    acc, term = _const_table(eye), _const_table(eye)
    for k in range(1, space.order + 1):
        term = table_scaled(table_mul(term, Gt, space.order), complex(1.0 / k))
        for e, terms in term.items():
            _merge(acc.setdefault(e, {}), terms)
    return _jmat(acc, G.shape, space.num_coords, space.order)


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
    root_T = _jmat(table_from_parts(T), A.shape, space.num_coords, space.order)
    return jmat_mul(Uc, jmat_mul(root_T, Uh))


# -- tables of jet matrices ---------------------------------------------------


def _table(A: np.ndarray) -> dict:
    """The term table of a jet matrix; it shares the entries' term dicts,
    which the kernel only reads."""
    c = A.shape[1]
    return {divmod(e, c): a.terms for e, a in enumerate(A.flat) if a.terms}


def _jmat(T: dict, shape: tuple[int, int], num_coords: int, order: int) -> np.ndarray:
    """The jet matrix of a table it takes over, every entry of the order."""
    r, c = shape
    return _filled(shape, (_jet(num_coords, order, T.get((i, j), {}))
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
    minus = _const_table(-A0inv)
    return graded_solve(A, [_const_table(A0inv)], order,
                        lambda d, s: table_mul(minus, s, order))
