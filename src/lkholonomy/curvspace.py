"""Algebraic curvature tensors with values in g^C, the Berger test, and the
block-parameter codec for the full parabolic algebra.

A curvature map is stored through its mixed values rho[i, j] = R(b_i, conj
b_j) on the Witt basis b_0 = p, b_1..b_n = e_j, b_{n+1} = q.  The (1,0)-(1,0)
and (0,1)-(0,1) values vanish identically, and real arguments are recovered
by R(X, Y) = R(X, conj Y) - R(Y, conj X).

The curvature space K(g) is one constraint solve on the closed-form
curvature space of an ambient algebra: the real combinations X of its unit
maps whose every value lies in span_C(g).  The unit maps of u(1,n+1) are
the unitary curvature tensors on C^{n+2}, and any basis of g outside the
parabolic block pattern (lie.fits_pattern: G0, a U(1,n+1)-conjugate of a
family) takes them.  A basis that fits the pattern takes the full algebra
u(1,n+1)_{Cp}, whose unit maps are the param_dim(n) unitary units with
every value in lie.parabolic_mask.  Each ambient is one cached table of
the nonzero entries of its unit maps (under 1 % of their entries), and
K(g) stays in the coordinates X: the Berger test reads the values of the
maps sum_u X[u, m] E_u slot by slot, and only solve_curvature_space forms
the maps themselves.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL
from .lie import (MatrixAlgebra, fits_pattern, null_space, numerical_rank, parabolic_mask,
                  row_space, sigma_involution, unitary_basis)


# The largest n of an algebra file for berger, the largest whose worst case
# stays within 5 s.  One call in a fresh process, on one core of a 2-core
# Intel Xeon machine: the full algebra takes 0.17 s at a peak RSS of 58 MB
# at n = 6 and 0.48 s at 86 MB at n = 7.  Worst is a basis outside the
# pattern, on all (N (N + 1) / 2)^2 unitary unit maps: a U(1,7)-conjugate of
# the first catalog entry takes 0.71 s at 83 MB (the entry: 0.17 s, 59 MB),
# at n = 7 a U(1,8)-conjugate 1.95 s at 131 MB, at n = 8 5.1 s at 229 MB.
MAX_BERGER_N = 7


@dataclass
class CurvatureMap:
    """Mixed-type algebraic curvature tensor with values in g^C."""

    n: int
    rho: np.ndarray  # shape (N, N, N, N), rho[i, j] = R(b_i, conj b_j)

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


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _first(*keys: np.ndarray) -> np.ndarray:
    """Whether each position starts a run of equal consecutive keys."""
    new = np.zeros(len(keys[0]), bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return new


def _sums(key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of the values at each,
    leaving out the sums that vanish."""
    order = np.argsort(key, kind="stable")
    new = _first(key[order])
    total = np.zeros(np.count_nonzero(new), complex)
    np.add.at(total, np.cumsum(new) - 1, value[order])
    keep = total != 0
    return key[order][new][keep], total[keep]


@dataclass(frozen=True)
class UnitMaps:
    """count unit maps E_u of an ambient curvature space, held sparse: the
    nonzero entries E_u[i, j][s, t] = value, with slot = i N + j and entry =
    s N + t, in the order of (unit, slot, entry).  A map of the space is
    sum_u x[u] E_u for real coordinates x."""

    n: int
    count: int
    unit: np.ndarray
    slot: np.ndarray
    entry: np.ndarray
    value: np.ndarray

    @classmethod
    def of(cls, n: int, stacks) -> "UnitMaps":
        """The nonzero entries of consecutive stacks of dense maps, each of
        shape (k, N, N, N, N)."""
        N2, parts, count = (n + 2) ** 2, [], 0
        for E in stacks:
            E = E.reshape(-1, N2, N2)
            u, s, e = np.nonzero(E)
            parts.append((u + count, s, e, E[u, s, e]))
            count += len(E)
        return cls(n, count, *map(np.concatenate, zip(*parts)))

    def dense(self) -> np.ndarray:
        """The unit maps as one (count, N, N, N, N) stack."""
        N = self.n + 2
        E = np.zeros((self.count, N * N, N * N), complex)
        E[self.unit, self.slot, self.entry] = self.value
        return E.reshape((self.count,) + (N,) * 4)

    @cached_property
    def pattern(self) -> np.ndarray:
        """The entries where some value of some unit map lives."""
        N = self.n + 2
        out = np.zeros(N * N, bool)
        out[self.entry] = True
        return _frozen(out)[0]

    @cached_property
    def runs(self) -> np.ndarray:
        """The first nonzero of each run of one unit at one slot."""
        return _frozen(np.flatnonzero(_first(self.unit, self.slot)))[0]

    @cached_property
    def mirror_slots(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """For each pair of mirror slots (i, j), (j, i), i <= j, that some unit
        reaches, in row order: the units that reach it, ascending, and for
        each of them its run at (i, j) and at (j, i), or len(runs) where it
        has none."""
        N = self.n + 2
        unit, (i, j) = self.unit[self.runs], np.divmod(self.slot[self.runs], N)
        pair = np.minimum(i, j) * N + np.maximum(i, j)
        out = []
        for key in np.flatnonzero(np.bincount(pair, minlength=N * N)):
            run = np.flatnonzero(pair == key)
            reached = unit[run][_first(unit[run])]  # unit[run] is ascending
            at = np.searchsorted(reached, unit[run])
            ij, ji = np.full((2, len(reached)), len(self.runs))
            upper, lower = i[run] <= j[run], i[run] >= j[run]
            ij[at[upper]], ji[at[lower]] = run[upper], run[lower]
            out.append(_frozen(reached, ij, ji))
        return out

    @cached_property
    def real_values(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """For each real value of a map, R(b_a, b_b) = rho[a, b] - rho[b, a]
        for a < b and then R(i b_s, b_t) = i (rho[s, t] + rho[t, s]) for
        s <= t, that some unit map has nonzero: the units whose value is
        nonzero, the real columns where the values live (2 e for the real
        and 2 e + 1 for the imaginary part at entry e), and the values
        there, one row per unit, all read-only.  The N^2 of them are every
        value R(X, Y): R is skew, R(iX, iY) = R(X, Y) and R(i b_a, b_b) =
        R(i b_b, b_a).  Each value sums, by `_sums`, the table entries at
        slot (a, b) before those at (b, a), times the factors above."""
        N = self.n + 2
        terms = [[(a * N + b, 1), (b * N + a, -1)] for a, b in zip(*np.triu_indices(N, 1))]
        terms += [[(s * N + t, 1j), (t * N + s, 1j)] if s < t else [(s * N + s, 2j)]
                  for s, t in zip(*np.triu_indices(N))]
        # the positions of the entries at each slot, in table order
        at = np.split(np.argsort(self.slot, kind="stable"),
                      np.cumsum(np.bincount(self.slot, minlength=N * N))[:-1])
        out = []
        for parts in terms:
            pick = np.concatenate([at[slot] for slot, _ in parts])
            key, total = _sums(self.unit[pick] * N * N + self.entry[pick],
                               np.concatenate([f * self.value[at[slot]] for slot, f in parts]))
            if len(key):
                reach, row = np.unique(key // (N * N), return_inverse=True)
                entries, col = np.unique(key % (N * N), return_inverse=True)
                U = np.zeros((len(reach), len(entries)), complex)
                U[row, col] = total
                out.append(_frozen(reach, (2 * entries[:, None] + [0, 1]).ravel(), U.view(float)))
        return out


@functools.cache
def _ambient(n: int, parabolic: bool) -> UnitMaps:
    """The unit maps of u(1,n+1) (the unitary units) or of the full
    parabolic algebra: the unitary units whose every entry lies in
    parabolic_mask(n), renumbered in order, param_dim(n) of them.  One
    read-only table per n and ambient."""
    table = _unitary_units(n)
    if parabolic:
        out = np.zeros(table.count, bool)
        out[table.unit[~parabolic_mask(n).ravel()[table.entry]]] = True
        keep = ~out[table.unit]
        table = UnitMaps(n, table.count - np.count_nonzero(out),
                         (np.cumsum(~out) - 1)[table.unit[keep]], table.slot[keep],
                         table.entry[keep], table.value[keep])
    _frozen(table.unit, table.slot, table.entry, table.value)
    return table


def _complex_span_basis(mats: list[np.ndarray]):
    rows = row_space(np.array([m.ravel() for m in mats]))
    return [row.reshape(mats[0].shape) for row in rows]


def _constrained_solve(units: UnitMaps, alg: MatrixAlgebra) -> np.ndarray:
    """Orthonormal real coordinates X (units.count, k) of K(g) in the unit
    maps E of an ambient algebra containing g: the maps sum_u X[u, m] E_u
    whose every value rho[i, j] lies in span_C(g).  Within the pattern of
    entries where the values of E live, span_C(g) is the orthogonal
    complement of the orthonormal rows H, so slot (i, j) asks H^* rho[i, j]
    = 0; the conditions C of each unit at each slot it reaches are read off
    its nonzero entries.  X is restricted by one pair of mirror slots (i, j),
    (j, i) at a time, over the units that reach it and the columns of X those
    units reach.  A singular value counts above rank_rel times the norm of
    all the conditions: rounding is all that is left of a condition that H
    or the slots before it make zero.  The ambient itself has no H and takes
    no null space."""
    N = alg.n + 2
    B = np.reshape(_complex_span_basis(alg.basis), (-1, N * N))
    pattern = units.pattern
    if len(B) == np.count_nonzero(pattern):
        return np.eye(units.count)
    complement = null_space(B[:, pattern])
    H = np.zeros((N * N, len(complement)), complex)
    H[pattern] = complement.conj().T
    C = np.add.reduceat(units.value[:, None] * H[units.entry], units.runs)
    floor = DEFAULT_TOL.rank_rel * np.linalg.norm(C)
    C = np.vstack([C, np.zeros((1, C.shape[1]))])  # the run of a slot a unit does not reach
    # Z = X^T, one row per map, lives in rows start:end of one buffer: a
    # unit's own row e_u joins at the end the first time a slot reaches it
    # (until then it satisfies every condition), and the maps a step drops
    # are the first rows of the block.
    Z, start, end = np.zeros((units.count, units.count)), 0, 0
    joined = np.zeros(units.count, bool)
    for reached, ij, ji in units.mirror_slots:
        new = reached[~joined[reached]]
        joined[new] = True
        Z[end + np.arange(len(new)), new] = 1.0
        end += len(new)
        rows = np.concatenate([C[ij], C[ji]], axis=1)
        rows = np.concatenate([rows.real, rows.imag], axis=1)
        start += _kernel(Z[start:end], Z[start:end, reached] @ rows, floor)
    return np.ascontiguousarray(Z[start:end].T)


def _kernel(Z: np.ndarray, M: np.ndarray, floor: float) -> int:
    """Rotate the orthonormal rows of Z in place by Q^T, so that the rows
    after the first r span the c^T Z with c^T M = 0, and return r: the rank
    of M under the one rank rule.  Q is the product of the Householder
    reflectors I - 2 y y^T / y^T y of the QR of the r left singular vectors
    that span the columns of M, applied at once in compact WY form
    I - Y T Y^T with T^-1 = diag(Y^T Y) / 2 + its strict upper part (a
    reflector LAPACK leaves as the identity becomes a sign flip, which
    keeps Q orthogonal), so the cost is linear in r.  When r is every row,
    there is nothing to keep and Z is left as it is."""
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    r = numerical_rank(s, floor)
    if 0 < r < len(Z):
        Y = np.tril(np.linalg.qr(u[:, :r], mode="raw")[0].T, -1)
        Y[:r] += np.eye(r)
        T = np.triu(Y.T @ Y)
        T[np.diag_indices(r)] /= 2
        Z -= Y @ (np.linalg.inv(T).T @ (Y.T @ Z))
    return r


def _solve(alg: MatrixAlgebra) -> tuple[UnitMaps, np.ndarray]:
    """The unit maps of the ambient of g, the full parabolic algebra when
    the basis of g fits the block pattern, else u(1,n+1), and the
    coordinates X of K(g) in them; an algebra with no basis has none."""
    parabolic = alg.dim == 0 or bool(fits_pattern(np.array(alg.basis)).all())
    units = _ambient(alg.n, parabolic)
    return units, (_constrained_solve(units, alg) if alg.dim else np.zeros((units.count, 0)))


def solve_curvature_space(alg: MatrixAlgebra) -> list[CurvatureMap]:
    """A real basis of K(g): the maps of the solved coordinates."""
    units, X = _solve(alg)
    N = alg.n + 2
    return [CurvatureMap(alg.n, r)
            for r in (X.T @ units.dense().reshape(units.count, -1)).reshape(-1, N, N, N, N)]


def curvature_image(units: UnitMaps, X: np.ndarray) -> list[np.ndarray]:
    """Orthonormal real basis of the span of every value R(X, Y) of the maps
    sum_u X[u, m] E_u, read one real value of UnitMaps.real_values at a time
    as X[units]^T times the units' values there; a value whose largest
    entry has modulus at or below coeff_zero is dropped.  The rows of one
    value, and then the rows of all of them, are replaced by their R factor
    when that is smaller, which keeps the singular values."""
    N = units.n + 2
    stack = np.zeros((sum(min(X.shape[1], len(c)) for _, c, _ in units.real_values), 2 * N * N))
    at = 0
    for reach, columns, U in units.real_values:
        W = X[reach].T @ U
        square = (W * W).reshape(len(W), len(columns) // 2, 2).sum(axis=2)
        W = _r_factor(W[square.max(axis=1) > DEFAULT_TOL.coeff_zero ** 2])
        stack[at:at + len(W), columns] = W
        at += len(W)
    return [(row[0::2] + 1j * row[1::2]).reshape(N, N)
            for row in row_space(_r_factor(stack[:at]))]


def _r_factor(W: np.ndarray) -> np.ndarray:
    """The R factor of W when it has fewer rows than W, else W."""
    return np.linalg.qr(W, mode="r") if len(W) > W.shape[1] else W


def berger_check(alg: MatrixAlgebra) -> dict:
    """Span of all curvature images, as the sigma-fixed real algebra it
    generates; alg is Berger iff that span is all of alg."""
    units, X = _solve(alg)
    generated = MatrixAlgebra(alg.n, curvature_image(units, X))
    return {
        "dim_R_space": X.shape[1],
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
    (n^2(n+1)^2/4).  The dimension of K(u(1,n+1)_{Cp}), and the number of
    unit maps of the parabolic ambient."""
    return (2 + 2 + 1 + 2 * n + 2 * n + n * (n + 1) + n * n
            + n * n * (n + 1) + n * n * (n + 1) * (n + 1) // 4)


def _r0_entries(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of a real basis of the unitary curvature tensors
    R0 on C^size, at the size N >= 2 of _unitary_units, (size (size + 1) /
    2)^2 of them: unit, flat index of R0[a, b, j, k] and value, in that
    order.  R0 is a Hermitian form on symmetric pairs, R0[a, b, j, k] at
    the pairs (a, k) and (b, j): a unit w = 1 at u <= v of the pairs, and
    w = i when u < v, averaged over the 8-element group generated by the
    holomorphic-pair symmetry (b <-> j), the antiholomorphic-pair symmetry
    (a <-> k) and reality (R0[b, a, k, j] conjugated).  Each entry is a sum
    of w and conj w over 8: exact."""
    j, k = np.triu_indices(size)
    u, v = np.triu_indices(len(j))
    strict = u < v
    u, v = np.concatenate([u, u[strict]]), np.concatenate([v, v[strict]])
    w = np.concatenate([np.ones(len(strict)), np.full(np.count_nonzero(strict), 1j)])
    y = np.array([j[u], j[v], k[v], k[u]])
    orbit = [y, y[[0, 2, 1, 3]], y[[3, 1, 2, 0]], y[[3, 2, 1, 0]]]
    orbit += [x[[1, 0, 3, 2]] for x in orbit]
    flat = np.ravel_multi_index(tuple(np.concatenate(orbit, axis=1)), (size,) * 4)
    unit, total = _sums(np.tile(np.arange(len(w)), 8) * size ** 4 + flat,
                        np.concatenate([w] * 4 + [np.conj(w)] * 4))
    return unit // size ** 4, unit % size ** 4, total / 8


def _unitary_units(n: int) -> UnitMaps:
    """A real basis of K(u(1,n+1)), (N (N + 1) / 2)^2 unit maps, N = n + 2:
    rho[i, j] = Gram R0[:, :, i, j] for the R0 units at size N, as Gram
    rho[i, j] meets the reality condition of u(N).  Gram swaps the rows of
    b_0 and b_{N-1}."""
    N = n + 2
    unit, flat, value = _r0_entries(N)
    s, t, i, j = np.unravel_index(flat, (N,) * 4)
    swap = np.r_[N - 1, 1:N - 1, 0]
    slot, entry = i * N + j, swap[s] * N + t
    order = np.lexsort((entry, slot, unit))
    return UnitMaps(n, (N * (N + 1) // 2) ** 2, unit[order], slot[order], entry[order],
                    value[order])


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
