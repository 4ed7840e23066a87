"""Test-side oracles: a random curvature parameter tuple and the group
average behind its R0, the codec's unit parameters and their R0 units, a
random element of U(1,n+1) and seeded elements of
U(n), of the parabolic subgroup and of U(1,n+1) to conjugate by, a random element
of U(1,n+1), the two Ricci-flat predicates of the classification
corollary, the value of a jet at a point, the graded split and merge of
jets and jet matrices, the graded exp and reciprocal of jets, the
entrywise jet-matrix product and, over it, the graded inverse, square
root, radial gauge and Taylor exp of jet matrices and the exp-derivative
series, the conversions between jet
matrices and term tables, the bracket closure of a matrix algebra pair by pair,
the list versions of the real-span helpers and of the holonomy span's row
handling, one numpy call per matrix, bit-for-bit equality of jets and jet
matrices, the distance of two jet matrices and the pp-wave verdict of a
report."""
import math
import operator
from itertools import repeat

import numpy as np

from lkholonomy.classify import KLDescriptor, build_family
from lkholonomy.config import DEFAULT_TOL
from lkholonomy.curvspace import CurvatureParam, param_dim
from lkholonomy.hermitian import WittMetric
from lkholonomy.lie import ABZCElement, row_space, sigma_involution, span_residual
from lkholonomy.jetmat import (_filled, jmat_derivative, jmat_eval0, jmat_from_const,
                               jmat_identity, jmat_max_abs, jmat_space, jmat_zero)
from lkholonomy.jets import MASK, Jet, JetSpace


def r0_average(R0: np.ndarray) -> np.ndarray:
    """The average over the 8-element group generated by the holomorphic-pair,
    antiholomorphic-pair and reality symmetries of R0, along leading axes:
    exact in one pass."""
    R0 = R0 + R0.swapaxes(-3, -2)
    R0 = R0 + R0.swapaxes(-4, -1)
    return (R0 + np.conj(R0.swapaxes(-4, -3).swapaxes(-2, -1))) / 8


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
    R0 = r0_average(crandn(n, n, n, n))
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


def r0_units(size: int) -> np.ndarray:
    """A real basis of the unitary curvature tensors R0 on C^size along one
    leading axis, (size (size + 1) / 2)^2 of them: the group average of a
    unit tensor at each pair u <= v of the symmetric pairs (a, k), (b, j)
    of R0[a, b, j, k], and i times it when u < v."""
    j, k = np.triu_indices(size)
    u, v = np.triu_indices(len(j))
    R0 = np.zeros((len(u),) + (size,) * 4, complex)
    R0[np.arange(len(u)), j[u], j[v], k[v], k[u]] = 1.0
    return r0_average(np.concatenate([R0, 1j * R0[u < v]]))


def unit_params(n: int) -> CurvatureParam:
    """A real basis of the codec's parameter space along one leading axis of
    length param_dim(n): 1 and i in each free complex entry, 1 in c, the
    Hermitian units of A, and r0_units(n)."""
    j, k = np.triu_indices(n)
    sym = np.zeros((len(j), n, n))
    sym[np.arange(len(j)), j, k] = sym[np.arange(len(j)), k, j] = 1.0
    eye = np.eye(n)

    def cplx(U):
        return np.concatenate([U, 1j * U])

    units = {
        "alpha": cplx(np.ones(1)),
        "beta": cplx(np.ones(1)),
        "c": np.ones(1),
        "N_vec": cplx(eye),
        "K": cplx(eye),
        "T": cplx(sym),
        "R0": r0_units(n),
        "P": (eye[:, None, :, None, None] * cplx(sym)[:, None])
               .reshape((2 * n * len(j),) + (n,) * 3),
        "A": np.concatenate([sym, 1j * sym[j < k] * (np.tri(n).T - np.tri(n))]),
    }
    p, start, fields = param_dim(n), 0, {}
    for name, U in units.items():
        fields[name] = np.zeros((p,) + U.shape[1:], U.dtype)
        fields[name][start:start + len(U)] = U
        start += len(U)
    return CurvatureParam(n, **fields)


def random_unitary(n, rng):
    """The Cayley transform (1 - X)^-1 (1 + X) of a seeded random X in
    u(1,n+1): an element of U(1,n+1) in the Witt frame."""
    N = n + 2
    S = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    X = WittMetric(n).gram @ (S - S.conj().T) / 4
    return np.linalg.solve(np.eye(N) - X, np.eye(N) + X)


def _cayley(X):
    N = len(X)
    return np.linalg.solve(np.eye(N) - X, np.eye(N) + X)


def conjugations(n, rng) -> dict:
    """Seeded elements of U(1,n+1) in the Witt frame to conjugate an algebra
    by: 'levi', a unitary rotation of e_1..e_n; 'parabolic', an element of
    the stabilizer of the null line p; and 'unitary', random_unitary.  The
    first two are Cayley transforms of random elements of their Lie
    algebras, and keep the parabolic block pattern."""
    def crandn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    S = crandn(n, n)
    A = (S - S.conj().T) / 4
    levi = ABZCElement(0.0, A, np.zeros(n, complex), 0.0).to_matrix()
    parabolic = ABZCElement(complex(crandn()) / 2, A, crandn(n) / 2,
                            float(rng.standard_normal()) / 2).to_matrix()
    return {"levi": _cayley(levi), "parabolic": _cayley(parabolic),
            "unitary": random_unitary(n, rng)}


def ricci_flat_condition(d) -> bool:
    """True iff all generators of the built algebra are trace-free, i.e. the
    algebra is inside su(1,n+1)."""
    alg = build_family(d)
    return all(abs(np.trace(b)) <= DEFAULT_TOL.residual * max(np.abs(b).max(), 1.0)
               for b in alg.basis)


def ricci_flat_symbolic(d) -> bool:
    """The classification corollary's symbolic trace conditions; for a (k, L)
    family, tr A + Im a ((n - m + 2) i + tr theta) = 0 for every (a, A) of
    k.  Must agree with ricci_flat_condition."""
    fam, tol = d.family, DEFAULT_TOL.residual
    if fam == "G0":
        return True
    if fam == "G1":
        return False
    if fam == "G2":
        return False
    if fam == "G3":
        return abs(complex(d.gamma).imag) <= DEFAULT_TOL.coeff_zero
    if isinstance(d, KLDescriptor):
        tr_theta = 0.0 if d.real_form is None else np.trace(d.real_form.theta)
        return all(abs(np.trace(np.asarray(A, complex)) + complex(a).imag
                       * ((d.n - d.m + 2) * 1j + tr_theta)) <= tol
                   for a, A in d.k_basis)
    if fam == "GK0PSI":
        return all(abs(np.trace(np.asarray(A, complex))) <= tol
                   for A in list(d.k0_basis) + list(d.psi_images))
    raise ValueError(fam)


def evaluate(jet, point, conj_point=None) -> complex:
    """The polynomial of the jet at a point; the conjugate variables default
    to the conjugates of the point (on-diagonal evaluation)."""
    z = np.asarray(point, dtype=complex)
    zb = np.conj(z) if conj_point is None else np.asarray(conj_point, dtype=complex)
    total = 0.0 + 0.0j
    for (I, J), c in jet.coeffs.items():
        term = c
        for i, e in enumerate(I):
            if e:
                term *= z[i] ** e
        for i, e in enumerate(J):
            if e:
                term *= zb[i] ** e
        total += term
    return total


def reference_mul(A, B):
    """The entrywise loop acc = acc + A[i, l] * B[l, j] through Jet.__mul__
    and Jet.__add__: the product the table kernel must reproduce exactly."""
    out = np.empty((A.shape[0], B.shape[1]), dtype=object)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = A[i, 0] * B[0, j]
            for l in range(1, A.shape[1]):
                acc = acc + A[i, l] * B[l, j]
            out[i, j] = acc
    return out


def _jet_of(num_coords, order, terms):
    """The jet of these packed terms, all of degree <= order."""
    jet = Jet(num_coords, order)
    jet.terms = terms
    return jet


def jet_graded(a):
    """The homogeneous parts of degree 0..order of a jet, None where a part
    is empty."""
    parts = [{} for _ in range(a.order + 1)]
    for k, c in a.terms.items():
        parts[k & MASK][k] = c
    return [_jet_of(a.num_coords, a.order, p) if p else None for p in parts]


def jet_from_graded(parts):
    """The jet whose homogeneous parts these are, merged degree-major;
    parts[0] must exist."""
    terms = {k: c for p in parts if p is not None for k, c in p.terms.items()}
    return _jet_of(parts[0].num_coords, parts[0].order, terms)


def jmat_graded(A):
    """The homogeneous parts of degree 0..order of a jet matrix, None where
    every entry's part is empty."""
    space = jmat_space(A)
    zero = space.zero()
    parts = [[zero] * A.size for _ in range(space.order + 1)]
    for i, a in enumerate(A.flat):
        for d, part in enumerate(jet_graded(a)):
            if part is not None:
                parts[d][i] = part
    return [_filled(A.shape, p) if any(j.terms for j in p) else None for p in parts]


def jmat_from_graded(parts):
    """The jet matrix whose homogeneous parts these are; parts[0] must exist."""
    entries = zip(*(repeat(None) if p is None else p.flat for p in parts))
    return _filled(parts[0].shape, map(jet_from_graded, entries))


def graded_sum(a, x, d, mul=reference_mul):
    """sum_i mul(a[i], x[d - i]) over the i at which both parts exist, summed
    left to right by + (Jet.__add__, entrywise on jet matrices), or None
    when no pair does; mul is reference_mul on jet matrices and Jet.__mul__
    (operator.mul) on jets."""
    terms = [mul(a[i], x[d - i]) for i in range(len(a))
             if 0 <= d - i < len(x) and a[i] is not None and x[d - i] is not None]
    return sum(terms[1:], terms[0]) if terms else None


def reference_exp(a):
    """exp of a jet degree by degree from d E_d = sum_{0<i<=d} i a_i E_{d-i},
    on jet parts by jet_graded and graded_sum over Jet.__mul__.  Jet.exp
    must have its bits."""
    parts = jet_graded(a)
    ia = [None] + [None if p is None else p * i for i, p in enumerate(parts[1:], 1)]
    E = [Jet.constant(np.exp(a.constant_term()), a.num_coords, a.order)]
    for d in range(1, a.order + 1):
        s = graded_sum(ia, E, d, operator.mul)
        E.append(None if s is None else s * (1.0 / d))
    return jet_from_graded(E)


def reference_reciprocal(a):
    """1 / a degree by degree from X_d = -(1/a_0) sum_{0<i<=d} a_i X_{d-i},
    on jet parts by jet_graded and graded_sum over Jet.__mul__.
    Jet.reciprocal must have its bits."""
    a0 = a.constant_term()
    parts = jet_graded(a)
    X = [Jet.constant(1.0 / a0, a.num_coords, a.order)]
    for d in range(1, a.order + 1):
        s = graded_sum(parts, X, d, operator.mul)
        X.append(None if s is None else s * (-1.0 / a0))
    return jet_from_graded(X)


def reference_jmat_exp(G):
    """exp of a jet matrix with G(0) = 0 as the Taylor sum on jet matrices:
    term = reference_mul(term, G) * (1/k), acc = acc + term.  jmat_exp must
    have its bits."""
    space = jmat_space(G)
    acc = term = jmat_identity(G.shape[0], space)
    for k in range(1, space.order + 1):
        term = reference_mul(term, G) * (1.0 / k)
        acc = acc + term
    return acc


def reference_inverse(A):
    """The inverse of a jet matrix, degree by degree on jet matrices:
    X_0 = A_0^{-1} and X_d = -A_0^{-1} sum_{0<i<=d} A_i X_{d-i} by
    graded_sum and reference_mul.  jmat_inverse must have its bits."""
    space = jmat_space(A)
    A0inv = np.linalg.inv(jmat_eval0(A))
    minus_A0inv = jmat_from_const(-A0inv, space)
    parts = jmat_graded(A)
    X = [jmat_from_const(A0inv, space)]
    for d in range(1, space.order + 1):
        s = graded_sum(parts, X, d)
        X.append(None if s is None else reference_mul(minus_A0inv, s))
    return jmat_from_graded(X)


def reference_sqrt(A):
    """The square root of a jet matrix with a Hermitian positive definite
    constant part, degree by degree on jet matrices in the eigenbasis U of
    A_0: T_0 = diag(sqrt(w)) and T_d = (B_d - sum_{0<i<d} T_i T_{d-i}) over
    sqrt(w_i) + sqrt(w_j), B = U^H A U, all by reference_mul and object-array
    arithmetic; the root is U T U^H.  jmat_sqrt must have its bits."""
    space = jmat_space(A)
    w, U = np.linalg.eigh(jmat_eval0(A))
    root = np.sqrt(w)
    Uh, Uc = jmat_from_const(U.conj().T, space), jmat_from_const(U, space)
    B = jmat_graded(reference_mul(Uh, reference_mul(A, Uc)))
    T = [jmat_from_const(np.diag(root), space)]
    for d in range(1, space.order + 1):
        s = graded_sum(T, T, d)
        R = B[d] if s is None else -s if B[d] is None else B[d] - s
        T.append(None if R is None else R * (1.0 / np.add.outer(root, root)))
    return reference_mul(Uc, reference_mul(jmat_from_graded(T), Uh))


def jmat_radial_gauge(gamma):
    """The radial parallel gauge P of Gamma as a jet matrix, on jet
    matrices: with W = sum_c z^c Gamma_c (each entry times space.variable(c)),
    the degree-d part solves d P_d = -sum_{0<i<=d} W_i P_{d-i} by graded_sum
    and reference_mul.  The term tables of geometry.radial_parallel_gauge
    must have its bits."""
    space = jmat_space(gamma[0])
    W = gamma[0] * space.variable(0)
    for c in range(1, len(gamma)):
        W = W + gamma[c] * space.variable(c)
    W = jmat_graded(W)
    P = [jmat_identity(len(gamma), space)]
    for d in range(1, space.order + 1):
        s = graded_sum(W, P, d)
        P.append(None if s is None else s * (-1.0 / d))
    return jmat_from_graded(P)


def exp_derivative_series(G, var):
    """e^{-G} d_var e^G as the truncated ad-series
    sum_k (-1)^k/(k+1)! (ad_G)^k d_var G, for a jet matrix G with G(0) = 0,
    by reference_mul."""
    if np.abs(jmat_eval0(G)).max() > DEFAULT_TOL.coeff_zero:
        raise ValueError("exp_derivative_series requires G(0) = 0")
    dG = jmat_derivative(G, var, holomorphic=True)
    acc = dG
    term = dG
    for k in range(1, jmat_space(G).order + 1):
        term = reference_mul(G, term) + reference_mul(term, G) * -1.0
        coeff = (-1.0) ** k / math.factorial(k + 1)
        acc = acc + term * coeff
    return acc


def term_table(A) -> dict:
    """The term table {(i, j): terms} of the non-empty entries of A."""
    return {idx: dict(a.terms) for idx, a in np.ndenumerate(A) if a.terms}


def table_jmat(table: dict, shape, space: JetSpace):
    """The jet matrix of a term table, every entry of the space's order; it
    refuses a table that holds an empty entry or a term above the order."""
    A = jmat_zero(shape, space)
    for idx, terms in table.items():
        assert terms and max(k & MASK for k in terms) <= space.order, idx
        jet = Jet(space.num_coords, space.order)
        jet.terms = dict(terms)
        A[idx] = jet
    return A


def bracket_residual_by_pairs(alg) -> float:
    """The largest real residual component of [x, y] off the real span of
    alg's basis, one least-squares fit per pair x before y: the loop that
    MatrixAlgebra.bracket_residual stacks into one fit."""
    worst = 0.0
    for i, x in enumerate(alg.basis):
        for y in alg.basis[i + 1:]:
            worst = max(worst, span_residual(x @ y - y @ x, alg.basis))
    return worst


def list_flatten(mats) -> np.ndarray:
    """One real row (Re, Im) per complex matrix or vector, one concatenate
    per matrix: the loop that lie.flatten stacks."""
    return np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in mats])


def list_real_span_basis(mats) -> list:
    """Orthonormal (over R) basis of the real span, the all-zero matrices
    left out one at a time and each row unflattened on its own: the loops
    that lie.real_span_basis stacks."""
    mats = [m for m in mats if np.abs(m).max() > 0]
    if not mats:
        return []
    half = mats[0].size
    return [(row[:half] + 1j * row[half:]).reshape(mats[0].shape)
            for row in row_space(list_flatten(mats))]


def list_real_points(cbasis) -> list:
    """geometry._real_points on a list, one candidate at a time."""
    if not cbasis:
        return []
    W = np.array(cbasis)
    S = sigma_involution(W)
    cands = [x for w, s in zip(W, S) for x in (w + s, 1j * (w - s))]
    return list_real_span_basis([c for c in cands if np.abs(c).max() > DEFAULT_TOL.residual])


def list_span_by_degree(coeffs_by_deg: dict, r_max: int, size: int):
    """geometry._span_by_degree on a dict of coefficient matrices by degree,
    with one maximum, noise test and division per matrix: the span's rows
    and its dimension after each degree."""
    scale = max((np.abs(w).max() for ws in coeffs_by_deg.values() for w in ws), default=1.0)
    noise = DEFAULT_TOL.coeff_zero * scale
    dims, rows = [], np.zeros((0, size), complex)
    for r in range(r_max + 1):
        new = [w.ravel() / scale for w in coeffs_by_deg[r] if np.abs(w).max() > noise]
        rows = row_space(np.vstack([rows, *new]))
        dims.append(len(rows))
    return rows, dims


def same_bits(a, b) -> bool:
    """Same order, same keys in the same order, bit-equal coefficients."""
    return (a.order == b.order and list(a.coeffs) == list(b.coeffs)
            and np.array(list(a.coeffs.values()), complex).tobytes()
            == np.array(list(b.coeffs.values()), complex).tobytes())


def same_matrix_bits(A, B) -> bool:
    """Same shape and, entry by entry, same_bits."""
    return A.shape == B.shape and all(same_bits(a, b) for a, b in zip(A.flat, B.flat))


def jmat_residual(A, B) -> float:
    """The largest coefficient of A - B over every entry."""
    return jmat_max_abs(A - B)


def is_ppwave(rep) -> bool:
    """A PPWaveReport's verdict: p is parallel and every condition holds."""
    return rep.parallel_p and all(rep.flags)
