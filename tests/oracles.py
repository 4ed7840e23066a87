"""Test-side oracles: a random curvature parameter tuple, a random element
of U(1,n+1), the two Ricci-flat predicates of the classification
corollary, the value of a jet at a point, the entrywise jet-matrix
product, bit-for-bit equality of jets and jet matrices, the distance of
two jet matrices and the pp-wave verdict of a report."""
import numpy as np

from lkholonomy.classify import KLDescriptor, build_family
from lkholonomy.config import DEFAULT_TOL
from lkholonomy.curvspace import CurvatureParam, _r0_average
from lkholonomy.hermitian import WittMetric
from lkholonomy.jetmat import jmat_add, jmat_max_abs, jmat_scale


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
    R0 = _r0_average(crandn(n, n, n, n))
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


def random_unitary(n, rng):
    """The Cayley transform (1 - X)^-1 (1 + X) of a seeded random X in
    u(1,n+1): an element of U(1,n+1) in the Witt frame."""
    N = n + 2
    S = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    X = WittMetric(n).gram @ (S - S.conj().T) / 4
    return np.linalg.solve(np.eye(N) - X, np.eye(N) + X)


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
    and Jet.__add__: the product the fused jmat_mul must reproduce exactly."""
    out = np.empty((A.shape[0], B.shape[1]), dtype=object)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = A[i, 0] * B[0, j]
            for l in range(1, A.shape[1]):
                acc = acc + A[i, l] * B[l, j]
            out[i, j] = acc
    return out


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
    return jmat_max_abs(jmat_add(A, jmat_scale(B, -1.0)))


def is_ppwave(rep) -> bool:
    """A PPWaveReport's verdict: p is parallel and every condition holds."""
    return rep.parallel_p and all(rep.flags)
