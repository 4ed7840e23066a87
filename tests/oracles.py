"""Test-side oracles: a random curvature parameter tuple, a random element
of U(1,n+1), and the two Ricci-flat predicates of the classification
corollary."""
import numpy as np

from lkholonomy.classify import KLDescriptor, build_family
from lkholonomy.config import DEFAULT_TOL
from lkholonomy.curvspace import CurvatureParam, _r0_average
from lkholonomy.hermitian import WittMetric


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
