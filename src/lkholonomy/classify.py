"""Canonical families of weakly irreducible subalgebras of u(1,n+1)_{Cp}:
constructors, a matcher working in the canonical Witt frame, and the
realizability / Ricci-flat predicates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .hermitian import RealFormData
from .lie import (
    ABZCElement,
    MatrixAlgebra,
    in_real_span,
    null_space,
    real_span_basis,
    row_space,
)

# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


@dataclass
class G0Descriptor:
    """sl(2,R) inside su(1,1), acting on C^2 with Gram [[0,-i],[i,0]]."""

    family: str = "G0"
    n: int = 0


@dataclass
class G1Descriptor:
    family: str = "G1"
    n: int = 0


@dataclass
class G2Descriptor:
    family: str = "G2"
    n: int = 0


@dataclass
class G3Descriptor:
    gamma: complex = 0.0
    family: str = "G3"
    n: int = 0


@dataclass
class GKDescriptor:
    """g^k = k |x (C^n |x iR), k an arbitrary subalgebra of C + u(n).

    k_basis: list of (a, A) pairs, a complex, A in u(n).
    """

    n: int
    k_basis: list
    family: str = "GK"


@dataclass
class GKJLDescriptor:
    """g^{k,J,L} with L = C^m + R^{n-m}; k in RJ + u(m), not inside u(m).

    k_basis: list of (a2, A) pairs, a2 real, A in u(m).
    """

    n: int
    m: int
    k_basis: list
    family: str = "GKJL"


@dataclass
class GKLDescriptor:
    """g^{k,L} with L = C^m + L_0; k inside u(m).

    k_basis: list of u(m) matrices.
    """

    n: int
    m: int
    k_basis: list
    real_form: RealFormData | None = None
    family: str = "GKL"

    def __post_init__(self):
        if self.real_form is None and self.n > self.m:
            self.real_form = RealFormData.from_lambdas([], self.n - self.m)


@dataclass
class GK0PsiDescriptor:
    """g^{k0,psi}: k0 in u(r); psi maps C^{m-r} + L_0 into u(r).

    psi_images: u(r) matrices for the real basis
    [e_{r+1}..e_m, i e_{r+1}..i e_m, f_{m+1}..f_n].
    """

    n: int
    m: int
    r: int
    k0_basis: list
    psi_images: list
    real_form: RealFormData | None = None
    family: str = "GK0PSI"

    def __post_init__(self):
        if self.real_form is None and self.n > self.m:
            self.real_form = RealFormData.from_lambdas([], self.n - self.m)


@dataclass
class BergerGKDescriptor:
    """The Berger-only g^k family with the theta twist (m < n allowed).

    k_basis: list of (a1, a2, A) with a1, a2 real and A in u(m).
    """

    n: int
    m: int
    k_basis: list
    real_form: RealFormData | None = None
    family: str = "BERGER_GK"

    def __post_init__(self):
        if self.real_form is None and self.n > self.m:
            self.real_form = RealFormData.from_lambdas([], self.n - self.m)


@dataclass
class UnknownDescriptor:
    reason: str = ""
    family: str = "UNKNOWN"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _zmat(n):
    return np.zeros((n, n), dtype=complex)


def _embed(n, a=0.0, A=None, Z=None, c=0.0) -> np.ndarray:
    A = _zmat(n) if A is None else A
    Z = np.zeros(n, dtype=complex) if Z is None else np.asarray(Z, dtype=complex)
    return ABZCElement(complex(a), np.asarray(A, dtype=complex), Z, float(c)).to_matrix()


def _check_k_antihermitian(mats):
    for A in mats:
        A = np.asarray(A, dtype=complex)
        if A.size and np.abs(A + A.conj().T).max() > 1e-10 * max(np.abs(A).max(), 1.0):
            raise ValueError("k-generator is not anti-Hermitian")


def build_family(d) -> MatrixAlgebra:
    """Explicit matrix realization of a descriptor, in the canonical frame."""
    fam = d.family
    if fam == "G0":
        basis = [np.array([[1, 0], [0, -1]], dtype=complex),
                 np.array([[0, 1], [0, 0]], dtype=complex),
                 np.array([[0, 0], [1, 0]], dtype=complex)]
        return MatrixAlgebra(0, basis)
    if fam == "G1":
        return MatrixAlgebra(0, [_embed(0, a=1.0), _embed(0, a=1j), _embed(0, c=1.0)])
    if fam == "G2":
        return MatrixAlgebra(0, [np.diag([1.0, -1.0]).astype(complex),
                                 np.diag([1j, 1j])])
    if fam == "G3":
        basis = [_embed(0, c=1.0)]
        if d.gamma != 0:
            basis.append(np.array([[d.gamma, 0], [0, -np.conj(d.gamma)]]))
        return MatrixAlgebra(0, basis)

    n = d.n
    basis: list[np.ndarray] = [_embed(n, c=1.0)]

    if fam == "GK":
        _check_k_antihermitian([A for _, A in d.k_basis])
        for a, A in d.k_basis:
            basis.append(_embed(n, a=a, A=A))
        for j in range(n):
            e = np.zeros(n, complex)
            e[j] = 1.0
            basis.append(_embed(n, Z=e))
            basis.append(_embed(n, Z=1j * e))
        return MatrixAlgebra(n, basis)

    m = d.m
    if not 0 <= m < n and fam in ("GKJL", "GKL"):
        raise ValueError("families with L != C^n need 0 <= m < n")

    if fam == "GKJL":
        if all(abs(a2) < 1e-14 for a2, _ in d.k_basis):
            raise ValueError("GKJL requires k not contained in u(m)")
        _check_k_antihermitian([A for _, A in d.k_basis])
        for a2, A in d.k_basis:
            Afull = _zmat(n)
            Afull[:m, :m] = A
            Afull[m:, m:] = 1j * a2 * np.eye(n - m)
            basis.append(_embed(n, a=1j * a2, A=Afull))
        for j in range(m):
            e = np.zeros(n, complex)
            e[j] = 1.0
            basis.append(_embed(n, Z=e))
            basis.append(_embed(n, Z=1j * e))
        for j in range(m, n):
            e = np.zeros(n, complex)
            e[j] = 1.0
            basis.append(_embed(n, Z=e))
        return MatrixAlgebra(n, basis)

    if fam == "GKL":
        _check_k_antihermitian(d.k_basis)
        for A in d.k_basis:
            Afull = _zmat(n)
            Afull[:m, :m] = A
            basis.append(_embed(n, A=Afull))
        for j in range(m):
            e = np.zeros(n, complex)
            e[j] = 1.0
            basis.append(_embed(n, Z=e))
            basis.append(_embed(n, Z=1j * e))
        F = d.real_form.basis_f
        for j in range(n - m):
            Z = np.zeros(n, complex)
            Z[m:] = F[:, j]
            basis.append(_embed(n, Z=Z))
        return MatrixAlgebra(n, basis)

    if fam == "GK0PSI":
        r = d.r
        if not 1 <= r <= m <= n:
            raise ValueError("GK0PSI needs 1 <= r <= m <= n")
        _check_k_antihermitian(d.k0_basis)
        _check_k_antihermitian(d.psi_images)
        _validate_psi(d)
        u_basis = _psi_domain_basis(d)
        for A in d.k0_basis:
            Afull = _zmat(n)
            Afull[:r, :r] = A
            basis.append(_embed(n, A=Afull))
        for X, psiX in zip(u_basis, d.psi_images):
            Afull = _zmat(n)
            Afull[:r, :r] = psiX
            basis.append(_embed(n, A=Afull, Z=X))
        for j in range(r):
            e = np.zeros(n, complex)
            e[j] = 1.0
            basis.append(_embed(n, Z=e))
            basis.append(_embed(n, Z=1j * e))
        return MatrixAlgebra(n, basis)

    if fam == "BERGER_GK":
        theta = _zmat(n - m) if d.real_form is None else d.real_form.theta
        _check_k_antihermitian([A for _, _, A in d.k_basis])
        for a1, a2, A in d.k_basis:
            Afull = _zmat(n)
            Afull[:m, :m] = A
            Afull[m:, m:] = a2 * (1j * np.eye(n - m) + theta)
            basis.append(_embed(n, a=a1 + 1j * a2, A=Afull))
        for j in range(m):
            e = np.zeros(n, complex)
            e[j] = 1.0
            basis.append(_embed(n, Z=e))
            basis.append(_embed(n, Z=1j * e))
        if d.real_form is not None:
            F = d.real_form.basis_f
            for j in range(n - m):
                Z = np.zeros(n, complex)
                Z[m:] = F[:, j]
                basis.append(_embed(n, Z=Z))
        return MatrixAlgebra(n, basis)

    raise ValueError(f"unknown family {fam!r}")


def _psi_domain_basis(d: GK0PsiDescriptor) -> list[np.ndarray]:
    """Real basis of C^{m-r} + L_0, as vectors in C^n."""
    n, m, r = d.n, d.m, d.r
    out = []
    for j in range(r, m):
        e = np.zeros(n, complex)
        e[j] = 1.0
        out.append(e)
    for j in range(r, m):
        e = np.zeros(n, complex)
        e[j] = 1j
        out.append(e)
    if d.real_form is not None:
        F = d.real_form.basis_f
        for j in range(n - m):
            Z = np.zeros(n, complex)
            Z[m:] = F[:, j]
            out.append(Z)
    return out


def _validate_psi(d: GK0PsiDescriptor, tol: float = DEFAULT_TOL.bracket_residual):
    imgs = [np.asarray(P, complex) for P in d.psi_images]
    if all(np.abs(P).max() < 1e-14 for P in imgs):
        raise ValueError("psi must be non-zero")
    if len(imgs) != len(_psi_domain_basis(d)):
        raise ValueError("psi_images length must match the real basis of C^{m-r} + L_0")
    for i, P in enumerate(imgs):
        for Q in imgs[i + 1:]:
            if np.abs(P @ Q - Q @ P).max() > tol:
                raise ValueError("psi image is not commutative")
        for A in d.k0_basis:
            A = np.asarray(A, complex)
            if np.abs(P @ A - A @ P).max() > tol:
                raise ValueError("psi image does not commute with k0")
    k0span = real_span_basis([np.asarray(A, complex) for A in d.k0_basis])
    img_span = real_span_basis(imgs)
    joint = real_span_basis(imgs + k0span)
    if len(joint) != len(img_span) + len(k0span):
        raise ValueError("psi image intersects k0 nontrivially")


def family_dim(d) -> int:
    """Real dimension formula dim k + dim_R L + 1 (plus the a-parts)."""
    fam = d.family
    if fam in ("G0", "G1"):
        return 3
    if fam == "G2":
        return 2
    if fam == "G3":
        return 1 if d.gamma == 0 else 2
    if fam == "GK":
        return len(d.k_basis) + 2 * d.n + 1
    if fam in ("GKJL", "GKL", "BERGER_GK"):
        return len(d.k_basis) + 2 * d.m + (d.n - d.m) + 1
    if fam == "GK0PSI":
        return len(d.k0_basis) + (2 * (d.m - d.r) + (d.n - d.m)) + 2 * d.r + 1
    raise ValueError(fam)


# ---------------------------------------------------------------------------
# matcher
# ---------------------------------------------------------------------------

def _real_rows(vs: list[np.ndarray]) -> np.ndarray:
    return np.array([np.concatenate([v.real, v.imag]) for v in vs])


def _mult_i(rows: np.ndarray) -> np.ndarray:
    """Multiplication by i on rows (Re v, Im v)."""
    half = rows.shape[1] // 2
    return np.hstack([-rows[:, half:], rows[:, :half]])


def _intersect_row_spaces(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[0] == 0 or B.shape[0] == 0:
        return A[:0]
    rel, floor = DEFAULT_TOL.rank_rel, DEFAULT_TOL.rank_abs
    perp = np.vstack([null_space(A, rel, floor), null_space(B, rel, floor)])
    return null_space(perp, rel, floor)


def _unvec(row: np.ndarray) -> np.ndarray:
    half = row.size // 2
    return row[:half] + 1j * row[half:]


def _support_coords(rows: np.ndarray, n: int, tol: float = 1e-9) -> set[int]:
    sup = set()
    for row in rows:
        v = _unvec(row)
        for j in range(n):
            if abs(v[j]) > tol:
                sup.add(j)
    return sup


def match_algebra(alg: MatrixAlgebra, tol: float = DEFAULT_TOL.rank_rel):
    """Identify the canonical family of a bracket-closed algebra given in the
    canonical Witt frame.  Returns a descriptor, or UnknownDescriptor."""
    n = alg.n
    if alg.dim == 0:
        return UnknownDescriptor("zero algebra")
    if n == 0:
        return _match_n0(alg, tol)

    try:
        xs = [ABZCElement.from_matrix(b) for b in alg.basis]
    except ValueError as exc:
        return UnknownDescriptor(f"not in the parabolic block pattern: {exc}")

    if not alg.contains(_embed(n, c=1.0)):
        return UnknownDescriptor("iR line missing")

    # translation structure
    zrows = _real_rows([x.Z for x in xs])
    L_full = row_space(zrows, tol, DEFAULT_TOL.rank_abs)
    k_param_rows = np.array([
        np.concatenate([[x.a.real, x.a.imag], x.A.real.ravel(), x.A.imag.ravel()])
        for x in xs])
    kernel = null_space(k_param_rows.T, tol, DEFAULT_TOL.rank_abs)
    trans_z = []
    for comb in kernel:
        Z = sum(c * x.Z for c, x in zip(comb, xs))
        if np.abs(Z).max() > 1e-9:
            trans_z.append(Z)
    V_trans = (row_space(_real_rows(trans_z), tol, DEFAULT_TOL.rank_abs) if trans_z
               else np.zeros((0, 2 * n)))

    # complex part of L
    iL = row_space(_mult_i(L_full), tol, DEFAULT_TOL.rank_abs)
    Cm = _intersect_row_spaces(L_full, iL)
    if Cm.shape[0] % 2 != 0:
        return UnknownDescriptor("L cap iL has odd real dimension")
    m = Cm.shape[0] // 2

    # coordinate alignment with the canonical frame
    if _support_coords(Cm, n) - set(range(m)):
        return UnknownDescriptor("complex part of L is not aligned with e_1..e_m")
    # L_0: orthogonal complement of C^m inside L (w.r.t. Re h = standard)
    if Cm.shape[0]:
        L0_rows = row_space(L_full - L_full @ Cm.T @ Cm, tol, DEFAULT_TOL.rank_abs)
    else:
        L0_rows = L_full
    if _support_coords(L0_rows, n) - set(range(m, n)):
        return UnknownDescriptor("L_0 is not aligned with e_{m+1}..e_n")
    if L0_rows.shape[0] != (0 if m == n else n - m) and L_full.shape[0] != 2 * n:
        return UnknownDescriptor(
            f"L has unexpected real dimension {L_full.shape[0]} for m={m}")

    real_form = None
    if m < n and L0_rows.shape[0]:
        fs = [_unvec(r)[m:] for r in L0_rows]
        # orthonormalize over R with respect to Re<.,.>
        ons: list[np.ndarray] = []
        for f in fs:
            for g in ons:
                f = f - (np.conj(g) @ f).real * g
            nrm = np.sqrt((np.conj(f) @ f).real)
            if nrm > 1e-9:
                ons.append(f / nrm)
        real_form = RealFormData(n - m, np.column_stack(ons))

    # the C + u(n) projection
    k_elems = []
    for row in row_space(k_param_rows, tol, DEFAULT_TOL.rank_abs):
        a = row[0] + 1j * row[1]
        A = _unvec(row[2:]).reshape(n, n)
        k_elems.append((a, A))
    dim_k = len(k_elems)

    # psi-coupling: translations do not exhaust L
    if V_trans.shape[0] < L_full.shape[0]:
        return _match_psi(alg, xs, n, m, V_trans, L_full, real_form, k_elems, tol)

    if m == n:
        return GKDescriptor(n, k_elems)

    # m < n: inspect the k-part block structure
    theta = real_form.theta if real_form is not None else np.zeros((n - m, n - m), complex)
    pure_u_m = []
    twist = []  # (a1, a2, A_m)
    for a, A in k_elems:
        if np.abs(A[:m, m:]).max(initial=0) > 1e-9 or np.abs(A[m:, :m]).max(initial=0) > 1e-9:
            return UnknownDescriptor("k mixes C^m and C^{n-m}")
        a1, a2 = a.real, a.imag
        B = A[m:, m:]
        expected = a2 * (1j * np.eye(n - m) + theta)
        if np.abs(B - expected).max(initial=0) > 1e-8:
            return UnknownDescriptor("C^{n-m} block of k is not a2 (iE + theta)")
        if abs(a1) < 1e-10 and abs(a2) < 1e-10:
            pure_u_m.append(A[:m, :m])
        else:
            twist.append((a1, a2, A[:m, :m]))

    theta_zero = real_form is None or real_form.is_trivial()
    if not twist:
        return GKLDescriptor(n, m, pure_u_m, real_form)
    if all(abs(a1) < 1e-10 for a1, _, _ in twist) and theta_zero:
        kb = [(a2, A) for _, a2, A in twist] + [(0.0, A) for A in pure_u_m]
        return GKJLDescriptor(n, m, kb)
    kb = [(a1, a2, A) for a1, a2, A in twist] + [(0.0, 0.0, A) for A in pure_u_m]
    return BergerGKDescriptor(n, m, kb, real_form)


def _match_psi(alg, xs, n, m, V_trans, L_full, real_form, k_elems, tol):
    # r = complex dimension of the translation space: the translation space
    # is C^r plus the real directions where psi vanishes; C^r is its maximal
    # complex subspace
    iV = row_space(_mult_i(V_trans), tol, DEFAULT_TOL.rank_abs)
    Vc = _intersect_row_spaces(V_trans, iV)
    if Vc.shape[0] % 2:
        return UnknownDescriptor("complex translation part has odd dimension")
    r = Vc.shape[0] // 2
    if _support_coords(Vc, n) - set(range(r)):
        return UnknownDescriptor("C^r is not aligned with e_1..e_r")
    if not 1 <= r <= m:
        return UnknownDescriptor(f"invalid r={r} for m={m}")

    # k0: elements with zero vector part
    full_rows = np.array([
        np.concatenate([[x.a.real, x.a.imag], x.Z.real, x.Z.imag]) for x in xs])
    k0 = []
    for comb in null_space(full_rows.T, tol, DEFAULT_TOL.rank_abs):
        A = sum(c * x.A for c, x in zip(comb, xs))
        if np.abs(A).max() > 1e-9:
            if np.abs(A[r:, :]).max(initial=0) > 1e-8 or np.abs(A[:, r:]).max(initial=0) > 1e-8:
                return UnknownDescriptor("k0 is not contained in u(r)")
            k0.append(A[:r, :r])
    k0 = real_span_basis(k0)

    # psi: for each U-basis vector, the (unique mod k0) u(r) part of the
    # element carrying it; the k0-orthogonal representative is returned.
    d_stub = GK0PsiDescriptor(n, m, r, k0_basis=k0, psi_images=[np.eye(r) * 1j],
                              real_form=real_form)
    u_basis = _psi_domain_basis(d_stub)
    B = np.array([np.concatenate([x.Z.real, x.Z.imag]) for x in xs]).T
    psi_images = []
    for X in u_basis:
        target = np.concatenate([X.real, X.imag])
        comb, *_ = np.linalg.lstsq(B, target, rcond=None)
        res = target - B @ comb
        if np.abs(res).max() > 1e-8:
            return UnknownDescriptor("U direction missing from the algebra")
        A = sum(c * x.A for c, x in zip(comb, xs))
        if np.abs(A[r:, :]).max(initial=0) > 1e-8 or np.abs(A[:, r:]).max(initial=0) > 1e-8:
            return UnknownDescriptor("psi image is not contained in u(r)")
        P = A[:r, :r]
        for K in k0:
            inner = np.sum((np.conj(K) * P)).real
            P = P - inner * K
        P = (P - P.conj().T) / 2  # remove numerical Hermitian drift
        psi_images.append(P)
    try:
        return GK0PsiDescriptor(n, m, r, k0_basis=k0, psi_images=psi_images,
                                real_form=real_form)
    except ValueError as exc:
        return UnknownDescriptor(f"psi extraction failed validation: {exc}")


def _match_n0(alg: MatrixAlgebra, tol: float):
    basis = alg.basis
    upper = all(abs(b[1, 0]) <= 1e-10 * max(np.abs(b).max(), 1.0) for b in basis)
    if not upper:
        g0 = build_family(G0Descriptor())
        if alg.dim == 3 and all(in_real_span(b, g0.basis, tol) for b in basis):
            return G0Descriptor()
        return UnknownDescriptor("n=0 algebra is neither parabolic nor sl(2,R)")
    has_c = alg.contains(_embed(0, c=1.0))
    diag = [b[0, 0] for b in basis]  # the image of the projection onto the diagonal
    diag_rows = row_space(np.array([[z.real, z.imag] for z in diag])
                          if diag else np.zeros((0, 2)), tol, DEFAULT_TOL.rank_abs)
    ddim = diag_rows.shape[0]
    if alg.dim == 3 and has_c and ddim == 2:
        return G1Descriptor()
    if alg.dim == 2 and not has_c and ddim == 2:
        return G2Descriptor()
    if alg.dim == 2 and has_c and ddim >= 1:
        gamma = _unvec(np.concatenate([diag_rows[0][:1], diag_rows[0][1:]]))[0]
        return G3Descriptor(gamma=_normalize_gamma(gamma))
    if alg.dim == 1 and has_c:
        return G3Descriptor(gamma=0.0)
    return UnknownDescriptor("unrecognized n=0 algebra")


def _normalize_gamma(gamma: complex) -> complex:
    """gamma is defined up to a nonzero real factor; pick |gamma| = 1 with
    Re > 0, or Re = 0 and Im > 0."""
    if gamma == 0:
        return 0.0
    g = gamma / abs(gamma)
    if g.real < -1e-14 or (abs(g.real) <= 1e-14 and g.imag < 0):
        g = -g
    if abs(g.real) <= 1e-14:
        g = 1j * abs(g.imag)
    return complex(g)


def same_descriptor(d1, d2) -> bool:
    """Coarse equality: family tag, (n, m, r) and dim k agree."""
    if d1.family != d2.family:
        return False
    if d1.family in ("G0", "G1", "G2"):
        return True
    if d1.family == "G3":
        return abs(_normalize_gamma(d1.gamma) - _normalize_gamma(d2.gamma)) < 1e-9
    if getattr(d1, "n", None) != getattr(d2, "n", None):
        return False
    if getattr(d1, "m", None) != getattr(d2, "m", None):
        return False
    if getattr(d1, "r", None) != getattr(d2, "r", None):
        return False
    kb1 = d1.k0_basis if d1.family == "GK0PSI" else d1.k_basis
    kb2 = d2.k0_basis if d2.family == "GK0PSI" else d2.k_basis
    # dim k: span dimension of the k-projections
    def kdim(d, kb):
        if d.family == "GK":
            vecs = [np.concatenate([[a.real, a.imag],
                                    np.asarray(A, complex).ravel().real,
                                    np.asarray(A, complex).ravel().imag])
                    for a, A in kb]
        elif d.family == "GKJL":
            vecs = [np.concatenate([[a2], np.asarray(A, complex).ravel().real,
                                    np.asarray(A, complex).ravel().imag])
                    for a2, A in kb]
        elif d.family == "BERGER_GK":
            vecs = [np.concatenate([[a1, a2], np.asarray(A, complex).ravel().real,
                                    np.asarray(A, complex).ravel().imag])
                    for a1, a2, A in kb]
        else:
            vecs = [np.concatenate([np.asarray(A, complex).ravel().real,
                                    np.asarray(A, complex).ravel().imag])
                    for A in kb]
        if not vecs:
            return 0
        return row_space(np.array(vecs), DEFAULT_TOL.rank_rel, DEFAULT_TOL.rank_abs).shape[0]
    return kdim(d1, kb1) == kdim(d2, kb2)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_holonomy_realizable(d) -> str:
    """'yes' for the families of the main classification; 'berger_only' for
    Berger algebras excluded by the non-existence theorem; 'not_berger'
    otherwise."""
    fam = d.family
    if fam in ("G0", "G1", "G2", "G3", "GK", "GKJL", "GKL", "GK0PSI"):
        try:
            build_family(d)
        except ValueError:
            return "not_berger"
        return "yes"
    if fam == "BERGER_GK":
        try:
            build_family(d)
        except ValueError:
            return "not_berger"
        if d.m == d.n:
            return "yes"
        theta_zero = d.real_form is None or d.real_form.is_trivial()
        for a1, a2, _ in d.k_basis:
            if abs(a1) > 1e-12:
                return "berger_only"
            if abs(a2) > 1e-12 and not theta_zero:
                return "berger_only"
        return "yes"
    return "not_berger"


def ricci_flat_condition(d) -> bool:
    """True iff all generators of the built algebra are trace-free, i.e. the
    algebra is inside su(1,n+1)."""
    alg = build_family(d)
    return all(abs(np.trace(b)) <= 1e-10 * max(np.abs(b).max(), 1.0)
               for b in alg.basis)


def ricci_flat_symbolic(d) -> bool:
    """The classification corollary's symbolic trace conditions, stated per
    family; must agree with ricci_flat_condition."""
    fam = d.family
    if fam == "G0":
        return True
    if fam == "G1":
        return False
    if fam == "G2":
        return False
    if fam == "G3":
        return abs(complex(d.gamma).imag) <= 1e-12
    if fam == "GK":
        return all(abs(2j * complex(a).imag + np.trace(np.asarray(A, complex))) <= 1e-10
                   for a, A in d.k_basis)
    if fam == "GKJL":
        nm = d.n - d.m
        return all(abs((nm + 2) * 1j * a2 + np.trace(np.asarray(A, complex))) <= 1e-10
                   for a2, A in d.k_basis)
    if fam == "GKL":
        return all(abs(np.trace(np.asarray(A, complex))) <= 1e-10 for A in d.k_basis)
    if fam == "GK0PSI":
        return all(abs(np.trace(np.asarray(A, complex))) <= 1e-10
                   for A in list(d.k0_basis) + list(d.psi_images))
    if fam == "BERGER_GK":
        nm = d.n - d.m
        tr_theta = 0.0 if d.real_form is None else np.trace(d.real_form.theta)
        return all(abs(2j * a2 + nm * 1j * a2 + a2 * tr_theta
                       + np.trace(np.asarray(A, complex))) <= 1e-10
                   for a1, a2, A in d.k_basis)
    raise ValueError(fam)
