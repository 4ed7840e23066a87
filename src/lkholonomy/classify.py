"""Canonical families of weakly irreducible subalgebras of u(1,n+1)_{Cp}:
constructors, a matcher that reads a descriptor off an algebra as if it were
given in the canonical Witt frame and then proves it, accepting it only when
it builds the algebra, and the realizability predicate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .config import DEFAULT_TOL
from .hermitian import RealFormData
from .lie import (
    ABZCElement,
    MatrixAlgebra,
    fits_pattern,
    flatten,
    is_anti_hermitian,
    null_space,
    real_span_basis,
    row_space,
    span_coords,
    unflatten,
)

# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


@dataclass
class N0Descriptor:
    """The n = 0 families G0..G3, told apart by the tag alone; gamma is read
    by G3 only.  G0 is su(1,1) in the Witt frame of C^{1,1}: D^-1 sl(2,R) D
    with D = diag(1, i), spanned by [[1,0],[0,-1]], [[0,i],[0,0]] and
    [[0,0],[-i,0]]."""

    family: str
    gamma: complex = 0.0
    n: ClassVar[int] = 0


@dataclass
class KLDescriptor:
    """k |x (L |x iR) with L = C^m + L_0: the families GK, GKJL, GKL and the
    Berger-only BERGER_GK, told apart by the data alone (see `family`).

    k_basis: list of (a, A) pairs, a complex and A in u(m); k acts on C^m by
    A and on C^{n-m} by Im a (iE + theta), theta that of the real form L_0.
    """

    n: int
    m: int
    k_basis: list
    real_form: RealFormData | None = None

    def __post_init__(self):
        if self.real_form is None and self.n > self.m:
            self.real_form = RealFormData.from_lambdas([], self.n - self.m)

    @property
    def family(self) -> str:
        """GK when L = C^n; GKL when every a is zero; GKJL when every Re a is
        zero and L_0 is untwisted; BERGER_GK otherwise."""
        if self.m == self.n:
            return "GK"
        if all(_a_is_zero(a) for a, _ in self.k_basis):
            return "GKL"
        untwisted = self.real_form is None or self.real_form.is_trivial()
        if untwisted and all(_a_is_zero(complex(a).real) for a, _ in self.k_basis):
            return "GKJL"
        return "BERGER_GK"

    def k_matrix(self, a, A) -> np.ndarray:
        """The action of (a, A) on C^n: A on C^m, Im a (iE + theta) on C^{n-m}."""
        out = _zmat(self.n)
        out[:self.m, :self.m] = A
        if self.n > self.m:
            out[self.m:, self.m:] = complex(a).imag * (1j * np.eye(self.n - self.m)
                                                       + self.real_form.theta)
        return out


def _a_is_zero(a) -> bool:
    """Both parts of a below Tolerances.residual: the family rule's one test."""
    a = complex(a)
    return abs(a.real) < DEFAULT_TOL.residual and abs(a.imag) < DEFAULT_TOL.residual


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
class UnknownDescriptor:
    reason: str = ""
    family: str = "UNKNOWN"


DESCRIPTORS = (N0Descriptor, KLDescriptor, GK0PsiDescriptor, UnknownDescriptor)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _zmat(n):
    return np.zeros((n, n), dtype=complex)


def _embed(n, a=0.0, A=None, Z=None, c=0.0) -> np.ndarray:
    A = _zmat(n) if A is None else A
    Z = np.zeros(n, dtype=complex) if Z is None else np.asarray(Z, dtype=complex)
    return ABZCElement(complex(a), np.asarray(A, dtype=complex), Z, float(c)).to_matrix()


def _translations(n: int, js) -> list[np.ndarray]:
    """The elements with Z = e_j and Z = i e_j, for each j in js: C^{|js|}."""
    return [_embed(n, Z=u * np.eye(n, dtype=complex)[j]) for j in js for u in (1.0, 1j)]


def _l0_vectors(d) -> list[np.ndarray]:
    """The real basis f_j of L_0 as vectors of C^n; none without a real form."""
    if d.real_form is None:
        return []
    return [np.concatenate([np.zeros(d.m, complex), f]) for f in d.real_form.basis_f.T]


def _check_k_antihermitian(mats):
    if not all(is_anti_hermitian(A) for A in mats):
        raise ValueError("k-generator is not anti-Hermitian")


def build_family(d) -> MatrixAlgebra:
    """Explicit matrix realization of a descriptor, in the canonical frame."""
    fam = d.family
    if fam == "G0":
        basis = [np.array([[1, 0], [0, -1]], dtype=complex),
                 np.array([[0, 1j], [0, 0]]),
                 np.array([[0, 0], [-1j, 0]])]
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

    if not isinstance(d, (KLDescriptor, GK0PsiDescriptor)):
        raise ValueError(f"unknown family {fam!r}")
    n = d.n
    basis: list[np.ndarray] = [_embed(n, c=1.0)]

    if isinstance(d, KLDescriptor):
        m = d.m
        if not 0 <= m <= n:
            raise ValueError("a (k, L) family needs 0 <= m <= n")
        _check_k_antihermitian([A for _, A in d.k_basis])
        basis += [_embed(n, a=a, A=d.k_matrix(a, A)) for a, A in d.k_basis]
        basis += _translations(n, range(m)) + [_embed(n, Z=Z) for Z in _l0_vectors(d)]
        return MatrixAlgebra(n, basis)

    m, r = d.m, d.r
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
    basis += _translations(n, range(r))
    return MatrixAlgebra(n, basis)


def _psi_domain_basis(d: GK0PsiDescriptor) -> list[np.ndarray]:
    """Real basis of C^{m-r} + L_0, as vectors in C^n."""
    eye = np.eye(d.n, dtype=complex)[d.r:d.m]
    return list(eye) + list(1j * eye) + _l0_vectors(d)


def _validate_psi(d: GK0PsiDescriptor):
    imgs = [np.asarray(P, complex) for P in d.psi_images]
    if all(np.abs(P).max() < DEFAULT_TOL.coeff_zero for P in imgs):
        raise ValueError("psi must be non-zero")
    if len(imgs) != len(_psi_domain_basis(d)):
        raise ValueError("psi_images length must match the real basis of C^{m-r} + L_0")
    for i, P in enumerate(imgs):
        for Q in imgs[i + 1:]:
            if np.abs(P @ Q - Q @ P).max() > DEFAULT_TOL.residual:
                raise ValueError("psi image is not commutative")
        for A in d.k0_basis:
            A = np.asarray(A, complex)
            if np.abs(P @ A - A @ P).max() > DEFAULT_TOL.residual:
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
    if isinstance(d, KLDescriptor):
        return len(d.k_basis) + 2 * d.m + (d.n - d.m) + 1
    if fam == "GK0PSI":
        return len(d.k0_basis) + (2 * (d.m - d.r) + (d.n - d.m)) + 2 * d.r + 1
    raise ValueError(fam)


# ---------------------------------------------------------------------------
# matcher: read a descriptor off the algebra, then prove it
# ---------------------------------------------------------------------------

def match_algebra(alg: MatrixAlgebra):
    """Identify the canonical family of a bracket-closed algebra: read a
    descriptor off it as if it were given in the canonical Witt frame, then
    prove the reading, returning the descriptor only when build_family of it
    equals the algebra.  A reading or building that fails (ValueError) or a
    build that is not the algebra gives UnknownDescriptor with the reason."""
    try:
        d = _read_descriptor(alg)
        if build_family(d).equals(alg):
            return d
        reason = f"the algebra is not build_family of the {d.family} descriptor read off it"
    except ValueError as exc:
        reason = str(exc)
    return UnknownDescriptor(reason)


def _mult_i(rows: np.ndarray) -> np.ndarray:
    """Multiplication by i on rows (Re v, Im v)."""
    half = rows.shape[1] // 2
    return np.hstack([-rows[:, half:], rows[:, :half]])


def _intersect_row_spaces(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    if A.shape[0] == 0 or B.shape[0] == 0:
        return A[:0]
    tol = DEFAULT_TOL.rank_rel
    perp = np.vstack([null_space(A, tol), null_space(B, tol)])
    return null_space(perp, tol)


def _read_descriptor(alg: MatrixAlgebra):
    """The descriptor alg would have in the canonical frame: L from the Z
    parts, C^m its complex part and L_0 the rest, k from the (a, A) parts,
    and psi when the pure translations do not exhaust L.  Raises ValueError
    where it cannot read (off the block pattern, an L_0 that is no real
    form); what it returns, match_algebra proves."""
    n, tol = alg.n, DEFAULT_TOL.rank_rel
    if alg.dim == 0:
        raise ValueError("zero algebra")
    if n == 0:
        return _read_n0(alg)

    try:
        xs = [ABZCElement.from_matrix(b) for b in alg.basis]
    except ValueError as exc:
        raise ValueError(f"not in the parabolic block pattern: {exc}") from None

    # translation structure
    zrows = flatten([x.Z for x in xs])
    L_full = row_space(zrows, tol)
    k_param_rows = np.array([
        np.concatenate([[x.a.real, x.a.imag], x.A.real.ravel(), x.A.imag.ravel()])
        for x in xs])
    kernel = null_space(k_param_rows.T, tol)
    trans_z = []
    for comb in kernel:
        Z = sum(c * x.Z for c, x in zip(comb, xs))
        if np.abs(Z).max() > tol:
            trans_z.append(Z)
    V_trans = (row_space(flatten(trans_z), tol) if trans_z
               else np.zeros((0, 2 * n)))

    # complex part of L, and L_0: its orthogonal complement inside L (with
    # respect to Re h = standard)
    Cm = _intersect_row_spaces(L_full, row_space(_mult_i(L_full), tol))
    m = Cm.shape[0] // 2
    L0_rows = row_space(L_full - L_full @ Cm.T @ Cm, tol) if Cm.shape[0] else L_full

    real_form = None
    if m < n and L0_rows.shape[0]:
        fs = [unflatten(r)[m:] for r in L0_rows]
        # orthonormalize over R with respect to Re<.,.>
        ons: list[np.ndarray] = []
        for f in fs:
            for g in ons:
                f = f - (np.conj(g) @ f).real * g
            nrm = np.sqrt((np.conj(f) @ f).real)
            if nrm > tol:
                ons.append(f / nrm)
        real_form = RealFormData(n - m, np.column_stack(ons))

    # the C + u(n) projection
    k_elems = []
    for row in row_space(k_param_rows, tol):
        a = row[0] + 1j * row[1]
        A = unflatten(row[2:], (n, n))
        k_elems.append((a, A))

    # psi-coupling: translations do not exhaust L
    if V_trans.shape[0] < L_full.shape[0]:
        return _read_psi(xs, n, m, V_trans, real_form)

    if m == n:
        return KLDescriptor(n, n, k_elems)
    # the elements with an a-part first, then those of u(m) with a set to 0
    twist = [(a, A[:m, :m]) for a, A in k_elems if not _a_is_zero(a)]
    pure = [(0j, A[:m, :m]) for a, A in k_elems if _a_is_zero(a)]
    return KLDescriptor(n, m, twist + pure, real_form)


def _read_psi(xs, n, m, V_trans, real_form):
    tol = DEFAULT_TOL.rank_rel
    # r = complex dimension of the translation space: the translation space
    # is C^r plus the real directions where psi vanishes; C^r is its maximal
    # complex subspace
    r = _intersect_row_spaces(V_trans, row_space(_mult_i(V_trans), tol)).shape[0] // 2

    # k0: the u(r) blocks of the elements with zero vector part
    full_rows = np.array([
        np.concatenate([[x.a.real, x.a.imag], x.Z.real, x.Z.imag]) for x in xs])
    k0 = []
    for comb in null_space(full_rows.T, tol):
        K = sum(c * x.A for c, x in zip(comb, xs))[:r, :r]
        if np.abs(K).max(initial=0) > tol:
            k0.append(K)
    k0 = real_span_basis(k0)

    # psi: for each U-basis vector, the (unique mod k0) u(r) part of the
    # element carrying it; the k0-orthogonal representative is returned.
    d = GK0PsiDescriptor(n, m, r, k0_basis=k0, psi_images=[], real_form=real_form)
    for X in _psi_domain_basis(d):
        comb, _ = span_coords(X, [x.Z for x in xs])
        P = sum(c * x.A for c, x in zip(comb, xs))[:r, :r]
        for K in k0:
            inner = np.sum((np.conj(K) * P)).real
            P = P - inner * K
        P = (P - P.conj().T) / 2  # remove numerical Hermitian drift
        d.psi_images.append(P)
    return d


def _read_n0(alg: MatrixAlgebra):
    """G0 off the parabolic block pattern; on it G1, G2 or G3 by the
    dimension of alg and of its projection onto the diagonal."""
    basis = alg.basis
    if not fits_pattern(np.array(basis)).all():
        return N0Descriptor("G0")
    diag_rows = row_space(np.array([[b[0, 0].real, b[0, 0].imag] for b in basis]),
                          DEFAULT_TOL.rank_rel)
    ddim = diag_rows.shape[0]
    if alg.dim == 3 and ddim == 2:
        return N0Descriptor("G1")
    if alg.dim == 2 and ddim == 2:
        return N0Descriptor("G2")
    if alg.dim == 2 and ddim == 1:
        return N0Descriptor("G3", _normalize_gamma(unflatten(diag_rows[0])[0]))
    if alg.dim == 1:
        return N0Descriptor("G3")
    raise ValueError("unrecognized n=0 algebra")


def _normalize_gamma(gamma: complex) -> complex:
    """gamma is defined up to a nonzero real factor; pick |gamma| = 1 with
    Re > 0, or Re = 0 and Im > 0."""
    if gamma == 0:
        return 0.0
    g, zero = gamma / abs(gamma), DEFAULT_TOL.coeff_zero
    if g.real < -zero or (abs(g.real) <= zero and g.imag < 0):
        g = -g
    if abs(g.real) <= zero:
        g = 1j * abs(g.imag)
    return complex(g)


def same_descriptor(d1, d2) -> bool:
    """Coarse equality: family tag, (n, m, r) and dim k agree."""
    if d1.family != d2.family:
        return False
    if d1.family in ("G0", "G1", "G2"):
        return True
    if d1.family == "G3":
        gap = _normalize_gamma(d1.gamma) - _normalize_gamma(d2.gamma)
        return abs(gap) < DEFAULT_TOL.rank_rel
    if getattr(d1, "n", None) != getattr(d2, "n", None):
        return False
    if getattr(d1, "m", None) != getattr(d2, "m", None):
        return False
    if getattr(d1, "r", None) != getattr(d2, "r", None):
        return False
    # dim k: span dimension of the k-projections
    def kdim(d):
        kb = [(0j, A) for A in d.k0_basis] if d.family == "GK0PSI" else d.k_basis
        vecs = [np.concatenate([[complex(a).real, complex(a).imag],
                                flatten([np.asarray(A, complex)])[0]]) for a, A in kb]
        if not vecs:
            return 0
        return row_space(np.array(vecs), DEFAULT_TOL.rank_rel).shape[0]
    return kdim(d1) == kdim(d2)


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_holonomy_realizable(d) -> str:
    """'yes' for the families of the main classification; 'berger_only' for
    the Berger algebras the non-existence theorem excludes, BERGER_GK;
    'not_berger' for a descriptor that does not build."""
    try:
        build_family(d)
    except ValueError:
        return "not_berger"
    return "berger_only" if d.family == "BERGER_GK" else "yes"
