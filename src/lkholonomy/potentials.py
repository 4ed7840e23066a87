"""Kaehler potentials realizing each holonomy family, plus the small
catalogue of low-dimensional and special metrics.

Coordinates: index 0 = v, 1..n = z^1..z^n, n+1 = u, matching `geometry`.
All builders return real-valued jets (or MetricJet for the direct metrics).
"""
from __future__ import annotations

import math

import numpy as np

from .classify import GK0PsiDescriptor, KLDescriptor, _a_is_zero
from .config import DEFAULT_TOL
from .geometry import MetricJet, metric_from_potential
from .hermitian import RealFormData
from .jets import MASK, Jet, JetSpace, _jet, field_mask, field_shift, real_part
from .jetmat import jmat_exp, jmat_zero
from .lie import is_anti_hermitian, null_space


# ---------------------------------------------------------------------------
# jet helper
# ---------------------------------------------------------------------------


def antiderivative(jet: Jet, var: int, holomorphic: bool = True) -> Jet:
    """Formal antiderivative in one variable; terms pushed past the
    truncation order are dropped (before their key is formed, so no field
    carries at the packing limit)."""
    shift = field_shift(jet.num_coords, var, holomorphic)
    unit = 1 + (1 << shift)
    terms = {}
    for key, c in jet.terms.items():
        if key & MASK < jet.order:
            key += unit
            terms[key] = c / ((key >> shift) & MASK)
    return _jet(jet.num_coords, jet.order, terms)


# ---------------------------------------------------------------------------
# ingredients
# ---------------------------------------------------------------------------


def fc_potential(space: JetSpace, *scalars: complex) -> Jet:
    """The v-linear potential whose metric satisfies
    h_{ubar v} = exp(-i sum_alpha a_alpha |u|^{2 alpha} / (alpha!)^2), the
    scalar a_alpha placed as fun_potential places A_alpha; fc_potential(space,
    a, b) gives exp(-i a |u|^2 - (i b / 4) |u|^4).

    Built by formal antidifferentiation instead of the closed erf form, so
    it works uniformly in the scalars; the defining identity above is the
    thing tests pin down."""
    n = space.num_coords - 2
    uu = space.variable(n + 1) * space.conj_variable(n + 1)
    G = space.zero()
    upow = space.constant(1.0)
    for alpha, a in enumerate(scalars, start=1):
        if 2 * alpha > space.order:
            break  # |u|^{2 alpha} lies above the order, as in fun_potential
        upow = upow * uu
        G = G + upow * (-1j * a / math.factorial(alpha) ** 2)
    g = antiderivative(G.exp(), n + 1, holomorphic=False)
    return real_part(space.variable(0) * g)


def fun_potential(space: JetSpace, n: int, A_list: list[np.ndarray]) -> Jet:
    """conj(Z)^T e^G Z with G = sum_alpha B_alpha |u|^{2 alpha},
    B_alpha = -i A_alpha / (alpha!)^2, for anti-Hermitian A_alpha."""
    if n == 0:
        return space.zero()
    uu = space.variable(n + 1) * space.conj_variable(n + 1)
    G = jmat_zero((n, n), space)
    upow = space.constant(1.0)
    for alpha, A in enumerate(A_list, start=1):
        if not is_anti_hermitian(A):
            raise ValueError("A_alpha must be anti-Hermitian")
        if 2 * alpha > space.order:
            continue  # |u|^{2 alpha} lies above the order (and (alpha!)^2 may overflow)
        upow = upow * uu
        B = -1j * np.asarray(A, dtype=complex) / math.factorial(alpha) ** 2
        for j in range(n):
            for k in range(n):
                G[j, k] = G[j, k] + upow * B[j, k]
    eG = jmat_exp(G)
    f = space.zero()
    for j in range(n):
        zbj = space.conj_variable(1 + j)
        for k in range(n):
            f = f + zbj * eG[j, k] * space.variable(1 + k)
    return f


def fcm_potential(space: JetSpace, n: int, S: np.ndarray) -> Jet:
    """(1/4) Re(i ubar^2 z^T S z) for a complex symmetric S on the first
    len(S) coordinates z^1..z^len(S)."""
    acc = space.zero()
    for j, k in zip(*np.nonzero(S)):
        acc = acc + space.variable(1 + j) * space.variable(1 + k) * S[j, k]
    ub = space.conj_variable(n + 1)
    return real_part(ub * ub * acc * 0.25j)


def frnm_potential(space: JetSpace, n: int, m: int) -> Jet:
    """-(1/2) Re sum_{j=m+1}^n conj(z^j)^2 [(1/ubar^2)(1 - e^{|u|^2})
    + (u/ubar) e^{|u|^2}], the bracket being the series
    sum_{k>=2} u^k ubar^{k-2} (k-1)/k!.

    The conj(z^j)^2 factor is what feeds the torsion-type entries pairing
    with the i-twisted rotation on the last n - m coordinates; without it
    the term cannot influence the holonomy at all."""
    u = space.variable(n + 1)
    ub = space.conj_variable(n + 1)
    s = space.zero()
    k = 2
    while 2 * k <= space.order:
        term = space.constant((k - 1) / math.factorial(k))
        for _ in range(k):
            term = term * u
        for _ in range(k - 2):
            term = term * ub
        s = s + term
        k += 1
    acc = space.zero()
    for j in range(m, n):
        zbj = space.conj_variable(1 + j)
        acc = acc + zbj * zbj * s
    return real_part(acc) * (-0.5)


def _translation_potential(space: JetSpace, n: int, D: np.ndarray, N: int) -> Jet:
    """-Re sum_{j, alpha} D_{j alpha} conj(z^j) |u|^{2p} u / ((p!)^2 (p+1)),
    p = N + alpha, over the last len(D) coordinates z^j and alpha = 1..D's
    column count."""
    u = space.variable(n + 1)
    ub = space.conj_variable(n + 1)
    acc = space.zero()
    first = n - D.shape[0]
    for j in range(first, n):
        zbj = space.conj_variable(1 + j)
        for alpha in range(1, D.shape[1] + 1):
            p = N + alpha
            term = zbj * (D[j - first, alpha - 1] / (math.factorial(p) ** 2 * (p + 1)))
            for _ in range(p + 1):
                term = term * u
            for _ in range(p):
                term = term * ub
            acc = acc + term
    return real_part(acc) * (-1.0)


def fl0_potential(space: JetSpace, n: int, m: int, lambdas: list[float],
                  N: int) -> Jet:
    """-Re sum_{j=m+1}^n sum_{alpha=1}^{n-m} i B_{j, m+alpha} conj(z^j)
    / ((N+alpha)!)^2 * |u|^{2(N+alpha)} u / (N+alpha+1).

    B is the basis of the canonical real form with the given lambdas.  Its
    columns are what the curvature turns into translations, so this choice
    makes the generated real form carry the prescribed lambda invariants (a
    column pair with real pairing would give the untwisted form instead)."""
    B = RealFormData.from_lambdas(lambdas, n - m).basis_f
    return _translation_potential(space, n, 1j * B, N)


def psi_d_matrix(n: int, m: int, r: int, lambdas: list[float]) -> np.ndarray:
    """(n-r) x (n+m-2r) matrix [[i E, -E, 0], [0, 0, i B]]."""
    D = np.zeros((n - r, n + m - 2 * r), dtype=complex)
    q = m - r
    D[:q, :q] = 1j * np.eye(q)
    D[:q, q:2 * q] = -np.eye(q)
    D[q:, 2 * q:] = 1j * RealFormData.from_lambdas(lambdas, n - m).basis_f
    return D


def fpsi_potential(space: JetSpace, n: int, m: int, r: int,
                   lambdas: list[float]) -> Jet:
    """-Re sum_{j=r+1}^n sum_alpha D_{j alpha} conj(z^j)
    / (alpha!)^2 * |u|^{2 alpha} u / (alpha+1).

    The term is linear in conj(z^j) and its u-power matches the alpha-th
    rotation exactly: only then does the alpha-th Taylor coefficient of the
    curvature carry the rotation block and the translation column together,
    which is what couples each translation to its image under psi."""
    return _translation_potential(space, n, psi_d_matrix(n, m, r, lambdas), 0)


# ---------------------------------------------------------------------------
# assembly per family descriptor
# ---------------------------------------------------------------------------


def _embed_u(n: int, A: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    out[:size, :size] = np.asarray(A, dtype=complex)
    return out


def build_potential(d, order: int = 8) -> Jet:
    """Real potential jet whose metric realizes the holonomy algebra of
    the given family descriptor.

    For GK, GKJL and GKL the generators carrying a scalar part come first:
    the alpha-th one puts a_alpha into fc_potential and every generator puts
    its matrix on C^n into fun_potential.  The first one's A1 has kernel
    rows X on C^m (A1 conj(x) = 0), and fcm_potential takes S = X^T X, the
    sum of squares of the coordinates of a unitary basis adapted to A1."""
    n = d.n
    space = JetSpace(n + 2, order)

    if isinstance(d, KLDescriptor) and d.family != "BERGER_GK":
        fam, m = d.family, d.m
        pairs = sorted(((complex(a), np.asarray(A, dtype=complex)) for a, A in d.k_basis),
                       key=lambda p: _a_is_zero(p[0]))
        scalars = [a for a, _ in pairs if not _a_is_zero(a)]
        if fam == "GKJL":
            # frnm_potential is fitted to a = i: one generator carries Im a
            (a1, A1), rest = pairs[0], pairs[1:]
            pairs = [(1j, A1 / a1.imag)] + [
                (0j, A if _a_is_zero(a) else A - (a.imag / a1.imag) * A1) for a, A in rest]
            scalars = [1j]
        A1 = pairs[0][1] if scalars else np.zeros((m, m), dtype=complex)
        X = null_space(A1)
        f = (fc_potential(space, *scalars)
             + fun_potential(space, n, [d.k_matrix(a, A) for a, A in pairs])
             + fcm_potential(space, n, X.T @ X))
        if fam == "GKJL":
            f = f + frnm_potential(space, n, m)
        if fam == "GKL":
            f = f + fl0_potential(space, n, m, d.real_form.lambdas, len(pairs))
        return f

    if isinstance(d, GK0PsiDescriptor):
        r = d.r
        A_list = [_embed_u(n, P, r) for P in d.psi_images]
        A_list.append(np.zeros((n, n), dtype=complex))
        A_list.extend(_embed_u(n, A, r) for A in d.k0_basis)
        return (fc_potential(space)
                + fun_potential(space, n, A_list)
                + fcm_potential(space, n, np.eye(r))
                + fpsi_potential(space, n, d.m, r,
                                 [] if d.real_form is None else d.real_form.lambdas))

    raise ValueError(f"no potential construction for family {d.family!r}")


# ---------------------------------------------------------------------------
# low-dimensional catalogue and special metrics
# ---------------------------------------------------------------------------


def small_dim_metric(tag: str, order: int = 8, gamma: complex = 1.0) -> MetricJet:
    """The four surface metrics: 'g1', 'g2', 'g3gamma', 'g3zero'."""
    space = JetSpace(2, order)
    if tag == "g1":
        return metric_from_potential(fc_potential(space, 1j, 1.0))
    if tag == "g3gamma":
        if gamma == 0:
            raise ValueError("use tag 'g3zero' for the gamma = 0 case")
        return metric_from_potential(fc_potential(space, gamma, 0.0))
    if tag == "g3zero":
        v = space.variable(0)
        uu = space.variable(1) * space.conj_variable(1)
        f = real_part(v * space.conj_variable(1)) + uu * uu
        return metric_from_potential(f)
    if tag == "g2":
        h = np.empty((2, 2), dtype=object)
        h[0, 0] = space.zero()
        h[1, 1] = space.zero()
        # h_{ubar v} = e^{ubar v}, h_{vbar u} = e^{vbar u}
        h[1, 0] = (space.conj_variable(1) * space.variable(0)).exp()
        h[0, 1] = (space.conj_variable(0) * space.variable(1)).exp()
        return MetricJet(0, h)
    raise ValueError(f"unknown tag {tag!r}")


def oriented_lines_metric(order: int = 8, variant: str = "hermitized") -> MetricJet:
    """The neutral Kaehler metric of the space of oriented lines of R^3.

    'hermitized' (default): h_{vbar u} = 1/(1+|u|^2)^2,
    h_{ubar u} = -2(v ubar + vbar u)/(1+|u|^2)^3.  This is the unique
    Hermitian reading of the published coefficients that is also Kaehler,
    and it reproduces the published curvature values at 0 exactly.

    'literal': the coefficients exactly as published, with the cross term
    2i(vbar u + ubar v) inside the global conformal factor; the resulting
    coefficient matrix is not Hermitian (kept for inspection only)."""
    space = JetSpace(2, order)
    v = space.variable(0)
    vb = space.conj_variable(0)
    u = space.variable(1)
    ub = space.conj_variable(1)
    one_uu = space.constant(1.0) + u * ub
    def powinv(k):
        acc = space.constant(1.0)
        for _ in range(k):
            acc = acc * one_uu
        return acc.reciprocal()
    h = np.empty((2, 2), dtype=object)
    h[0, 0] = space.zero()
    h[0, 1] = powinv(2)
    h[1, 0] = powinv(2)
    if variant == "hermitized":
        h[1, 1] = (v * ub + vb * u) * powinv(3) * (-2.0)
    elif variant == "literal":
        h[1, 1] = (vb * u + ub * v) * powinv(5) * 2j
    else:
        raise ValueError("variant must be 'literal' or 'hermitized'")
    return MetricJet(0, h)


def ppwave_potential(space: JetSpace, n: int, phi: Jet) -> Jet:
    """ubar v + vbar u + sum |z^k|^2 + Re phi for a jet phi depending only
    on z^1..z^n, u, ubar (holomorphically in z)."""
    bad = field_mask(phi.num_coords, [0], range(n + 1))
    if any(abs(c) > DEFAULT_TOL.coeff_zero and k & bad for k, c in phi.terms.items()):
        raise ValueError("phi must be holomorphic in z and free of v")
    f = real_part(space.variable(0) * space.conj_variable(n + 1))
    for k in range(n):
        f = f + space.variable(1 + k) * space.conj_variable(1 + k)
    return f + real_part(phi)
