"""Kaehler potentials realizing each holonomy family, plus the small
catalogue of low-dimensional and special metrics.

Coordinates: index 0 = v, 1..n = z^1..z^n, n+1 = u, matching `geometry`.
All builders return real-valued jets (or MetricJet for the direct metrics).
"""
from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOL
from .geometry import MetricJet, metric_from_potential
from .hermitian import _canonical_f_pair
from .jets import MASK, Jet, JetSpace, _jet, field_mask, field_shift, real_part
from .jetmat import jmat_exp, jmat_zero
from .lie import is_anti_hermitian


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


def fc_potential(space: JetSpace, a: complex, b: complex) -> Jet:
    """The v-linear potential whose metric satisfies
    h_{ubar v} = exp(-i a |u|^2 - (i b / 4) |u|^4).

    Built by formal antidifferentiation instead of the closed erf form, so
    it works uniformly in (a, b); the defining identity above is the thing
    tests pin down."""
    n = space.num_coords - 2
    v = space.variable(0)
    uu = space.variable(n + 1) * space.conj_variable(n + 1)
    E = (uu * (-1j * a) + (uu * uu) * (-1j * b / 4.0)).exp()
    g = antiderivative(E, n + 1, holomorphic=False)
    return real_part(v * g)


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


def fcm_potential(space: JetSpace, n: int, m: int, n0: int = 0) -> Jet:
    """(1/4) Re(i ubar^2 sum_{k=n0+1}^m (z^k)^2)."""
    ub = space.conj_variable(n + 1)
    acc = space.zero()
    for k in range(n0, m):
        zk = space.variable(1 + k)
        acc = acc + zk * zk
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


def canonical_b_matrix(lambdas: list[float], size: int) -> np.ndarray:
    """Block-diagonal matrix of 2x2 lambda-blocks padded with 1's.

    Each block is the canonical pair f_1, f_2 with h(f_1, f_2) = -i lambda;
    the columns are what the curvature turns into translations, so this
    choice is what makes the generated real form carry the prescribed
    lambda invariants (a column pair with real pairing would produce the
    untwisted form instead)."""
    if 2 * len(lambdas) > size:
        raise ValueError("too many lambda blocks")
    B = np.eye(size, dtype=complex)
    for s, lam in enumerate(lambdas):
        lam = abs(lam)
        if not lam < 1.0:
            raise ValueError("|lambda| < 1 required")
        B[2 * s: 2 * s + 2, 2 * s: 2 * s + 2] = _canonical_f_pair(lam)
    return B


def fl0_potential(space: JetSpace, n: int, m: int, lambdas: list[float],
                  N: int) -> Jet:
    """-Re sum_{j=m+1}^n sum_{alpha=1}^{n-m} i B_{j, m+alpha} conj(z^j)
    / ((N+alpha)!)^2 * |u|^{2(N+alpha)} u / (N+alpha+1)."""
    B = canonical_b_matrix(lambdas, n - m)
    u = space.variable(n + 1)
    ub = space.conj_variable(n + 1)
    acc = space.zero()
    for j in range(m, n):
        zbj = space.conj_variable(1 + j)
        for alpha in range(1, n - m + 1):
            p = N + alpha
            coeff = 1j * B[j - m, alpha - 1] / (math.factorial(p) ** 2 * (p + 1))
            term = zbj * coeff
            for _ in range(p + 1):
                term = term * u
            for _ in range(p):
                term = term * ub
            acc = acc + term
    return real_part(acc) * (-1.0)


def psi_d_matrix(n: int, m: int, r: int, lambdas: list[float]) -> np.ndarray:
    """(n-r) x (n+m-2r) matrix [[i E, -E, 0], [0, 0, i B]]."""
    D = np.zeros((n - r, n + m - 2 * r), dtype=complex)
    q = m - r
    D[:q, :q] = 1j * np.eye(q)
    D[:q, q:2 * q] = -np.eye(q)
    D[q:, 2 * q:] = 1j * canonical_b_matrix(lambdas, n - m)
    return D


def fpsi_potential(space: JetSpace, n: int, m: int, r: int,
                   lambdas: list[float]) -> Jet:
    """-Re sum_{j=r+1}^n sum_alpha D_{j alpha} conj(z^j)
    / (alpha!)^2 * |u|^{2 alpha} u / (alpha+1).

    The term is linear in conj(z^j) and its u-power matches the alpha-th
    rotation exactly: only then does the alpha-th Taylor coefficient of the
    curvature carry the rotation block and the translation column together,
    which is what couples each translation to its image under psi."""
    D = psi_d_matrix(n, m, r, lambdas)
    u = space.variable(n + 1)
    ub = space.conj_variable(n + 1)
    acc = space.zero()
    for j in range(r, n):
        zbj = space.conj_variable(1 + j)
        for alpha in range(1, n + m - 2 * r + 1):
            coeff = D[j - r, alpha - 1] / (math.factorial(alpha) ** 2 * (alpha + 1))
            term = zbj * coeff
            for _ in range(alpha + 1):
                term = term * u
            for _ in range(alpha):
                term = term * ub
            acc = acc + term
    return real_part(acc) * (-1.0)


# ---------------------------------------------------------------------------
# assembly per family descriptor
# ---------------------------------------------------------------------------


def _split_a_parts(pairs):
    """Rewrite a basis of k in C + u(n) so that at most two elements carry
    the scalar part: returns (a, A1), (b, A2), [A3..] (A1/A2 possibly None
    when there is no scalar part)."""
    pairs = [(complex(a), np.asarray(A, dtype=complex)) for a, A in pairs]
    lead: list[int] = []
    work = [list(p) for p in pairs]
    for col in range(2):
        piv = None
        for i, (a, _) in enumerate(work):
            if i in lead:
                continue
            comp = (a.real, a.imag)[col]
            if abs(comp) > DEFAULT_TOL.coeff_zero:
                piv = i
                break
        if piv is None:
            continue
        a_p, A_p = work[piv]
        comp_p = (a_p.real, a_p.imag)[col]
        for i, (a, A) in enumerate(work):
            if i == piv:
                continue
            comp = (a.real, a.imag)[col]
            if abs(comp) > DEFAULT_TOL.coeff_zero:
                t = comp / comp_p
                work[i][0] = a - t * a_p
                work[i][1] = A - t * A_p
        lead.append(piv)
    scalars = [work[i] for i in lead]
    rest = [work[i][1] for i in range(len(work)) if i not in lead]
    a, A1 = scalars[0] if len(scalars) > 0 else (0.0, None)
    b, A2 = scalars[1] if len(scalars) > 1 else (0.0, None)
    return (a, A1), (b, A2), rest


def _n0_of(A1: np.ndarray | None, m: int) -> int:
    """Largest n0 with A1 = diag(iso on C^{n0}, 0) in the first m coords."""
    tol = DEFAULT_TOL.residual
    if A1 is None:
        return 0
    A1 = np.asarray(A1, dtype=complex)[:m, :m]
    n0 = m
    while n0 > 0 and max(np.abs(A1[n0 - 1, :]).max(initial=0.0),
                         np.abs(A1[:, n0 - 1]).max(initial=0.0)) < tol:
        n0 -= 1
    block = A1[:n0, :n0]
    if np.abs(A1[n0:, :n0]).max(initial=0.0) > tol or \
            np.abs(A1[:n0, n0:]).max(initial=0.0) > tol:
        raise ValueError("A1 is not in the block form iso + 0; "
                         "re-express k in an adapted unitary basis")
    if n0 and abs(np.linalg.det(block)) < tol:
        raise ValueError("A1 must be an isomorphism on its support")
    return n0


def _embed_u(n: int, A: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    out[:size, :size] = np.asarray(A, dtype=complex)
    return out


def build_potential(d, order: int = 8) -> Jet:
    """Real potential jet whose metric realizes the holonomy algebra of
    the given family descriptor."""
    fam = d.family
    n = d.n
    space = JetSpace(n + 2, order)

    if fam == "GK":
        (a, A1), (b, A2), rest = _split_a_parts(d.k_basis)
        if abs(a) < DEFAULT_TOL.coeff_zero and abs(b) > DEFAULT_TOL.coeff_zero:
            a, b = b, a
            A1, A2 = A2, A1
        A_list = [A for A in (A1, A2) if A is not None] + rest
        n0 = _n0_of(A1, n) if abs(a) > DEFAULT_TOL.coeff_zero else 0
        return (fc_potential(space, a, b)
                + fun_potential(space, n, A_list)
                + fcm_potential(space, n, n, n0))

    if fam == "GKJL":
        m = d.m
        pairs = [(complex(a).imag, A) for a, A in d.k_basis]
        (a2, At1), (b2, At2), rest = _split_a_parts(pairs)
        a2 = a2.real if isinstance(a2, complex) else a2
        if abs(a2) < DEFAULT_TOL.coeff_zero or (
                At2 is not None and abs(b2) > DEFAULT_TOL.coeff_zero):
            raise ValueError("GKJL needs exactly one generator with a "
                             "nonzero scalar part")
        At1 = At1 / a2
        A1 = np.zeros((n, n), dtype=complex)
        A1[:m, :m] = At1
        A1[m:, m:] = 1j * np.eye(n - m)
        A_list = [A1] + [_embed_u(n, A, m) for A in
                         ([At2] if At2 is not None else []) + rest]
        n0 = _n0_of(At1, m)
        return (fc_potential(space, 1j, 0.0)
                + fun_potential(space, n, A_list)
                + fcm_potential(space, n, m, n0)
                + frnm_potential(space, n, m))

    if fam == "GKL":
        m = d.m
        rf = d.real_form
        lambdas = [] if rf is None else [l for l in rf.lambdas]
        A_list = [_embed_u(n, A, m) for _, A in d.k_basis]
        return (fc_potential(space, 0.0, 0.0)
                + fun_potential(space, n, A_list)
                + fcm_potential(space, n, m, 0)
                + fl0_potential(space, n, m, lambdas, len(A_list)))

    if fam == "GK0PSI":
        m, r = d.m, d.r
        rf = d.real_form
        lambdas = [] if rf is None else [l for l in rf.lambdas]
        A_list = [_embed_u(n, P, r) for P in d.psi_images]
        A_list.append(np.zeros((n, n), dtype=complex))
        A_list.extend(_embed_u(n, A, r) for A in d.k0_basis)
        return (fc_potential(space, 0.0, 0.0)
                + fun_potential(space, n, A_list)
                + fcm_potential(space, n, r, 0)
                + fpsi_potential(space, n, m, r, lambdas))

    raise ValueError(f"no potential construction for family {fam!r}")


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
