"""Differential geometry on jets: metric from potential, the isotropic-line
(Walker) normal form and its closed-form inverse, Christoffel symbols,
curvature, covariant derivatives, the adapted Witt frame, infinitesimal
holonomy spanning, Ricci, and the pp-wave detectors.

Coordinates are indexed 0 = v, 1..n = z^1..z^n, n+1 = u; metric coefficients
are stored as h[a][b] = h_{a-bar, b} (conjugate index first).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .config import DEFAULT_TOL
from .jets import MASK, InsufficientOrderError, Jet, JetSpace, field_mask, graded_sum, var_key
from .jetmat import (
    jmat_add,
    jmat_commutator,
    jmat_conj_transpose,
    jmat_derivative,
    jmat_eval0,
    jmat_from_const,
    jmat_from_graded,
    jmat_graded,
    jmat_identity,
    jmat_inverse,
    jmat_max_abs,
    jmat_mul,
    jmat_scale,
    jmat_space,
    jmat_sqrt,
    jmat_truncated,
    jmat_zero,
)
from .hermitian import WittMetric
from .lie import ABZCElement, MatrixAlgebra, real_span_basis, row_space, sigma_involution


class DegeneracyError(ValueError):
    """The metric is degenerate at the base point."""


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


@dataclass
class MetricJet:
    """Pseudo-Hermitian metric coefficients as a jet matrix.

    The geometry pipeline of the metric (hinv -> gamma -> curv, and the
    Witt frame at the base point) is computed on first use and kept, so the
    holonomy, the Ricci check and the pp-wave checks of one metric share it.
    """

    n: int
    h: np.ndarray  # (n+2, n+2) object array of Jets, h[a][b] = h_{abar b}
    potential: Jet | None = None

    def __post_init__(self):
        """Refuse a metric or potential with a non-finite coefficient, in one
        pass over all of them: a jet product that overflows gives inf or nan
        without an error, and max() drops nan, so every residual of such a
        metric would read 0."""
        jets = list(self.h.flat) + ([self.potential] if self.potential is not None else [])
        coeffs = np.fromiter(chain.from_iterable(j.terms.values() for j in jets), complex)
        if not np.isfinite(coeffs).all():
            raise ValueError("the metric or its potential has a non-finite jet coefficient")

    @cached_property
    def hinv(self) -> np.ndarray:
        """h^{abar b}: the closed-form Walker inverse when it applies."""
        return walker_inverse(self) if self.is_walker() else generic_inverse(self)

    @cached_property
    def gamma(self) -> list[np.ndarray]:
        return christoffel(self)

    @cached_property
    def curv(self) -> list[list[np.ndarray]]:
        return curvature(self)

    @cached_property
    def frame0(self) -> np.ndarray:
        """The Witt frame at the base point, the only value of it that the
        holonomy reads: `witt_frame` of the constant part of h, with C the
        constant inverse square root of the h_{jbar k} block.  The identity
        for metrics not in the Walker form."""
        if not self.is_walker():
            return np.eye(self.dim, dtype=complex)
        n = self.n
        g0 = self.gram0()
        w, U = np.linalg.eigh(g0[1:n + 1, 1:n + 1])
        if w.size and w.min() <= 0:
            raise DegeneracyError("cannot build the frame factor C: the h_{jbar k} "
                                  "block is not positive definite")
        const = MetricJet(n, jmat_from_const(g0, JetSpace(self.dim, 0)))
        C = jmat_from_const((U / np.sqrt(w)) @ U.conj().T, const.space)
        return jmat_eval0(witt_frame(const, C))

    @property
    def dim(self) -> int:
        return self.n + 2

    @property
    def space(self) -> JetSpace:
        return jmat_space(self.h)

    @property
    def v(self) -> int:
        return 0

    @property
    def u(self) -> int:
        return self.n + 1

    def gram0(self) -> np.ndarray:
        return jmat_eval0(self.h)

    def hermitian_residual(self) -> float:
        worst = 0.0
        for a in range(self.dim):
            for b in range(self.dim):
                worst = max(worst, (self.h[a, b] - self.h[b, a].conjugate()).max_abs())
        return worst

    def kahler_residual(self) -> float:
        """max |d_a h_{bbar c} - d_c h_{bbar a}| over all index triples."""
        worst = 0.0
        for b in range(self.dim):
            for a in range(self.dim):
                for c in range(a + 1, self.dim):
                    diff = (self.h[b, a].derivative(c, holomorphic=True)
                            - self.h[b, c].derivative(a, holomorphic=True))
                    worst = max(worst, diff.max_abs())
        return worst

    # -- Walker (isotropic-line) normal form --------------------------------

    def _dependence_residual(self, jet: Jet, holo_allowed: set[int],
                             anti_allowed: set[int]) -> float:
        """The largest coefficient of a term in a variable outside the
        allowed ones: one AND per term with the forbidden fields."""
        every = set(range(self.dim))
        bad = field_mask(self.dim, every - holo_allowed, every - anti_allowed)
        return max((abs(c) for k, c in jet.terms.items() if k & bad), default=0.0)

    @cached_property
    def _walker(self) -> dict:
        n, v, u = self.n, self.v, self.u
        zs = set(range(1, n + 1))
        pattern = max([self.h[v, v].max_abs()]
                      + [self.h[v, k].max_abs() for k in zs]
                      + [self.h[k, v].max_abs() for k in zs])
        dep = 0.0
        # h_{vbar u}(vbar, zbar^l, u, ubar)
        dep = max(dep, self._dependence_residual(self.h[v, u], {u}, {v, u} | zs))
        # h_{jbar k}(z^l, zbar^l, u, ubar)
        for j in zs:
            for k in zs:
                dep = max(dep, self._dependence_residual(
                    self.h[j, k], {u} | zs, {u} | zs))
        # h_{kbar u}(vbar, z^l, zbar^l, u, ubar)
        for k in zs:
            dep = max(dep, self._dependence_residual(
                self.h[k, u], {u} | zs, {v, u} | zs))
        return {
            "pattern_residual": float(pattern),
            "dependence_residual": float(dep),
            "h_vbar_u_at_base": complex(self.h[v, u].constant_term()),
        }

    def walker_report(self) -> dict:
        """The Walker-form residuals of h, computed once per metric."""
        return dict(self._walker)

    def is_walker(self) -> bool:
        rep, tol = self._walker, DEFAULT_TOL.residual
        return (rep["pattern_residual"] <= tol
                and rep["dependence_residual"] <= tol
                and abs(rep["h_vbar_u_at_base"]) > tol)


def metric_from_potential(f: Jet) -> MetricJet:
    """h_{abar b} = d_{z^b} d_{zbar^a} f, checked for nondegeneracy at 0."""
    if not f.is_real_valued(DEFAULT_TOL.residual):
        raise ValueError("potential must be a real-valued jet")
    dim = f.num_coords
    if dim < 2:
        raise ValueError("need at least the v and u coordinates")
    if f.order < 2:
        raise InsufficientOrderError("potential order must be at least 2")
    h = np.empty((dim, dim), dtype=object)
    for b in range(dim):
        df = f.derivative(b, holomorphic=True)
        for a in range(dim):
            h[a, b] = df.derivative(a, holomorphic=False)
    m = MetricJet(dim - 2, h, potential=f)
    if abs(np.linalg.det(m.gram0())) < DEFAULT_TOL.residual:
        raise DegeneracyError("metric degenerate at the base point")
    return m


# ---------------------------------------------------------------------------
# inverse, Christoffels, curvature
# ---------------------------------------------------------------------------


def walker_inverse(m: MetricJet) -> np.ndarray:
    """Closed-form inverse for the isotropic-line normal form:
    hinv[a][b] = h^{abar b} with sum_a h^{abar b} h_{abar c} = delta^b_c."""
    if not m.is_walker():
        raise ValueError("metric is not in the isotropic-line normal form")
    n, v, u = m.n, m.v, m.u
    space = m.space
    hinv = jmat_zero((m.dim, m.dim), space)
    tilde = m.h[1:n + 1, 1:n + 1]
    # tilde-inverse with index convention sum_l tinv[l][k] tilde[l][j] = delta
    tinv = jmat_inverse(tilde).T.copy() if n else tilde
    hvu_inv = m.h[v, u].reciprocal()   # 1 / h_{vbar u}
    huv_inv = m.h[u, v].reciprocal()   # 1 / h_{ubar v}
    hinv[v, u] = hvu_inv
    hinv[u, v] = huv_inv
    for j in range(n):
        for k in range(n):
            hinv[1 + j, 1 + k] = tinv[j, k]
    for k in range(n):
        acc = space.zero()
        for j in range(n):
            acc = acc + m.h[1 + j, u] * tinv[j, k]
        hinv[v, 1 + k] = acc * hvu_inv * (-1.0)
        hinv[1 + k, v] = hinv[v, 1 + k].conjugate()
    acc = space.zero()
    for l in range(n):
        for j in range(n):
            acc = acc + m.h[1 + l, u] * tinv[l, j] * m.h[u, 1 + j]
    hinv[v, v] = (acc - m.h[u, u]) * (huv_inv * hvu_inv)
    return hinv


def generic_inverse(m: MetricJet) -> np.ndarray:
    """hinv from plain jet-matrix inversion (oracle for walker_inverse)."""
    return jmat_inverse(m.h).T.copy()


def inverse_residual(m: MetricJet) -> float:
    space = m.space
    res = jmat_add(jmat_mul(m.hinv.T.copy(), m.h),
                   jmat_scale(jmat_identity(m.dim, space), -1.0))
    return jmat_max_abs(res)


def christoffel(m: MetricJet) -> list[np.ndarray]:
    """Gamma[c][a][b] = Gamma^a_{bc} = sum_d h^{dbar a} d_c h_{dbar b}."""
    out = []
    hinv_t = m.hinv.T.copy()
    for c in range(m.dim):
        out.append(jmat_mul(hinv_t, jmat_derivative(m.h, c, holomorphic=True)))
    return out


def curvature(m: MetricJet) -> list[list[np.ndarray]]:
    """R[c][d][a][b] = R^a_{b c dbar} = -d_{zbar^d} Gamma^a_{bc}."""
    gamma = m.gamma
    out = []
    for c in range(m.dim):
        row = []
        for d in range(m.dim):
            row.append(jmat_scale(jmat_derivative(gamma[c], d, holomorphic=False), -1.0))
        out.append(row)
    return out


def covariant_derivative(xi: np.ndarray, gamma: list[np.ndarray], var: int,
                         holomorphic: bool = True) -> np.ndarray:
    """nabla_c xi = d_c xi + [Gamma_c, xi]; nabla_cbar xi = d_cbar xi."""
    d = jmat_derivative(xi, var, holomorphic)
    if not holomorphic:
        return d
    return jmat_add(d, jmat_commutator(gamma[var], xi))


def ricci(m: MetricJet) -> np.ndarray:
    """ric[d][b] = sum_a R^a_{b a dbar} (conjugate index first, as in h)."""
    curv = m.curv
    space = m.space
    out = jmat_zero((m.dim, m.dim), space)
    for d in range(m.dim):
        for b in range(m.dim):
            acc = space.zero()
            for a in range(m.dim):
                acc = acc + curv[a][d][a, b]
            out[d, b] = acc
    return out


# ---------------------------------------------------------------------------
# Witt frame
# ---------------------------------------------------------------------------


def witt_frame(m: MetricJet, C: np.ndarray | None = None) -> np.ndarray:
    """Frame p, e_1..e_n, q as jet-vector columns F[:, i]:

    p = (1/h_{ubar v}) d_v,
    e_j = C^k_j (d_{z^k} - (h_{ubar k}/h_{ubar v}) d_v),
    q = d_u - (h_{ubar u}/(2 h_{ubar v})) d_v.

    The v-coefficient of q carries a factor 1/2 relative to the e_j rule:
    this is what makes q isotropic for a real-valued h_{ubar u} (the Gram
    check below enforces it).  C defaults to the inverse Hermitian square
    root of the h_{jbar k} block.
    """
    if not m.is_walker():
        raise ValueError("metric is not in the isotropic-line normal form")
    n, v, u = m.n, m.v, m.u
    space = m.space
    huv_inv = m.h[u, v].reciprocal()
    if C is None and n > 0:
        tilde = m.h[1:n + 1, 1:n + 1]
        try:
            C = jmat_inverse(jmat_sqrt(tilde))
        except ValueError as exc:
            raise DegeneracyError(f"cannot build the frame factor C: {exc}") from exc
    F = jmat_zero((m.dim, m.dim), space)
    F[v, 0] = huv_inv
    for j in range(n):
        col_v = space.zero()
        for k in range(n):
            F[1 + k, 1 + j] = C[k, j]
            col_v = col_v + C[k, j] * m.h[u, 1 + k]
        F[v, 1 + j] = col_v * huv_inv * (-1.0)
    F[u, m.dim - 1] = space.constant(1.0)
    F[v, m.dim - 1] = m.h[u, u] * huv_inv * (-0.5)
    return F


def frame_gram_residual(m: MetricJet, F: np.ndarray) -> float:
    gram = jmat_mul(jmat_conj_transpose(F), jmat_mul(m.h, F))
    target = jmat_from_const(WittMetric(m.n).gram, m.space)
    return jmat_max_abs(jmat_add(gram, jmat_scale(target, -1.0)))


# ---------------------------------------------------------------------------
# infinitesimal holonomy
# ---------------------------------------------------------------------------


def radial_parallel_gauge(gamma: list[np.ndarray]) -> np.ndarray:
    """P with P(0) = id, parallel along radial directions: with
    W = sum_c z^c Gamma_c, the degree-d part solves
    d P_d = -sum_{0<i<=d} W_i P_{d-i} (antiholomorphic covariant
    derivatives are plain derivatives, so only holomorphic Gammas enter)."""
    space = jmat_space(gamma[0])
    W = jmat_scale(gamma[0], space.variable(0))
    for c in range(1, len(gamma)):
        W = jmat_add(W, jmat_scale(gamma[c], space.variable(c)))
    W = jmat_graded(W)
    P = [jmat_identity(len(gamma), space)]
    for d in range(1, space.order + 1):
        s = graded_sum(W, P, d, jmat_mul)
        P.append(None if s is None else jmat_scale(s, -1.0 / d))
    return jmat_from_graded(P)


@dataclass
class HolonomyResult:
    algebra: MatrixAlgebra
    dims_by_order: list[int]
    stabilized: bool
    complex_dim: int
    bracket_residual: float = 0.0


def _real_points(cbasis: list[np.ndarray]) -> list[np.ndarray]:
    cands = []
    for w in cbasis:
        s = sigma_involution(w)
        cands.append(w + s)
        cands.append(1j * (w - s))
    return real_span_basis([c for c in cands if np.abs(c).max() > DEFAULT_TOL.residual])


def infinitesimal_holonomy(m: MetricJet, r_max: int = 4) -> HolonomyResult:
    """Real span of all iterated covariant derivatives of the curvature
    endomorphisms at the base point, expressed in the Witt frame.

    The derivatives are read off as Taylor coefficients of the curvature in
    a radially parallel gauge; coefficients of total degree r correspond to
    derivative order r."""
    if r_max < 0:
        raise ValueError(f"r_max must be at least 0, not {r_max}")
    if m.space.order - 2 < r_max:
        raise InsufficientOrderError(
            f"jet order {m.space.order} cannot reach derivative order {r_max}; "
            f"rebuild the potential with order >= {r_max + 4}")
    Q = m.frame0
    Qinv = np.linalg.inv(Q)
    # Only degrees <= r_max of P^{-1} R P are read, and each of them is the
    # same sum over the same terms when Gamma, P and R stop at r_max.
    P = radial_parallel_gauge([jmat_truncated(g, r_max) for g in m.gamma])
    Pinv = jmat_inverse(P)
    coeffs_by_deg: dict[int, list[np.ndarray]] = {r: [] for r in range(r_max + 1)}
    for c in range(m.dim):
        for d in range(m.dim):
            M = jmat_mul(Pinv, jmat_mul(jmat_truncated(m.curv[c][d], r_max), P))
            table: dict = {}
            for idx in np.ndindex(*M.shape):
                for key, val in M[idx].terms.items():
                    if key & MASK <= r_max:
                        table.setdefault(key, np.zeros((m.dim, m.dim), complex))[idx] = val
            for key, mat in table.items():
                coeffs_by_deg[key & MASK].append(Qinv @ mat @ Q)

    dims = []
    cbasis_rows = np.zeros((0, m.dim * m.dim), complex)
    scale = max((np.abs(w).max() for ws in coeffs_by_deg.values() for w in ws),
                default=1.0)
    noise = DEFAULT_TOL.coeff_zero * scale
    for r in range(r_max + 1):
        rows = [w.ravel() / scale for w in coeffs_by_deg[r] if np.abs(w).max() > noise]
        cbasis_rows = row_space(np.vstack([cbasis_rows, *rows]))
        dims.append(len(cbasis_rows))
    cbasis = [row.reshape(m.dim, m.dim) for row in cbasis_rows]
    real_basis = _real_points(cbasis)
    alg = MatrixAlgebra(m.n, real_basis)
    stabilized = len(dims) >= 2 and dims[-1] == dims[-2]
    return HolonomyResult(
        algebra=alg,
        dims_by_order=dims,
        stabilized=stabilized,
        complex_dim=len(cbasis),
        bracket_residual=alg.bracket_residual(),
    )


def iterated_covariant_span(m: MetricJet, r_max: int) -> list[np.ndarray]:
    """Direct breadth-first computation of the same span (oracle for the
    radial-gauge method; exponential in r_max, use small cases only)."""
    Q = m.frame0
    Qinv = np.linalg.inv(Q)
    level = [m.curv[c][d] for c in range(m.dim) for d in range(m.dim)]
    collected = [Qinv @ jmat_eval0(xi) @ Q for xi in level]
    for _ in range(r_max):
        nxt = []
        for xi in level:
            for var in range(m.dim):
                for holo in (True, False):
                    nxt.append(covariant_derivative(xi, m.gamma, var, holo))
        level = nxt
        collected.extend(Qinv @ jmat_eval0(xi) @ Q for xi in level)
    rows = np.array([w.ravel() for w in collected
                     if np.abs(w).max() > DEFAULT_TOL.coeff_zero])
    return [row.reshape(m.dim, m.dim) for row in row_space(rows)]


# ---------------------------------------------------------------------------
# pp-waves
# ---------------------------------------------------------------------------


@dataclass
class PPWaveReport:
    parallel_p: bool
    cond1_holonomy: bool
    cond2_real_curvature: bool
    cond3_mixed_curvature: bool
    cond4_coefficients: bool
    cond5_potential: bool | None
    residuals: dict = field(default_factory=dict)

    @property
    def flags(self) -> list[bool]:
        out = [self.cond1_holonomy, self.cond2_real_curvature,
               self.cond3_mixed_curvature, self.cond4_coefficients]
        if self.cond5_potential is not None:
            out.append(self.cond5_potential)
        return out

    @property
    def consistent(self) -> bool:
        """The five conditions are equivalent only when p is parallel; with
        the hypothesis broken, any flag pattern is admissible."""
        if not self.parallel_p:
            return True
        return len(set(self.flags)) == 1

    @property
    def is_ppwave(self) -> bool:
        return self.parallel_p and all(self.flags)


def ppwave_check(m: MetricJet, r_max: int = 3) -> PPWaveReport:
    """The equivalent pp-wave conditions, each computed independently."""
    n, v, u, tol = m.n, m.v, m.u, DEFAULT_TOL.residual
    res: dict = {}

    worst_p = 0.0
    for c in range(m.dim):
        for b in range(m.dim):
            worst_p = max(worst_p, m.gamma[c][b, v].max_abs())
    res["parallel_p_residual"] = float(worst_p)
    parallel_p = worst_p <= tol

    hol = infinitesimal_holonomy(m, r_max=r_max)
    worst1 = 0.0
    for b in hol.algebra.basis:
        try:
            el = ABZCElement.from_matrix(b)
            worst1 = max(worst1, abs(el.a), np.abs(el.A).max(initial=0.0))
        except ValueError:
            worst1 = max(worst1, 1.0)
    res["holonomy_translation_residual"] = float(worst1)
    cond1 = worst1 <= tol

    curv = m.curv
    worst2 = worst3 = 0.0
    for c in range(n + 1):
        for d in range(n + 1):
            mixed = curv[c][d]
            skew = jmat_add(curv[c][d], jmat_scale(curv[d][c], -1.0))
            symm = jmat_add(curv[c][d], curv[d][c])
            worst3 = max(worst3, jmat_max_abs(mixed))
            worst2 = max(worst2, jmat_max_abs(skew), jmat_max_abs(symm))
    res["real_curvature_residual"] = float(worst2)
    res["mixed_curvature_residual"] = float(worst3)
    cond2 = worst2 <= tol
    cond3 = worst3 <= tol

    worst4 = m.walker_report()["pattern_residual"]
    worst4 = max(worst4, (m.h[v, u] - 1.0).max_abs())
    delta = np.eye(n)
    for j in range(n):
        for k in range(n):
            worst4 = max(worst4, (m.h[1 + j, 1 + k] - delta[j, k]).max_abs())
    zs = set(range(1, n + 1))
    for k in range(n):
        worst4 = max(worst4, m._dependence_residual(m.h[1 + k, u], {u}, {u} | zs))
        huu_jk = (m.h[u, u].derivative(1 + k, holomorphic=True))
        for j in range(n):
            worst4 = max(worst4, huu_jk.derivative(1 + j, holomorphic=False).max_abs())
    res["coefficient_residual"] = float(worst4)
    cond4 = worst4 <= tol

    cond5 = None
    if m.potential is not None:
        worst5 = _ppwave_potential_residual(m.potential, n)
        res["potential_residual"] = float(worst5)
        cond5 = worst5 <= tol

    return PPWaveReport(parallel_p, cond1, cond2, cond3, cond4, cond5, res)


def _ppwave_potential_residual(f: Jet, n: int) -> float:
    """Distance of f from the template ubar v + vbar u + sum |z|^2
    + Re(phi(z, u, ubar)): every other coefficient must vanish."""
    dim, v, u = n + 2, 0, n + 1
    zs = range(1, n + 1)
    z, zb = (lambda i: var_key(dim, i)), (lambda i: var_key(dim, i, False))
    ones = {z(v) + zb(u), z(u) + zb(v), *(z(k) + zb(k) for k in zs)}
    # phi(z, u, ubar) or its conjugate: no v, and z on one side only
    holo_phi = field_mask(dim, [v], [v, *zs])
    anti_phi = field_mask(dim, [v, *zs], [v])
    worst = 0.0
    for k, c in f.terms.items():
        if k in ones:
            worst = max(worst, abs(c - 1.0))
        elif k & holo_phi and k & anti_phi:
            worst = max(worst, abs(c))
    return worst
