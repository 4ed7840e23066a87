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
from .jets import (MASK, InsufficientOrderError, Jet, JetSpace, field_mask, graded_solve,
                   table_from_parts, table_mul, table_parts, table_scaled, var_key)
from .jetmat import (
    jmat_conj_transpose,
    jmat_derivative,
    jmat_eval0,
    jmat_from_const,
    jmat_identity,
    jmat_inverse,
    jmat_max_abs,
    jmat_mul,
    jmat_space,
    jmat_sqrt,
    jmat_truncated,
    jmat_zero,
)
from .hermitian import WittMetric
from .lie import (
    MatrixAlgebra,
    abzc_parts,
    numerical_rank,
    parabolic_mask,
    real_span_basis,
    row_space,
    sigma_involution,
)


class DegeneracyError(ValueError):
    """The metric is degenerate at the base point."""


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


@dataclass
class MetricJet:
    """Pseudo-Hermitian metric coefficients as a jet matrix.

    The geometry pipeline of the metric (gamma -> curv, and the Witt frame
    at the base point) is computed on first use and kept, so the holonomy,
    the Ricci check and the pp-wave checks of one metric share it.
    """

    n: int
    h: np.ndarray  # (n+2, n+2) object array of Jets, h[a][b] = h_{abar b}
    potential: Jet | None = None

    def __post_init__(self):
        """Refuse an h whose entries differ in jet space (`jmat_space`), and a
        metric or potential with a non-finite coefficient, in one pass over
        all of them: a jet product that overflows gives inf or nan without
        an error, and max() drops nan, so every residual of such a metric
        would read 0."""
        jmat_space(self.h)
        jets = list(self.h.flat) + ([self.potential] if self.potential is not None else [])
        coeffs = np.fromiter(chain.from_iterable(j.terms.values() for j in jets), complex)
        if not np.isfinite(coeffs).all():
            raise ValueError("the metric or its potential has a non-finite jet coefficient")

    def inverse(self, order: int | None = None) -> np.ndarray:
        """h^{abar b} to the given order (default the metric's): the
        closed-form Walker inverse when the full metric is in Walker form,
        else plain jet inversion."""
        return (walker_inverse if self.is_walker() else generic_inverse)(self, order)

    @cached_property
    def gamma(self) -> list[np.ndarray]:
        return christoffel(self)

    @cached_property
    def curv(self) -> list[list[np.ndarray]]:
        return curvature(self)

    def connection(self, r_max: int) -> tuple[list[np.ndarray], list[list[np.ndarray]]]:
        """Gamma to degree r_max + 1 and R to r_max, all that a holonomy
        span to r_max reads: the cached full `gamma` and `curv` when Gamma is
        cached already or the metric reaches no higher, else both built cut
        and not cached."""
        if "gamma" in vars(self) or self.space.order <= r_max + 2:
            return self.gamma, self.curv
        gamma = christoffel(self, r_max + 1)
        return gamma, curvature(self, gamma)

    @cached_property
    def curv0(self) -> np.ndarray:
        """R(0)[c, d] = R^a_{b c dbar} at the base point, read from the 2-jet
        of h alone.  With H = (h_{abar b}) and X = H(0)^-1, R_cd =
        -d_dbar(H^-1 d_c H) gives R(0)_cd = -(X d_c d_dbar H(0)
        - X d_dbar H(0) X d_c H(0)); the derivatives at 0 are the z^c,
        zbar^d and z^c zbar^d coefficients of the entries of h.  The values
        of jmat_eval0 of `curv` to rounding, without Gamma or the inverse."""
        dim = self.dim
        holo = [var_key(dim, c) for c in range(dim)]
        anti = [var_key(dim, d, False) for d in range(dim)]
        keys = [0, *holo, *anti, *(kc + kd for kc in holo for kd in anti)]
        # the coefficient of each key in each entry, one (dim, dim) matrix per key
        at0 = np.array([[jet.terms.get(k, 0.0) for k in keys] for jet in self.h.flat],
                       complex).T.reshape(len(keys), dim, dim)
        X = np.linalg.inv(at0[0])
        dc = X @ at0[1:dim + 1]
        dd = X @ at0[dim + 1:2 * dim + 1]
        dcd = (X @ at0[2 * dim + 1:]).reshape(dim, dim, dim, dim)
        return dd[None] @ dc[:, None] - dcd

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

    def require_walker(self) -> None:
        """The one-line refusal of a metric outside the Walker form."""
        if not self.is_walker():
            raise ValueError("metric is not in the isotropic-line normal form")


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


def _truncated_h(m: MetricJet, order: int | None) -> np.ndarray:
    """h cut to the order, or all of it when the order is None."""
    return m.h if order is None else jmat_truncated(m.h, order)


def walker_inverse(m: MetricJet, order: int | None = None) -> np.ndarray:
    """Closed-form inverse for the isotropic-line normal form:
    hinv[a][b] = h^{abar b} with sum_a h^{abar b} h_{abar c} = delta^b_c,
    from h cut to the order (default the metric's).  Every product filters
    its pairs by degree, so each coefficient up to that order has the bits
    and the key order it has in the full inverse."""
    m.require_walker()
    n, v, u = m.n, m.v, m.u
    h = _truncated_h(m, order)
    space = jmat_space(h)
    hinv = jmat_zero((m.dim, m.dim), space)
    tilde = h[1:n + 1, 1:n + 1]
    # tilde-inverse with index convention sum_l tinv[l][k] tilde[l][j] = delta
    tinv = jmat_inverse(tilde).T.copy() if n else tilde
    hvu_inv = h[v, u].reciprocal()   # 1 / h_{vbar u}
    huv_inv = h[u, v].reciprocal()   # 1 / h_{ubar v}
    hinv[v, u] = hvu_inv
    hinv[u, v] = huv_inv
    for j in range(n):
        for k in range(n):
            hinv[1 + j, 1 + k] = tinv[j, k]
    # the row (h_{jbar u})_j times tinv
    row = jmat_mul(h[None, 1:n + 1, u], tinv)
    for k in range(n):
        hinv[v, 1 + k] = row[0, k] * hvu_inv * (-1.0)
        hinv[1 + k, v] = hinv[v, 1 + k].conjugate()
    acc = space.zero()
    for l in range(n):
        for j in range(n):
            acc = acc + h[1 + l, u] * tinv[l, j] * h[u, 1 + j]
    hinv[v, v] = (acc - h[u, u]) * (huv_inv * hvu_inv)
    return hinv


def generic_inverse(m: MetricJet, order: int | None = None) -> np.ndarray:
    """hinv from plain jet-matrix inversion of h cut to the order (oracle
    for walker_inverse)."""
    return jmat_inverse(_truncated_h(m, order)).T.copy()


def inverse_residual(m: MetricJet) -> float:
    return jmat_max_abs(jmat_mul(m.inverse().T.copy(), m.h) - jmat_identity(m.dim, m.space))


def christoffel(m: MetricJet, order: int | None = None) -> list[np.ndarray]:
    """Gamma[c][a][b] = Gamma^a_{bc} = sum_d h^{dbar a} d_c h_{dbar b}, to
    the order (default one less than the metric's, the most d_c h has).

    d_c h of h cut to order + 1 has that order, so the product reads no
    term of the inverse above it, and the inverse is built only up to it:
    the same coefficients, bit for bit, as from the full `inverse()`.  The
    derivatives come first, so a metric of order 0 stops at them."""
    order = m.space.order - 1 if order is None else order
    dh = [jmat_derivative(_truncated_h(m, order + 1), c, holomorphic=True) for c in range(m.dim)]
    hinv_t = m.inverse(order).T.copy()
    return [jmat_mul(hinv_t, d) for d in dh]


def curvature(m: MetricJet, gamma: list[np.ndarray] | None = None) -> list[list[np.ndarray]]:
    """R[c][d][a][b] = R^a_{b c dbar} = -d_{zbar^d} Gamma^a_{bc}, of the
    given Gamma (default the metric's)."""
    return [[jmat_derivative(g, d, holomorphic=False, factor=-1.0) for d in range(m.dim)]
            for g in (m.gamma if gamma is None else gamma)]


def covariant_derivative(xi: np.ndarray, gamma: list[np.ndarray], var: int,
                         holomorphic: bool = True) -> np.ndarray:
    """nabla_c xi = d_c xi + [Gamma_c, xi]; nabla_cbar xi = d_cbar xi."""
    d = jmat_derivative(xi, var, holomorphic)
    if not holomorphic:
        return d
    return d + (jmat_mul(gamma[var], xi) - jmat_mul(xi, gamma[var]))


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
    m.require_walker()
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
    if n:
        F[1:n + 1, 1:n + 1] = C
        # C^T times the column (h_{ubar k})_k, as F[v, j]
        col_v = jmat_mul(C.T, m.h[u, 1:n + 1, None])
        for j in range(n):
            F[v, 1 + j] = col_v[j, 0] * huv_inv * (-1.0)
    F[u, m.dim - 1] = space.constant(1.0)
    F[v, m.dim - 1] = m.h[u, u] * huv_inv * (-0.5)
    return F


def frame_gram_residual(m: MetricJet, F: np.ndarray) -> float:
    gram = jmat_mul(jmat_conj_transpose(F), jmat_mul(m.h, F))
    return jmat_max_abs(gram - jmat_from_const(WittMetric(m.n).gram, m.space))


# ---------------------------------------------------------------------------
# infinitesimal holonomy
# ---------------------------------------------------------------------------


def radial_parallel_gauge(gamma: list[np.ndarray], r_max: int) -> tuple[dict, dict]:
    """The term tables of P and P^-1 to degree r_max, with P(0) = id and P
    parallel along radial directions: with W = sum_c z^c Gamma_c, the
    degree-d part solves d P_d = -sum_{0<i<=d} W_i P_{d-i} (antiholomorphic
    covariant derivatives are plain derivatives, so only holomorphic Gammas
    enter), and P^-1 is the graded inverse of P, whose P_0 is id.

    W is one table product to degree r_max: the entries (i, j) of the Gamma_c
    as rows, c as columns, times the column of the z^c.  So it reads no
    Gamma term of degree >= r_max."""
    dim = len(gamma)
    stack = {(i * dim + j, c): jet.terms for c, g in enumerate(gamma)
             for (i, j), jet in np.ndenumerate(g) if jet.terms}
    zs = {(c, 0): {var_key(dim, c): 1.0 + 0.0j} for c in range(dim)}
    W = {divmod(e, dim): t for (e, _), t in table_mul(stack, zs, r_max).items()}
    P = graded_solve(table_parts(W, r_max), [{(i, i): {0: 1.0 + 0.0j} for i in range(dim)}],
                     r_max, lambda d, s: table_scaled(s, complex(-1.0 / d)))
    # P_0 = I, so P^-1's step, the left product by -I, is 0.0 + (-1-0j) * c
    minus_one = complex(-1.0, -0.0)
    Pinv = graded_solve(P, [P[0]], r_max, lambda d, s: {
        e: {k: 0.0 + minus_one * c for k, c in t.items()} for e, t in s.items()})
    return table_from_parts(P), table_from_parts(Pinv)


@dataclass
class HolonomyResult:
    algebra: MatrixAlgebra
    dims_by_order: list[int]
    stabilized: bool
    complex_dim: int
    bracket_residual: float = 0.0


def _real_points(W: np.ndarray) -> list[np.ndarray]:
    """The real span of w + sigma(w) and i(w - sigma(w)) over a stack W of
    complex basis matrices, both candidates of each w in turn, those at most
    residual left out."""
    S = sigma_involution(W)
    cands = np.stack([W + S, 1j * (W - S)], axis=1).reshape(-1, *W.shape[1:])
    return real_span_basis(cands[np.abs(cands).max(axis=(1, 2)) > DEFAULT_TOL.residual])


def _holonomy_result(n: int, cbasis: np.ndarray, dims: list[int]) -> HolonomyResult:
    """The result of a stack of complex span basis matrices and its
    dimensions by order: the span is called stabilized when its last two
    dimensions agree."""
    alg = MatrixAlgebra(n, _real_points(cbasis))
    return HolonomyResult(
        algebra=alg,
        dims_by_order=dims,
        stabilized=len(dims) >= 2 and dims[-1] == dims[-2],
        complex_dim=len(cbasis),
        bracket_residual=alg.bracket_residual(),
    )


def check_holonomy_input(m: MetricJet, r_max: int) -> None:
    """The one-line refusals of `infinitesimal_holonomy`, before any stage
    is built: a metric outside the Walker form, a negative r_max, and a jet
    order that cannot reach r_max."""
    m.require_walker()
    if r_max < 0:
        raise ValueError(f"r_max must be at least 0, not {r_max}")
    if m.space.order - 2 < r_max:
        raise InsufficientOrderError(
            f"jet order {m.space.order} cannot reach derivative order {r_max}; "
            f"rebuild the potential with order >= {r_max + 4}")


def infinitesimal_holonomy(m: MetricJet, r_max: int = 4) -> HolonomyResult:
    """Real span of all iterated covariant derivatives of the curvature
    endomorphisms at the base point, expressed in the Witt frame.

    The derivatives are read off as Taylor coefficients of the curvature in
    a radially parallel gauge; coefficients of total degree r correspond to
    derivative order r (`_holonomy_span`).

    A metric in Walker form has a parallel null line, spanned by p = d_v up
    to scale, so its holonomy lies in the stabilizer of that line,
    u(1,n+1)_Cp, the parabolic block pattern in the Witt frame.  The
    curvature values at the base point already lie in the holonomy algebra
    (Ambrose-Singer; Kobayashi-Nomizu I, ch. II 10), so when the values of
    `MetricJet.curv0` alone span the pattern's D = (n+1)^2 + 2 complex
    dimensions, no derivative can add to the span at any order: the result
    is the whole pattern, with D at every order, and neither Gamma, nor R,
    nor the gauge is built.  The values pass the span's own noise and rank
    rule (coeff_zero relative to the largest of them, then the rank rule);
    when they fall short, the full span decides.  A metric outside the
    Walker form has no such pattern for sigma to read, and is refused
    before anything is built."""
    check_holonomy_input(m, r_max)
    mask = parabolic_mask(m.n)
    D = int(mask.sum())
    if _spans_the_ambient(m, D):
        units = np.zeros((D, *mask.shape), complex)
        units[(np.arange(D), *np.nonzero(mask))] = 1.0
        return _holonomy_result(m.n, units, [D] * (r_max + 1))
    return _holonomy_span(m, r_max)


def _spans_the_ambient(m: MetricJet, D: int) -> bool:
    """Whether the curvature values at the base point in the Witt frame have
    complex rank D, each value at most coeff_zero times the largest one
    left out; fewer than D values left need no SVD.  The frame comes first:
    a Walker metric that passes it has an invertible h(0)."""
    Q, dim = m.frame0, m.dim
    rows = (np.linalg.inv(Q) @ m.curv0.reshape(-1, dim, dim) @ Q).reshape(-1, dim * dim)
    size = np.abs(rows).max(axis=1)
    rows = rows[size > DEFAULT_TOL.coeff_zero * size.max()]
    return len(rows) >= D and numerical_rank(np.linalg.svd(rows, compute_uv=False)) == D


def _holonomy_span(m: MetricJet, r_max: int) -> HolonomyResult:
    """The span of the Taylor coefficients of P^-1 R_cd P up to degree
    r_max, with P the radially parallel gauge, degree by degree, on term
    tables: every coefficient has the bits of the jet-matrix route
    (tests/test_geometry.py, tests/test_jetmat.py)."""
    Q = m.frame0
    Qinv = np.linalg.inv(Q)
    dim = m.dim
    # Only degrees <= r_max of P^{-1} R P are read, and each of them is the
    # same sum over the same terms when Gamma, P and R stop at r_max.
    gamma, curv = m.connection(r_max)
    P, Pinv = radial_parallel_gauge(gamma, r_max)
    # the non-zero blocks R_cd cut to r_max, stacked vertically: a zero
    # block conjugates to zero and adds no coefficient
    blocks = [{divmod(e, dim): t for e, jet in enumerate(R.flat)
               if (t := {k: v for k, v in jet.terms.items() if k & MASK <= r_max})}
              for row in curv for R in row]
    blocks = [block for block in blocks if block]
    stack = {(b * dim + i, j): t for b, block in enumerate(blocks) for (i, j), t in block.items()}
    # P^-1 R P for every block from one product per side: the stack times
    # P, then P^-1 times the products laid side by side
    RP = table_mul(stack, P, r_max)
    side = {(r % dim, r - r % dim + j): terms for (r, j), terms in RP.items()}
    conj = table_mul(Pinv, side, r_max)
    # every coefficient matrix as a row, block by block and in each block
    # one slot per key in order of first appearance (entries in C order,
    # then dict order), with its degree; one stacked conjugation by Q
    slots, cells, vals, degs = [], [], [], []
    for b in range(len(blocks)):
        slot: dict = {}
        for cell in range(dim * dim):
            i, j = divmod(cell, dim)
            for key, val in conj.get((i, b * dim + j), {}).items():
                slots.append(len(degs) + slot.setdefault(key, len(slot)))
                cells.append(cell)
                vals.append(val)
        degs += [key & MASK for key in slot]
    mats = np.zeros((len(degs), dim * dim), complex)
    mats[slots, cells] = vals
    rows = (Qinv @ mats.reshape(-1, dim, dim) @ Q).reshape(len(degs), dim * dim)
    span, dims = _span_by_degree(rows, np.array(degs, int), r_max)
    return _holonomy_result(m.n, span.reshape(-1, dim, dim), dims)


def _span_by_degree(rows: np.ndarray, degs: np.ndarray,
                    r_max: int) -> tuple[np.ndarray, list[int]]:
    """The orthonormal span of the complex coefficient rows of degree <= r_max
    and its dimension after each degree.  A row at most coeff_zero times the
    largest one is noise; the others enter scaled by the largest, each
    degree's rows in their order after the span so far."""
    size = np.abs(rows).max(axis=1)
    scale = size.max() if size.size else 1.0
    keep = size > DEFAULT_TOL.coeff_zero * scale
    rows, degs = rows[keep] / scale, degs[keep]
    dims, span = [], rows[:0]
    for r in range(r_max + 1):
        span = row_space(np.vstack([span, rows[degs == r]]))
        dims.append(len(span))
    return span, dims


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


def ppwave_check(m: MetricJet, r_max: int = 3) -> PPWaveReport:
    """The equivalent pp-wave conditions, each computed independently.  A
    metric outside the Walker form is refused before any stage of it is
    built."""
    m.require_walker()
    n, v, u, tol = m.n, m.v, m.u, DEFAULT_TOL.residual
    res: dict = {}

    worst_p = 0.0
    for c in range(m.dim):
        for b in range(m.dim):
            worst_p = max(worst_p, m.gamma[c][b, v].max_abs())
    res["parallel_p_residual"] = float(worst_p)
    parallel_p = worst_p <= tol

    hol = infinitesimal_holonomy(m, r_max=r_max)
    # the largest |a| and |A| of the basis elements; 1.0 off the pattern,
    # which no entry of an orthonormal element exceeds
    basis = np.array(hol.algebra.basis).reshape(-1, m.dim, m.dim)
    try:
        a, A, _, _ = abzc_parts(basis)
        worst1 = max(np.abs(a).max(initial=0.0), np.abs(A).max(initial=0.0))
    except ValueError:
        worst1 = 1.0
    res["holonomy_translation_residual"] = float(worst1)
    cond1 = worst1 <= tol

    curv = m.curv
    worst2 = worst3 = 0.0
    for c in range(n + 1):
        for d in range(n + 1):
            worst3 = max(worst3, jmat_max_abs(curv[c][d]))
            worst2 = max(worst2, _skew_and_sum_max_abs(curv[c][d], curv[d][c]))
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


def _skew_and_sum_max_abs(X: np.ndarray, Y: np.ndarray) -> float:
    """The largest coefficient of X - Y and of X + Y, for jet matrices of one
    order, read from the term dicts: |x - y| and |x + y| over the keys of
    either side, 0.0 where a side has none.  abs cannot see the sign of a
    zero, so this is the max_abs of X - Y and X + Y."""
    worst = 0.0
    for x, y in zip(X.flat, Y.flat):
        a, b = x.terms, y.terms
        for k in a.keys() | b.keys():
            c, e = a.get(k, 0.0), b.get(k, 0.0)
            worst = max(worst, abs(c - e), abs(c + e))
    return worst


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
