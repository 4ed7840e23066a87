"""Symmetric spaces from holonomy data: the transvection algebra
h = g + m with [X, Y] = -R(X, Y), the six canonical families, and the
Jacobi / Ricci / Calabi-Yau reports.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL
from .curvspace import CurvatureMap, ricci_of_map
from .lie import (MatrixAlgebra, in_real_span, real_span_basis, sigma_involution, span_coords,
                  span_residual)


@dataclass
class SymmetricPair:
    """Holonomy algebra g together with a candidate curvature value R."""

    n: int
    g: MatrixAlgebra
    R: CurvatureMap

    @property
    def dim(self) -> int:
        return self.n + 2

    def real_curvature(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """R(X, Y) for real tangent vectors represented by x, y in C^{n+2}:
        R(x, conj y) - R(y, conj x)."""
        rho = self.R.rho
        first = np.einsum("i,j,ijab->ab", x, np.conj(y), rho)
        second = np.einsum("i,j,ijab->ab", y, np.conj(x), rho)
        return first - second

    def curvature_image(self) -> list[np.ndarray]:
        """Real span of R(m, m)."""
        vals = []
        basis = self._m_basis()
        for i, x in enumerate(basis):
            for y in basis[i + 1:]:
                w = self.real_curvature(x, y)
                if np.abs(w).max() > DEFAULT_TOL.coeff_zero:
                    vals.append(w)
        return real_span_basis(vals)

    def _m_basis(self) -> list[np.ndarray]:
        eye = np.eye(self.dim, dtype=complex)
        return [eye[:, k] for k in range(self.dim)] + \
               [1j * eye[:, k] for k in range(self.dim)]

    def invariant_residual(self) -> float:
        """Curvature-map invariants plus: image inside g, and g-invariance
        of R (the mixed Jacobi identity)."""
        worst = self.R.invariant_residual()
        for w in self.curvature_image():
            worst = max(worst, span_residual(w, self.g.basis))
        # g-invariance: [A, R(X,Y)] = R(AX, Y) + R(X, AY)
        basis = self._m_basis()
        for A in self.g.basis:
            for i, x in enumerate(basis):
                for y in basis[i + 1:]:
                    lhs = A @ self.real_curvature(x, y) - self.real_curvature(x, y) @ A
                    rhs = self.real_curvature(A @ x, y) + self.real_curvature(x, A @ y)
                    worst = max(worst, np.abs(lhs - rhs).max())
        return float(worst)


class InvalidPairError(ValueError):
    """The (g, R) data does not define a Lie algebra."""


@dataclass
class TransvectionAlgebra:
    """h = g + m with structure constants on the basis
    (g_1..g_k, b_0..b_{N-1}, i b_0..i b_{N-1})."""

    pair: SymmetricPair
    dim: int
    table: np.ndarray          # (dim, dim, dim) real structure constants
    jacobi_residual: float
    g_equals_image: bool
    image_dim: int


def build_transvection(pair: SymmetricPair) -> TransvectionAlgebra:
    inv = pair.invariant_residual()
    if inv > DEFAULT_TOL.rank_abs:
        raise InvalidPairError(f"pair invariants violated: residual {inv:.2e}")
    gb = pair.g.basis
    mb = pair._m_basis()
    k, N2 = len(gb), len(mb)
    dim = k + N2

    def g_coords(w: np.ndarray) -> np.ndarray:
        coef, res = span_coords(w, gb)
        if res > DEFAULT_TOL.rank_abs:
            raise InvalidPairError("curvature image escapes g")
        return coef

    table = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            if i < k and j < k:
                w = gb[i] @ gb[j] - gb[j] @ gb[i]
                out = np.concatenate([g_coords(w), np.zeros(N2)])
            elif i < k <= j:
                x = gb[i] @ mb[j - k]
                out = np.concatenate([np.zeros(k), span_coords(x, mb)[0]])
            else:
                w = -pair.real_curvature(mb[i - k], mb[j - k])
                out = np.concatenate([g_coords(w), np.zeros(N2)])
            table[i, j] = out
            table[j, i] = -out

    jac = 0.0
    for i in range(dim):
        for j in range(i + 1, dim):
            for l in range(j + 1, dim):
                # [[i,j],l] + [[j,l],i] + [[l,i],j]
                t1 = np.einsum("a,ab->b", table[i, j], table[:, l])
                t2 = np.einsum("a,ab->b", table[j, l], table[:, i])
                t3 = np.einsum("a,ab->b", table[l, i], table[:, j])
                jac = max(jac, float(np.abs(t1 + t2 + t3).max()))
    if jac > DEFAULT_TOL.residual:
        raise InvalidPairError(f"Jacobi identity fails: residual {jac:.2e}")

    image = pair.curvature_image()
    g_eq = len(image) == pair.g.dim and all(
        in_real_span(w, pair.g.basis) for w in image)
    return TransvectionAlgebra(pair, dim, table, jac, g_eq, len(image))


# ---------------------------------------------------------------------------
# canonical families
# ---------------------------------------------------------------------------


def _corner(N: int, val: complex) -> np.ndarray:
    w = np.zeros((N, N), dtype=complex)
    w[0, N - 1] = val
    return w


def _rho_from_entries(n: int, entries: list[tuple[int, int, np.ndarray]]) -> CurvatureMap:
    """Assemble rho from the listed nonzero values R^{1,0}(b_i, conj b_j);
    all unlisted pairs are zero except those implied by the reality
    condition rho_ji = -sigma(rho_ij)."""
    N = n + 2
    rho = np.zeros((N, N, N, N), dtype=complex)
    for i, j, w in entries:
        rho[i, j] = w
    for i, j, w in entries:
        if i != j:
            implied = -sigma_involution(w)
            if np.abs(rho[j, i]).max() == 0:
                rho[j, i] = implied
    return CurvatureMap(n, rho)


def canonical_pair(family: str, n: int = 0, m: int = 0) -> SymmetricPair:
    """The six symmetric pairs; b) and e) are the negations of a) and d)."""
    family = family.lower()
    if family in ("a", "b"):
        if n != 0:
            raise ValueError("families a, b require n = 0")
        g = MatrixAlgebra(0, [np.array([[0, 1j], [0, 0]], dtype=complex)])
        R = _rho_from_entries(0, [(1, 1, _corner(2, 1.0))])
        if family == "b":
            R = CurvatureMap(0, -R.rho)
        return SymmetricPair(0, g, R)
    if family == "c":
        if n != 0:
            raise ValueError("family c requires n = 0")
        g = MatrixAlgebra(0, [np.diag([1.0, -1.0]).astype(complex),
                              np.diag([1j, 1j])])
        w = np.diag([1.0, 0.0]).astype(complex)
        R = _rho_from_entries(0, [(0, 1, w)])
        return SymmetricPair(0, g, R)
    if family in ("d", "e"):
        if n != 1:
            raise ValueError("families d, e require n = 1")
        x_gen = np.array([[0, -1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
        c_gen = _corner(3, 1j)
        g = MatrixAlgebra(1, [x_gen, c_gen])
        r_eq = np.zeros((3, 3), dtype=complex)
        r_eq[0, 2] = -1j
        r_qq = np.zeros((3, 3), dtype=complex)
        r_qq[0, 1] = -1j
        r_qq[1, 2] = 1j
        R = _rho_from_entries(1, [(1, 2, r_eq), (2, 2, r_qq)])
        if family == "e":
            R = CurvatureMap(1, -R.rho)
        return SymmetricPair(1, g, R)
    if family == "f":
        if n < 1 or not 0 <= m <= n:
            raise ValueError("family f requires n >= 1 and 0 <= m <= n")
        N = n + 2
        basis = []
        a_gen = np.zeros((N, N), dtype=complex)
        a_gen[0, 0] = a_gen[N - 1, N - 1] = 2j
        for j in range(1, m + 1):
            a_gen[j, j] = 1j
        for k in range(m + 1, n + 1):
            a_gen[k, k] = 2j
        basis.append(a_gen)
        basis.append(_corner(N, 1j))
        for j in range(1, m + 1):
            for vec in (1.0, 1j):
                t = np.zeros((N, N), dtype=complex)
                t[j, N - 1] = vec
                t[0, j] = -np.conj(vec)
                basis.append(t)
        for k in range(m + 1, n + 1):
            t = np.zeros((N, N), dtype=complex)
            t[k, N - 1] = 1.0
            t[0, k] = -1.0
            basis.append(t)
        g = MatrixAlgebra(n, basis)

        q = N - 1
        entries = [(0, q, _corner(N, 1.0))]
        for j in range(1, m + 1):
            entries.append((j, j, _corner(N, 0.5)))
            t = np.zeros((N, N), dtype=complex)
            t[j, q] = 0.5
            entries.append((j, q, t))
        # The exchange identity forces R(e_k, conj e_k) = R(p, conj q) for the
        # real-translation directions k; the invariant solution space admits no
        # other consistent value (checked against the least-squares fit).
        for k in range(m + 1, n + 1):
            entries.append((k, k, _corner(N, 1.0)))
            t = np.zeros((N, N), dtype=complex)
            t[k, q] = 1.0
            t[0, k] = -1.0
            entries.append((k, q, t))
        r_qq = np.eye(N, dtype=complex)
        for j in range(1, m + 1):
            r_qq[j, j] = 0.5
        entries.append((q, q, r_qq))
        R = _rho_from_entries(n, entries)
        return SymmetricPair(n, g, R)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class SymspaceReport:
    family: str
    n: int
    m: int
    jacobi: bool
    jacobi_residual: float
    g_equals_image: bool
    ricci_degenerate: bool
    calabi_yau: bool
    dim_h: int
    notes: dict = field(default_factory=dict)


def symspace_report(pair: SymmetricPair, family: str = "?", m: int = 0) -> SymspaceReport:
    try:
        tr = build_transvection(pair)
        jac_ok, jac_res = True, tr.jacobi_residual
        g_eq = tr.g_equals_image
        dim_h = tr.dim
    except InvalidPairError:
        jac_ok, jac_res, g_eq, dim_h = False, float("inf"), False, 0
    ric = ricci_of_map(pair.R)
    calabi_yau = bool(np.abs(ric).max() < DEFAULT_TOL.residual)
    degenerate = bool(abs(np.linalg.det(ric)) < DEFAULT_TOL.residual)
    return SymspaceReport(
        family=family, n=pair.n, m=m,
        jacobi=jac_ok, jacobi_residual=jac_res,
        g_equals_image=g_eq,
        ricci_degenerate=degenerate,
        calabi_yau=calabi_yau,
        dim_h=dim_h,
        notes={"dim_g": pair.g.dim,
               "invariant_residual": pair.invariant_residual()},
    )
