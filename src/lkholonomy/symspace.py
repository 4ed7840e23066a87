"""Symmetric spaces from holonomy data: the transvection algebra
h = g + m with [X, Y] = -R(X, Y), the six canonical families, and the
Jacobi / Ricci / Calabi-Yau reports.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .classify import KLDescriptor, N0Descriptor, build_family
from .config import DEFAULT_TOL
from .curvspace import (
    CurvatureMap,
    CurvatureParam,
    UnitMaps,
    curvature_image,
    param_encode,
    ricci_of_map,
)
from .lie import MatrixAlgebra, row_space, span_coords


@dataclass
class SymmetricPair:
    """Holonomy algebra g together with a candidate curvature value R.  Its
    checks read the real curvature Rm on the m-basis (b_0..b_{N-1},
    i b_0..i b_{N-1}), computed once, on first use."""

    n: int
    g: MatrixAlgebra
    R: CurvatureMap

    @property
    def dim(self) -> int:
        return self.n + 2

    @property
    def g_matrices(self) -> np.ndarray:
        return np.reshape(self.g.basis, (-1, self.dim, self.dim))

    @cached_property
    def Rm(self) -> np.ndarray:
        """Rm[a, b] = R(m_a, m_b), shape (2N, 2N, N, N)."""
        return self.R.real_curvature()

    @property
    def g_on_m(self) -> np.ndarray:
        """G[i, a, c], the real m-coordinates (Re, Im) of g_i m_a."""
        eye = np.eye(self.dim)
        Am = (self.g_matrices @ np.hstack([eye, 1j * eye])).transpose(0, 2, 1)
        return np.concatenate([Am.real, Am.imag], axis=2)

    @property
    def curvature_image(self) -> MatrixAlgebra:
        """The real span of R(m, m): the image of R as a one-unit ambient."""
        return MatrixAlgebra(self.n, curvature_image(UnitMaps.of(self.n, [self.R.rho[None]]),
                                                     np.ones((1, 1))))


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
    """The structure table of h = g + m, if h closes and satisfies the Jacobi
    identity.  Those two checks are all the pair conditions: closure of
    [m, m] is R(m, m) inside g; Jacobi on m x m x m is the first Bianchi
    identity, and on g x m x m it is g-invariance
    [A, R(X, Y)] = R(AX, Y) + R(X, AY)."""
    gb = pair.g_matrices
    products = gb[:, None] @ gb
    gg, gg_res = span_coords(products - products.transpose(1, 0, 2, 3), pair.g.basis)
    mm, mm_res = span_coords(-pair.Rm, pair.g.basis)
    if (gg_res > DEFAULT_TOL.rank_rel
            or mm_res > DEFAULT_TOL.rank_rel * max(np.abs(pair.Rm).max(), 1.0)):
        raise InvalidPairError("a bracket of g + m escapes g")
    k, G = len(gb), pair.g_on_m
    dim = k + 2 * pair.dim
    table = np.zeros((dim, dim, dim))
    table[:k, :k, :k] = gg
    table[:k, k:, k:] = G
    table[k:, :k, k:] = -G.transpose(1, 0, 2)
    table[k:, k:, :k] = mm

    # [[i, j], l] + [[j, l], i] + [[l, i], j], summed in place so that only
    # two dim^4 arrays are alive at once
    S = np.einsum("ija,alb->ijlb", table, table)
    jacobiator = S + S.transpose(2, 0, 1, 3)
    jacobiator += S.transpose(1, 2, 0, 3)
    jac = float(np.abs(jacobiator, out=jacobiator).max())
    if jac > DEFAULT_TOL.residual * max(np.abs(table).max() ** 2, 1.0):
        raise InvalidPairError(f"Jacobi identity fails: residual {jac:.2e}")

    image = pair.curvature_image
    return TransvectionAlgebra(pair, dim, table, jac, image.equals(pair.g), image.dim)


# ---------------------------------------------------------------------------
# canonical families
# ---------------------------------------------------------------------------


def canonical_pair(family: str, n: int = 0, m: int = 0) -> SymmetricPair:
    """The six symmetric pairs, each a classification descriptor d with a
    curvature parameter p: g = build_family(d) and R = param_encode(p).  b)
    and e) are the negations of a) and d)."""
    family = family.lower()
    if family in ("a", "b"):
        if n != 0:
            raise ValueError("families a, b require n = 0")
        d, p = N0Descriptor("G3"), CurvatureParam(0, c=1.0 if family == "a" else -1.0)
    elif family == "c":
        if n != 0:
            raise ValueError("family c requires n = 0")
        d, p = N0Descriptor("G2"), CurvatureParam(0, alpha=1.0)
    elif family in ("d", "e"):
        if n != 1:
            raise ValueError("families d, e require n = 1")
        K = np.array([1j if family == "d" else -1j])
        d, p = KLDescriptor(1, 0, []), CurvatureParam(1, K=K)
    elif family == "f":
        if n < 1 or not 0 <= m <= n:
            raise ValueError("family f requires n >= 1 and 0 <= m <= n")
        # GKJL for m < n, GK for m = n.  The exchange identity forces
        # R(e_k, conj e_k) = R(p, conj q) for the real-translation directions
        # k > m, so A_kk = beta = 1 and T_kk = -1; the invariant solution
        # space admits no other consistent value.
        d = KLDescriptor(n, m, [(2j, 1j * np.eye(m))])
        ones = np.ones(n - m)
        A = np.diag(np.concatenate([np.full(m, 0.5), ones])).astype(complex)
        T = np.diag(np.concatenate([np.zeros(m), -ones])).astype(complex)
        p = CurvatureParam(n, beta=1.0, T=T, A=A)
    else:
        raise ValueError(f"unknown family {family!r}")
    return SymmetricPair(n, build_family(d), param_encode(p))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class SymspaceReport:
    family: str
    n: int
    m: int
    jacobi: bool
    jacobi_residual: float | None  # None when the pair is rejected
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
        jac_ok, jac_res, g_eq, dim_h = False, None, False, 0
    ric = ricci_of_map(pair.R)
    return SymspaceReport(
        family=family, n=pair.n, m=m,
        jacobi=jac_ok, jacobi_residual=jac_res,
        g_equals_image=g_eq,
        ricci_degenerate=len(row_space(ric)) < pair.dim,
        calabi_yau=bool(np.abs(ric).max() <= DEFAULT_TOL.residual * np.abs(pair.Rm).max()),
        dim_h=dim_h,
        notes={"dim_g": pair.g.dim, "invariant_residual": pair.R.invariant_residual()},
    )
