"""Shared numerical tolerances: the only place a threshold is written."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Every threshold of the package: its value, scale, and what it gates.

    coeff_zero 1e-12, absolute: a jet's constant term, a profile
        coefficient, Im gamma, a curvature image, the margin of |lambda| < 1,
        a unit-size descriptor parameter taken as exactly 0 (psi images, the
        real part of a unit gamma), a coefficient left out of the direct
        iterated span; relative to the largest Taylor coefficient: a
        coefficient left out of the holonomy span; relative to the largest
        curvature value at the base point: a value left out of the
        holonomy's degree-0 ambient test; relative to max(largest
        coefficient, 1) in Jet.is_real_valued.
    residual 1e-10, absolute at unit scale or relative to max(largest entry,
        1): a quantity that is zero in exact arithmetic, or a determinant taken
        as zero.  Anti-Hermitian, skew, trace and commutator checks, reality
        of a potential, the Walker form and nondegeneracy, the five pp-wave
        conditions (the first on the a and A parts of every holonomy basis
        element), theta = 0, the family rule's zero a-parts (also the scalar
        generators of build_potential), a real point kept for the holonomy
        span, a symmetric pair's Jacobi identity (relative to max(largest
        structure constant squared, 1)) and its Calabi-Yau flag (relative to
        the largest entry of R on the m-basis, with no floor, so that a
        homothety of R leaves it unchanged), and param_encode's one
        invariant check (relative to max(largest entry, 1)).
    rank_rel 1e-9, relative to the largest singular value: the rank rule's
        one cut, for every span and null space, among them the kernel of A1
        in build_potential, the holonomy's degree-0 ambient test (the rank
        of the curvature values at the base point against dim
        u(1,n+1)_Cp^C) and a symmetric pair's Ricci degeneracy flag.
        Relative to max(largest entry, 1): lie.fits_pattern, the one test of
        the block pattern (read by sigma, also on the holonomy's real
        points, by the (a, A, Z, c) fit and its sigma-fixed check, also in
        the pp-wave check, by the Berger ambient choice and the n = 0
        matcher), span membership, the lambda count of a real form,
        jmat_sqrt's Hermitian part, a symmetric pair's closure R(m, m) in g
        (on the entries of R on the m-basis).  Absolute at unit scale, on
        data from unit-norm bases: the singular-value floor of the matcher's
        reader and of same_descriptor (a relative rule would promote
        noise-only rows to full rank), the reader's zero tests, the
        matcher's proof (MatrixAlgebra.equals), param_decode's re-encoding,
        [g, g] in g for a symmetric pair, a real-form basis's rank floor and
        orthonormality, gamma equality.  Absolute, in the CLI: the --expect comparison, the
        ricci_flat flag of holonomy and validate's Hermitian, Kahler,
        inverse and frame-Gram checks.
    """

    coeff_zero: float = 1e-12
    residual: float = 1e-10
    rank_rel: float = 1e-9


DEFAULT_TOL = Tolerances()
