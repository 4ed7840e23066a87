"""Shared numerical tolerances: the only place a threshold is written."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Every threshold of the package: its value, scale, and what it gates.

    exact_zero 1e-14, absolute: a unit-size descriptor parameter is exactly 0
        (psi images, the real part of a unit gamma).
    coeff_zero 1e-12, absolute: a jet's constant term, a profile or pivot
        coefficient, Im gamma, a curvature image, the margin of |lambda| < 1;
        relative to max(largest coefficient, 1) in Jet.is_real_valued and
        Jet.divide_power.
    span_noise 1e-11, relative to the largest Taylor coefficient (absolute in
        iterated_covariant_span): a coefficient left out of the holonomy span.
    residual 1e-10, absolute at unit scale or relative to max(largest entry,
        1): a quantity that is zero in exact arithmetic, or a determinant taken
        as zero.  Anti-Hermitian, skew, trace and commutator checks, reality
        of a potential, the Walker form and nondegeneracy, the pp-wave
        conditions but the first, theta = 0, the block form of A1 in _n0_of,
        CurvatureParam symmetry, the n = 0 matcher's lower-left entry, the
        family rule's zero a-parts, a real point kept for the holonomy
        span, a symmetric pair's Jacobi identity and Ricci flags.
    rank_rel 1e-9, relative to the largest singular value: the rank rule's cut
        for every span.  Relative to max(largest entry, 1): block-pattern fits,
        span membership, the skew normal form, jmat_sqrt's Hermitian part.
        Absolute at unit scale: zero tests on orthonormal rows in the matcher,
        a real-form basis's rank floor and orthonormality, gamma equality.
        Also the default of --tol.
    rank_abs 1e-8, absolute: the singular-value floor of the matcher and of
        same_descriptor (their inputs come from unit-norm bases, so smaller
        components are noise that a relative rule would promote to full
        rank), the matcher's block checks, least-squares fit residuals (also
        a curvature image escaping an empty g), param_decode's block pattern,
        a symmetric pair's invariants.
    ppwave_translation 1e-7, absolute: pp-wave condition 1, on the a and A
        parts of every holonomy basis element.
    sigma_fit 1e-5, relative to max(largest entry, 1): how far a holonomy
        matrix may miss the Witt-frame block pattern, when its real points are
        taken through sigma and when the pp-wave check reads (a, A, Z, c).
    """

    exact_zero: float = 1e-14
    coeff_zero: float = 1e-12
    span_noise: float = 1e-11
    residual: float = 1e-10
    rank_rel: float = 1e-9
    rank_abs: float = 1e-8
    ppwave_translation: float = 1e-7
    sigma_fit: float = 1e-5


DEFAULT_TOL = Tolerances()
