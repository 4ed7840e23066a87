"""Shared numerical tolerances."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """All numerical thresholds used across the package.

    coeff_zero is relative to the largest coefficient magnitude of the
    series involved; rank_rel is relative to the largest singular value.
    rank_abs is the absolute singular-value floor of the matcher's rank
    decisions: its inputs are built from unit-norm basis matrices, so
    components this small are numerical noise that a purely relative rule
    would promote to full rank.  sigma_fit bounds, relative to
    max(largest entry, 1), how far a holonomy matrix may miss the Witt-frame
    block pattern: when the holonomy takes real points through the
    involution sigma, and when the pp-wave check reads a holonomy basis
    element as (a, A, Z, c).
    """

    coeff_zero: float = 1e-12
    rank_rel: float = 1e-9
    rank_abs: float = 1e-8
    gram: float = 1e-10
    bracket_residual: float = 1e-10
    unitary: float = 1e-10
    jacobi: float = 1e-10
    sigma_fit: float = 1e-5


DEFAULT_TOL = Tolerances()
