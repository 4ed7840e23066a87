"""Numerical toolkit for Lorentz-Kähler holonomy algebras.

Builds pseudo-Kähler metrics from potentials via truncated power-series
(jet) arithmetic, computes curvature and covariant derivatives, spans
infinitesimal holonomy algebras, matches them against canonical families,
runs the Berger test as linear algebra, and verifies Lorentz-Kähler
symmetric spaces.
"""
from .config import DEFAULT_TOL, Tolerances
from .jets import Jet, JetSpace

__version__ = "0.1.0"

from .classify import (  # noqa: E402
    build_family,
    family_dim,
    is_holonomy_realizable,
    match_algebra,
)
from .curvspace import (  # noqa: E402
    CurvatureMap,
    CurvatureParam,
    berger_check,
    param_decode,
    param_encode,
    solve_curvature_space,
)
from .geometry import (  # noqa: E402
    MetricJet,
    christoffel,
    curvature,
    infinitesimal_holonomy,
    metric_from_potential,
    ppwave_check,
    ricci,
    walker_inverse,
    witt_frame,
)
from .lie import MatrixAlgebra  # noqa: E402
from .potentials import build_potential, small_dim_metric  # noqa: E402
from .symspace import (  # noqa: E402
    SymmetricPair,
    TransvectionAlgebra,
    build_transvection,
    canonical_pair,
    symspace_report,
)
