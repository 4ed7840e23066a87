#!/usr/bin/env python3
"""Probe the oriented-lines metric: verify the curvature values at the
origin and scan the computed holonomy dimension across base points and
derivative orders.

The curvature values at the origin check out to machine precision, but the
spanned holonomy stabilizes at real dimension 2 everywhere we look; the
scan below documents that finding.

Usage: python3 scripts/oriented_lines_scan.py [--order 8]
"""
import argparse
import sys

import numpy as np

from lkholonomy import geometry as G
from lkholonomy import potentials as P
from lkholonomy.jetmat import jmat_eval0
from lkholonomy.jets import JetSpace


def recentred_metric(order: int, u0: complex):
    """Oriented-lines metric with the u-coordinate shifted by u0."""
    space = JetSpace(2, order)
    v, u = space.variable(0), space.variable(1)
    vb, ub = space.conj_variable(0), space.conj_variable(1)
    uu = (u + space.constant(u0)) * (ub + space.constant(np.conj(u0)))
    pref = (space.constant(1.0) + uu).reciprocal()
    p3 = pref * pref * pref
    from lkholonomy.geometry import MetricJet
    h = np.empty((2, 2), dtype=object)
    h[0, 0] = space.zero()
    h[0, 1] = pref * pref
    h[1, 0] = pref * pref
    cross = ((v * (ub + space.constant(np.conj(u0)))
              + vb * (u + space.constant(u0))))
    h[1, 1] = cross * p3 * (-2.0)
    return MetricJet(0, h)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=8)
    args = ap.parse_args()

    m = P.oriented_lines_metric(order=args.order, variant="hermitized")
    Q = m.frame0
    Qi = np.linalg.inv(Q)
    R0 = [[jmat_eval0(m.curv[c][d]) for d in range(2)] for c in range(2)]

    def R_frame(X, Y):
        acc = np.zeros((2, 2), complex)
        for c in range(2):
            for d in range(2):
                acc += X[c] * np.conj(Y[d]) * (Qi @ R0[c][d] @ Q)
        return acc

    p, q = Q[:, 0], Q[:, 1]
    print("R(p, qbar)(0) =\n", np.round(R_frame(p, q), 12))
    print("R(q, qbar)(0) =\n", np.round(R_frame(q, q), 12))

    print("\nbase-point scan (holonomy dim by derivative order):")
    for u0 in (0.0, 0.3, 0.5j, 0.4 + 0.2j):
        mm = recentred_metric(args.order, u0)
        hol = G.infinitesimal_holonomy(mm, r_max=args.order - 4)
        print(f"  u0 = {u0!s:12} dims {hol.dims_by_order} "
              f"stabilized {hol.stabilized}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
