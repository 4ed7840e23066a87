#!/usr/bin/env python3
"""Build every descriptor instance in the regression suite, realize it as a
metric, span the infinitesimal holonomy, and match it back.

Usage: python3 scripts/holonomy_census.py [--order 9] [--rmax 5]
"""
import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from conftest import descriptor_suite  # noqa: E402

from lkholonomy import classify as C  # noqa: E402
from lkholonomy import geometry as G  # noqa: E402
from lkholonomy import potentials as P  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=9)
    ap.add_argument("--rmax", type=int, default=5)
    args = ap.parse_args()

    rows = []
    t0 = time.time()
    for d in descriptor_suite():
        f = P.build_potential(d, order=args.order)
        m = G.metric_from_potential(f)
        hol = G.infinitesimal_holonomy(m, r_max=args.rmax)
        got = C.match_algebra(hol.algebra)
        rows.append((d.family, getattr(d, "m", "-"), getattr(d, "r", "-"),
                     hol.algebra.dim, hol.dims_by_order, got.family,
                     C.same_descriptor(got, d)))
    elapsed = time.time() - t0

    print(f"{'family':8} {'m':>2} {'r':>2} {'dim':>4}  dims_by_order"
          f"          {'matched':8} ok")
    for fam, m, r, dim, dims, got, ok in rows:
        print(f"{fam:8} {str(m):>2} {str(r):>2} {dim:>4}  {str(dims):22}"
              f" {got:8} {'yes' if ok else 'NO'}")
    n_bad = sum(1 for row in rows if not row[-1])
    print(f"\n{len(rows)} instances in {elapsed:.2f}s, {n_bad} mismatches")
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
